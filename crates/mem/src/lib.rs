//! Memory subsystem for the Watchdog reproduction.
//!
//! * [`vm`] — sparse paged guest memory with footprint accounting (distinct
//!   words and 4KB pages touched, split into program data vs. metadata —
//!   the measurements behind Fig. 10).
//! * [`shadow`] — the disjoint shadow metadata space: 128-bit (identifier)
//!   or 256-bit (identifier + bounds) records per 8-byte data word (§3.3,
//!   §8).
//! * [`config`] — the typed error every configuration check returns.
//! * [`cache`] — set-associative write-back caches with LRU replacement,
//!   and the grouping of cache geometries by identical hit/miss behaviour.
//! * [`tlb`] — translation lookaside buffers.
//! * [`prefetch`] — stream prefetchers (Table 2 lists per-level stream
//!   prefetchers).
//! * [`hierarchy`] — the full simulated memory hierarchy of Table 2:
//!   L1I/L1D, the dedicated 4KB lock-location cache (§4.2), private L2,
//!   shared L3 and DRAM, with per-class latency composition and an
//!   "idealized shadow accesses" mode (§9.3's cache-pressure ablation).
//! * [`words`] — sets of words as per-page bitmaps (footprints, the
//!   location-based checker's allocation status).
//! * [`hash`] — the multiplicative hasher behind every page- or
//!   address-keyed map, and the one FNV-1a checksum/fingerprint hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hash;
pub mod hierarchy;
pub mod prefetch;
pub mod shadow;
pub mod tlb;
pub mod vm;
pub mod words;

pub use cache::{Cache, CacheConfig, CacheStats, GeometryClasses};
pub use config::{ConfigError, Constraint};
pub use hash::{FastMap, MulHasher};
pub use hierarchy::{
    AccessClass, AccessOutcome, AccessReq, Hierarchy, HierarchyConfig, HierarchyStats,
};
pub use shadow::{MetaRecord, ShadowSpace};
pub use tlb::Tlb;
pub use vm::{Footprint, GuestMem};
pub use words::WordSet;
