//! The simulated memory hierarchy of Table 2.
//!
//! Three-level cache hierarchy (L1I + L1D + dedicated lock-location cache,
//! private L2, shared L3, DRAM) with stream prefetchers and TLBs. The
//! hierarchy answers one question for the timing model: *how many cycles
//! does this access take?* — composing per-level latencies along the miss
//! path and updating replacement state (caches are inclusive and
//! write-allocate).
//!
//! Two Watchdog-specific knobs:
//!
//! * `lock_cache` — when enabled, lock-location accesses (check µops and
//!   identifier management) go to the dedicated 4KB cache, a *peer* of the
//!   L1 caches with its own small TLB (§4.2, Fig. 4c); when disabled they
//!   contend with ordinary data accesses in the L1 D-cache (Fig. 9's
//!   ablation).
//! * `ideal_shadow` — shadow-metadata accesses "occupy cache ports but
//!   never cache miss and do not actually consume space in the data cache"
//!   (§9.3's cache-pressure isolation experiment).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::config::{ConfigError, MAX_ENTRIES};
use crate::prefetch::StreamPrefetcher;
use crate::tlb::Tlb;

/// Classification of a memory access for routing and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Ordinary program data.
    Data,
    /// Shadow-space metadata (injected `shadow_load` / `shadow_store`).
    Shadow,
    /// Lock-location access (`check` µops, identifier management).
    Lock,
    /// Instruction fetch.
    Ifetch,
}

impl AccessClass {
    /// Every class, in declaration order.
    pub const ALL: [AccessClass; 4] = [
        AccessClass::Data,
        AccessClass::Shadow,
        AccessClass::Lock,
        AccessClass::Ifetch,
    ];

    /// Compact index for per-class accounting tables.
    const fn idx(self) -> usize {
        match self {
            AccessClass::Data => 0,
            AccessClass::Shadow => 1,
            AccessClass::Lock => 2,
            AccessClass::Ifetch => 3,
        }
    }

    /// Whether a [`Hierarchy`] built from `cfg` sends accesses of this
    /// class to the dedicated lock-location cache. These are the only
    /// accesses that reach `cfg.ll`: the LL TLB in front of it is sized by
    /// `lltlb_entries` alone, so two hierarchies that differ only in the
    /// LL$ geometry behave identically as long as their LL$s hit and miss
    /// identically on these accesses, in order.
    pub fn reaches_ll(self, cfg: &HierarchyConfig) -> bool {
        Route::of(self, cfg) == Route::LockDedicated
    }
}

/// One memory access of a batched request stream, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReq {
    /// Routing/accounting class.
    pub class: AccessClass,
    /// Byte address.
    pub addr: u64,
    /// Whether the access writes memory.
    pub write: bool,
}

impl AccessReq {
    /// A read request.
    pub const fn read(class: AccessClass, addr: u64) -> Self {
        AccessReq {
            class,
            addr,
            write: false,
        }
    }

    /// A write request.
    pub const fn write(class: AccessClass, addr: u64) -> Self {
        AccessReq {
            class,
            addr,
            write: true,
        }
    }
}

/// How one access class is routed through the hierarchy. The routing
/// decision depends only on the class and two configuration knobs
/// (`lock_cache`, `ideal_shadow`), so [`Hierarchy::new`] bakes it into a
/// 4-entry table indexed by [`AccessClass::idx`] — the hot access path
/// indexes that table instead of re-testing the knobs per access, the
/// same descriptor-table discipline the timing core applies to µop
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// L1 I-cache with next-line instruction prefetch.
    Ifetch,
    /// §9.3 idealized shadow: fixed L1 latency, touches no state.
    IdealShadow,
    /// Dedicated lock-location cache and its private TLB (§4.2).
    LockDedicated,
    /// The L1 D-cache path: data, non-ideal shadow, and lock traffic on
    /// the Fig. 9 no-LL$ ablation.
    DataPath,
}

impl Route {
    /// How `class` is routed under `cfg`.
    fn of(class: AccessClass, cfg: &HierarchyConfig) -> Route {
        match class {
            AccessClass::Ifetch => Route::Ifetch,
            AccessClass::Shadow if cfg.ideal_shadow => Route::IdealShadow,
            AccessClass::Lock if cfg.lock_cache => Route::LockDedicated,
            _ => Route::DataPath,
        }
    }
}

/// Outcome flags of one access — a pure side-channel beside the returned
/// latency, kept for the caller that needs to *attribute* the access
/// (the timing core's CPI-stack accounting) without re-deriving the miss
/// path from latency arithmetic. Reading it never changes hierarchy
/// state, statistics or latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access missed its TLB (D-TLB, or the LL TLB on the lock path).
    pub tlb_miss: bool,
    /// The access missed its first-level structure (L1I, L1D or LL$).
    pub l1_miss: bool,
    /// The access was served by the dedicated lock-location cache.
    pub lock_path: bool,
}

/// Hierarchy configuration (defaults reproduce Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry (32KB, 4-way, 64B).
    pub l1i: CacheConfig,
    /// L1 data cache geometry (32KB, 8-way, 64B).
    pub l1d: CacheConfig,
    /// Lock-location cache geometry (4KB, 8-way, 64B).
    pub ll: CacheConfig,
    /// Private L2 geometry (256KB, 8-way, 64B).
    pub l2: CacheConfig,
    /// Shared L3 geometry (16MB, 16-way, 64B).
    pub l3: CacheConfig,
    /// L1 hit latency in cycles.
    pub l1_lat: u64,
    /// L2 hit latency (added to L1 latency).
    pub l2_lat: u64,
    /// L3 hit latency (added to L1+L2).
    pub l3_lat: u64,
    /// DRAM latency (added to the full cache path).
    pub mem_lat: u64,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// Lock-location cache TLB entries.
    pub lltlb_entries: usize,
    /// Page-walk penalty on a TLB miss.
    pub tlb_miss_penalty: u64,
    /// L1D prefetcher: `(streams, degree)`.
    pub l1_prefetch: (usize, u64),
    /// L2 prefetcher: `(streams, degree)`.
    pub l2_prefetch: (usize, u64),
    /// Route lock accesses to the dedicated lock-location cache (§4.2).
    pub lock_cache: bool,
    /// Idealize shadow accesses (§9.3 ablation).
    pub ideal_shadow: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new(32 * 1024, 4, 64),
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            ll: CacheConfig::new(4 * 1024, 8, 64),
            l2: CacheConfig::new(256 * 1024, 8, 64),
            l3: CacheConfig::new(16 * 1024 * 1024, 16, 64),
            l1_lat: 3,
            l2_lat: 10,
            l3_lat: 25,
            mem_lat: 100,
            dtlb_entries: 64,
            lltlb_entries: 32,
            tlb_miss_penalty: 30,
            l1_prefetch: (4, 4),
            l2_prefetch: (8, 16),
            lock_cache: true,
            ideal_shadow: false,
        }
    }
}

impl HierarchyConfig {
    /// Checks every field the hierarchy cannot be built from: each cache
    /// geometry (see [`CacheConfig::validate`]), `1..=`[`MAX_ENTRIES`]
    /// entries per TLB and streams per prefetcher, a prefetch degree of at
    /// most [`MAX_ENTRIES`], and every latency at most
    /// [`MAX_LATENCY`](crate::MAX_LATENCY), which keeps the core's
    /// timestamp sums from overflowing (the argument is on the constant).
    /// The fields are `pub`, so a struct literal can skip
    /// [`CacheConfig::new`]'s checks; the live run and every replay call
    /// this before building a [`Hierarchy`].
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1i.validate(["l1i.size", "l1i.ways", "l1i.block"])?;
        self.l1d.validate(["l1d.size", "l1d.ways", "l1d.block"])?;
        self.ll.validate(["ll.size", "ll.ways", "ll.block"])?;
        self.l2.validate(["l2.size", "l2.ways", "l2.block"])?;
        self.l3.validate(["l3.size", "l3.ways", "l3.block"])?;
        ConfigError::check_entries("dtlb_entries", self.dtlb_entries as u64)?;
        ConfigError::check_entries("lltlb_entries", self.lltlb_entries as u64)?;
        ConfigError::check_entries("l1_prefetch.streams", self.l1_prefetch.0 as u64)?;
        ConfigError::check_range("l1_prefetch.degree", self.l1_prefetch.1, 0, MAX_ENTRIES)?;
        ConfigError::check_entries("l2_prefetch.streams", self.l2_prefetch.0 as u64)?;
        ConfigError::check_range("l2_prefetch.degree", self.l2_prefetch.1, 0, MAX_ENTRIES)?;
        ConfigError::check_latency("l1_lat", self.l1_lat)?;
        ConfigError::check_latency("l2_lat", self.l2_lat)?;
        ConfigError::check_latency("l3_lat", self.l3_lat)?;
        ConfigError::check_latency("mem_lat", self.mem_lat)?;
        ConfigError::check_latency("tlb_miss_penalty", self.tlb_miss_penalty)
    }
}

/// Per-class access counters plus per-cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// Accesses by class: data, shadow, lock, ifetch.
    pub data_accesses: u64,
    /// Shadow accesses.
    pub shadow_accesses: u64,
    /// Lock-location accesses.
    pub lock_accesses: u64,
    /// Instruction fetches.
    pub ifetch_accesses: u64,
    /// L1I counters.
    pub l1i: CacheStats,
    /// L1D counters.
    pub l1d: CacheStats,
    /// Lock-location cache counters.
    pub ll: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// L3 counters.
    pub l3: CacheStats,
    /// Data-TLB `(accesses, misses)`.
    pub dtlb: (u64, u64),
    /// Lock-TLB `(accesses, misses)`.
    pub lltlb: (u64, u64),
}

impl HierarchyStats {
    /// Lock-location cache misses per 1000 lock accesses (the paper quotes
    /// "<1 miss per 1000 instructions" for a 4KB cache).
    pub fn ll_mpk(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.ll.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Exports every counter under the stable `mem.*` namespace: per-class
    /// access totals, per-cache demand/miss/prefetch counters with their
    /// miss-rate gauges, and both TLBs.
    pub fn export_into(&self, reg: &mut watchdog_telemetry::MetricsRegistry) {
        use watchdog_telemetry::Unit;
        reg.counter_at("mem.access.data", Unit::Count, self.data_accesses);
        reg.counter_at("mem.access.shadow", Unit::Count, self.shadow_accesses);
        reg.counter_at("mem.access.lock", Unit::Count, self.lock_accesses);
        reg.counter_at("mem.access.ifetch", Unit::Count, self.ifetch_accesses);
        for (name, c) in [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("ll", &self.ll),
            ("l2", &self.l2),
            ("l3", &self.l3),
        ] {
            reg.counter_at(&format!("mem.{name}.accesses"), Unit::Count, c.accesses);
            reg.counter_at(&format!("mem.{name}.misses"), Unit::Count, c.misses);
            reg.counter_at(
                &format!("mem.{name}.prefetch_fills"),
                Unit::Count,
                c.prefetch_fills,
            );
            reg.gauge_at(&format!("mem.{name}.miss_rate"), Unit::Ratio, c.miss_rate());
        }
        for (name, (accesses, misses)) in [("dtlb", self.dtlb), ("lltlb", self.lltlb)] {
            reg.counter_at(&format!("mem.{name}.accesses"), Unit::Count, accesses);
            reg.counter_at(&format!("mem.{name}.misses"), Unit::Count, misses);
        }
    }
}

/// The simulated memory hierarchy.
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    // Per-class routing table, indexed by `AccessClass::idx()`; see `Route`.
    routes: [Route; 4],
    l1i: Cache,
    l1d: Cache,
    ll: Cache,
    l2: Cache,
    l3: Cache,
    dtlb: Tlb,
    lltlb: Tlb,
    l1_pf: StreamPrefetcher,
    l2_pf: StreamPrefetcher,
    stats: HierarchyStats,
    // Lock-probe memo (hoisted LL$ geometry + MRU tracking): `ll_memo[set]`
    // is the line most recently accessed in that LL$ set, `ll_page_memo`
    // the page most recently translated by the LL TLB. A probe matching
    // both is a *guaranteed* hit whose full lookup can be skipped — see
    // `access_uncounted` for the exactness argument. Geometry is
    // power-of-two, so the set-index math is a precomputed shift + mask.
    ll_block_shift: u32,
    ll_set_mask: u64,
    ll_memo: Vec<u64>,
    ll_page_memo: u64,
    ll_memo_hits: u64,
    // The same memo structure for the L1 D-cache path (data, shadow, and
    // lock-without-LL$ accesses): `dtlb_page_memo` is the page most
    // recently translated by the D-TLB (a repeat skips even its O(1)
    // hashed lookup and LRU relink), `l1d_memo[set]` the line most
    // recently accessed in that L1D set. L1D prefetch fills install lines
    // with fresh stamps, so each fill invalidates its set's memo entry.
    l1d_block_shift: u32,
    l1d_set_mask: u64,
    l1d_memo: Vec<u64>,
    dtlb_page_memo: u64,
    // Side-channel: outcome flags of the most recent access (every
    // `access_uncounted` branch overwrites it unconditionally, so the
    // cost is identical whether or not anyone reads it).
    last_outcome: AccessOutcome,
}

impl Hierarchy {
    /// Builds the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let ll_sets = cfg.ll.sets();
        let l1d_sets = cfg.l1d.sets();
        Hierarchy {
            routes: AccessClass::ALL.map(|class| Route::of(class, &cfg)),
            ll_block_shift: cfg.ll.block.trailing_zeros(),
            ll_set_mask: ll_sets - 1,
            l1d_block_shift: cfg.l1d.block.trailing_zeros(),
            l1d_set_mask: l1d_sets - 1,
            l1d_memo: vec![u64::MAX; l1d_sets as usize],
            dtlb_page_memo: u64::MAX,
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            ll: Cache::new(cfg.ll),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dtlb: Tlb::new(cfg.dtlb_entries),
            lltlb: Tlb::new(cfg.lltlb_entries),
            l1_pf: StreamPrefetcher::new(cfg.l1_prefetch.0, cfg.l1_prefetch.1),
            l2_pf: StreamPrefetcher::new(cfg.l2_prefetch.0, cfg.l2_prefetch.1),
            stats: HierarchyStats::default(),
            ll_memo: vec![u64::MAX; ll_sets as usize],
            ll_page_memo: u64::MAX,
            ll_memo_hits: 0,
            last_outcome: AccessOutcome::default(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Whether the dedicated lock-location cache is in use.
    pub fn lock_cache_enabled(&self) -> bool {
        self.cfg.lock_cache
    }

    /// Performs one access and returns its latency in cycles.
    pub fn access(&mut self, class: AccessClass, addr: u64, write: bool) -> u64 {
        self.count_class(class, 1);
        self.access_uncounted(class, addr, write)
    }

    /// Performs a batch of accesses **in request order**, appending one
    /// latency per request to `lats` (cleared first).
    ///
    /// The walk itself must stay in program order — L2/L3 (and on the
    /// Fig. 9 no-LL$ ablation, the L1 D-cache) back every access class, so
    /// reordering across classes would change replacement state. What the
    /// batch buys: the per-class access counters are grouped and added
    /// once per batch rather than once per access, and the ordered walk
    /// shares every repeat-probe memo with [`Hierarchy::access`].
    ///
    /// This entry point serves callers that already hold a materialized,
    /// ordered request list (it is equivalence-tested against singles and
    /// tracked by the `cache/hierarchy_batch` micro-bench). The timing
    /// core's fused consume loop is deliberately **not** one of them: its
    /// I-fetch probes interleave with µop accesses under branch-predictor
    /// control, so feeding this function would mean materializing that
    /// interleaved sequence first — measured to cost more than the
    /// grouped bookkeeping saves. It drives [`Hierarchy::access`] inline
    /// instead, through the same memoized path.
    pub fn access_batch(&mut self, reqs: &[AccessReq], lats: &mut Vec<u64>) {
        lats.clear();
        lats.reserve(reqs.len());
        let mut counts = [0u64; 4];
        for r in reqs {
            counts[r.class.idx()] += 1;
        }
        for (class, n) in AccessClass::ALL.into_iter().zip(counts) {
            self.count_class(class, n);
        }
        for r in reqs {
            lats.push(self.access_uncounted(r.class, r.addr, r.write));
        }
    }

    /// Lock-probe memo short circuits taken so far (diagnostic).
    pub fn ll_memo_hits(&self) -> u64 {
        self.ll_memo_hits
    }

    /// Outcome flags of the most recent access (single or batch element):
    /// which structures missed and whether the dedicated lock-location
    /// cache served it. Purely observational — the timing core's CPI
    /// accounting reads this right after [`Hierarchy::access`] to
    /// attribute stall slots to TLB / LL$ / L1D misses.
    pub fn last_outcome(&self) -> AccessOutcome {
        self.last_outcome
    }

    fn count_class(&mut self, class: AccessClass, n: u64) {
        match class {
            AccessClass::Data => self.stats.data_accesses += n,
            AccessClass::Shadow => self.stats.shadow_accesses += n,
            AccessClass::Lock => self.stats.lock_accesses += n,
            AccessClass::Ifetch => self.stats.ifetch_accesses += n,
        }
    }

    /// The access path proper: routing, cache/TLB lookups, prefetch
    /// training. Per-class access counters are the caller's job
    /// ([`Hierarchy::access`] counts one; [`Hierarchy::access_batch`]
    /// counts a whole batch at once), and cache counters live in the
    /// caches themselves ([`Hierarchy::stats`] snapshots them on demand).
    /// Routing is one indexed load from the precomputed [`Route`] table —
    /// no per-access knob tests.
    fn access_uncounted(&mut self, class: AccessClass, addr: u64, _write: bool) -> u64 {
        match self.routes[class.idx()] {
            Route::Ifetch => self.ifetch_path(addr),
            Route::IdealShadow => {
                // §9.3: occupies a port (handled by the pipeline model) but
                // never misses and pollutes nothing.
                self.last_outcome = AccessOutcome::default();
                self.cfg.l1_lat
            }
            Route::LockDedicated => self.lock_path(addr),
            Route::DataPath => self.data_path(addr),
        }
    }

    /// [`Route::Ifetch`]: L1 I-cache lookup plus next-line instruction
    /// prefetch (Table 2: I-cache stream prefetcher, 2 streams × 4 blocks —
    /// sequential code should not miss on every new block).
    fn ifetch_path(&mut self, addr: u64) -> u64 {
        let mut lat = self.cfg.l1_lat;
        let miss = !self.l1i.access(addr);
        self.last_outcome = AccessOutcome {
            tlb_miss: false,
            l1_miss: miss,
            lock_path: false,
        };
        if miss {
            lat += self.level2_and_beyond(addr);
        }
        let block = addr / self.cfg.l1i.block;
        for i in 1..=2u64 {
            let next = (block + i) * self.cfg.l1i.block;
            if !self.l1i.probe(next) {
                self.l1i.prefetch_fill(next);
                self.l2.prefetch_fill(next);
                self.l3.prefetch_fill(next);
            }
        }
        lat
    }

    /// [`Route::LockDedicated`]: the LL$ and its TLB, fronted by the
    /// lock-probe memo. The LL$ and LL TLB are touched by lock accesses
    /// *only*, so if this line is the one most recently accessed in its set
    /// AND this page is the one most recently translated, the lookup is a
    /// guaranteed hit and the entry is already MRU — `repeat_hit` accounts
    /// it with bit-identical statistics and replacement state (check µops
    /// re-probing a hot pointer's lock location take this path almost
    /// every time).
    fn lock_path(&mut self, addr: u64) -> u64 {
        let line = addr >> self.ll_block_shift;
        let set = (line & self.ll_set_mask) as usize;
        let page = addr >> 12;
        if self.ll_memo[set] == line && self.ll_page_memo == page {
            self.lltlb.repeat_hit();
            self.ll.repeat_hit();
            self.ll_memo_hits += 1;
            self.last_outcome = AccessOutcome {
                tlb_miss: false,
                l1_miss: false,
                lock_path: true,
            };
            return self.cfg.l1_lat;
        }
        self.ll_memo[set] = line;
        self.ll_page_memo = page;
        let mut lat = self.cfg.l1_lat;
        let tlb_miss = !self.lltlb.access(addr);
        if tlb_miss {
            lat += self.cfg.tlb_miss_penalty;
        }
        let l1_miss = !self.ll.access(addr);
        self.last_outcome = AccessOutcome {
            tlb_miss,
            l1_miss,
            lock_path: true,
        };
        if l1_miss {
            lat += self.level2_and_beyond(addr);
        }
        lat
    }

    /// [`Route::DataPath`]: data, shadow (non-ideal) and lock accesses
    /// without the dedicated cache all go through the L1 D-cache. Both
    /// lookups carry the repeat memo of the lock path: the D-TLB is only
    /// ever touched here, so a repeat of its last-translated page is a
    /// guaranteed still-MRU hit, and a repeat of a set's
    /// most-recently-accessed L1D line likewise — except that L1D prefetch
    /// fills stamp lines behind the memo's back, so each fill clears its
    /// set's entry (fills land in the blocks *after* a miss, never in the
    /// missed set itself).
    fn data_path(&mut self, addr: u64) -> u64 {
        let mut lat = self.cfg.l1_lat;
        let page = addr >> 12;
        let mut tlb_miss = false;
        if self.dtlb_page_memo == page {
            self.dtlb.repeat_hit();
        } else {
            self.dtlb_page_memo = page;
            if !self.dtlb.access(addr) {
                tlb_miss = true;
                lat += self.cfg.tlb_miss_penalty;
            }
        }
        let line = addr >> self.l1d_block_shift;
        let set = (line & self.l1d_set_mask) as usize;
        if self.l1d_memo[set] == line {
            self.l1d.repeat_hit();
            self.last_outcome = AccessOutcome {
                tlb_miss,
                l1_miss: false,
                lock_path: false,
            };
        } else if !self.l1d.access(addr) {
            self.last_outcome = AccessOutcome {
                tlb_miss,
                l1_miss: true,
                lock_path: false,
            };
            lat += self.level2_and_beyond(addr);
            // Train the L1 stream prefetcher on the miss. A fill landing in
            // the missed line's own set (possible only with tiny test
            // geometries) would out-stamp it, so the memo is only armed
            // when none did.
            let mut set_clobbered = false;
            for &pf in self.l1_pf.on_miss(line) {
                let a = pf << self.l1d_block_shift;
                self.l1d.prefetch_fill(a);
                let pf_set = (pf & self.l1d_set_mask) as usize;
                self.l1d_memo[pf_set] = u64::MAX;
                set_clobbered |= pf_set == set;
                self.l2.prefetch_fill(a);
                self.l3.prefetch_fill(a);
            }
            if !set_clobbered {
                self.l1d_memo[set] = line;
            }
        } else {
            self.l1d_memo[set] = line;
            self.last_outcome = AccessOutcome {
                tlb_miss,
                l1_miss: false,
                lock_path: false,
            };
        }
        lat
    }

    /// Walks L2 → L3 → memory on an L1-level miss; returns the *additional*
    /// latency beyond the L1 access.
    fn level2_and_beyond(&mut self, addr: u64) -> u64 {
        let mut lat = self.cfg.l2_lat;
        if !self.l2.access(addr) {
            let block = addr / self.cfg.l2.block;
            for &pf in self.l2_pf.on_miss(block) {
                let a = pf * self.cfg.l2.block;
                self.l2.prefetch_fill(a);
                self.l3.prefetch_fill(a);
            }
            lat += self.cfg.l3_lat;
            if !self.l3.access(addr) {
                lat += self.cfg.mem_lat;
            }
        }
        lat
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HierarchyStats {
        let mut s = self.stats;
        s.l1i = self.l1i.stats();
        s.l1d = self.l1d.stats();
        s.ll = self.ll.stats();
        s.l2 = self.l2.stats();
        s.l3 = self.l3.stats();
        s.dtlb = self.dtlb.stats();
        s.lltlb = self.lltlb.stats();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(cfg: HierarchyConfig) -> Hierarchy {
        Hierarchy::new(cfg)
    }

    #[test]
    fn cold_miss_then_hit_latency() {
        let mut hy = h(HierarchyConfig::default());
        let cold = hy.access(AccessClass::Data, 0x2000_0000, false);
        let warm = hy.access(AccessClass::Data, 0x2000_0000, false);
        // Cold: L1 + TLB walk + L2 + L3 + memory.
        assert_eq!(cold, 3 + 30 + 10 + 25 + 100);
        assert_eq!(warm, 3);
    }

    #[test]
    fn lock_accesses_use_dedicated_cache() {
        let mut hy = h(HierarchyConfig::default());
        hy.access(AccessClass::Lock, 0x5000_0000, false);
        hy.access(AccessClass::Lock, 0x5000_0000, false);
        let s = hy.stats();
        assert_eq!(s.ll.accesses, 2);
        assert_eq!(s.l1d.accesses, 0, "lock traffic must not touch L1D");
    }

    #[test]
    fn lock_accesses_fall_back_to_l1d_when_disabled() {
        let mut hy = h(HierarchyConfig {
            lock_cache: false,
            ..Default::default()
        });
        hy.access(AccessClass::Lock, 0x5000_0000, false);
        let s = hy.stats();
        assert_eq!(s.ll.accesses, 0);
        assert_eq!(s.l1d.accesses, 1);
    }

    #[test]
    fn reaches_ll_names_exactly_the_accesses_the_ll_sees() {
        for (lock_cache, ideal_shadow) in [(true, false), (false, false), (true, true)] {
            let cfg = HierarchyConfig {
                lock_cache,
                ideal_shadow,
                ..Default::default()
            };
            for class in AccessClass::ALL {
                let mut hy = h(cfg);
                hy.access(class, 0x5000_0000, false);
                assert_eq!(
                    class.reaches_ll(&cfg),
                    hy.stats().ll.accesses == 1,
                    "{class:?} with lock_cache={lock_cache}, ideal_shadow={ideal_shadow}"
                );
            }
        }
    }

    #[test]
    fn ideal_shadow_never_misses_or_pollutes() {
        let mut hy = h(HierarchyConfig {
            ideal_shadow: true,
            ..Default::default()
        });
        for i in 0..1000 {
            let lat = hy.access(AccessClass::Shadow, 0x4000_0000_0000 + i * 4096, false);
            assert_eq!(lat, 3);
        }
        let s = hy.stats();
        assert_eq!(s.shadow_accesses, 1000);
        assert_eq!(s.l1d.accesses, 0);
    }

    #[test]
    fn shadow_pollutes_l1d_when_not_ideal() {
        let mut hy = h(HierarchyConfig::default());
        hy.access(AccessClass::Shadow, 0x4000_0000_0000, false);
        assert_eq!(hy.stats().l1d.accesses, 1);
    }

    #[test]
    fn streaming_pattern_benefits_from_prefetch() {
        let mut cfg = HierarchyConfig {
            tlb_miss_penalty: 0,
            ..Default::default()
        };
        let mut with_pf = h(cfg);
        cfg.l1_prefetch = (1, 0);
        cfg.l2_prefetch = (1, 0);
        let mut without_pf = h(cfg);
        let mut lat_with = 0;
        let mut lat_without = 0;
        for i in 0..512u64 {
            let a = 0x3000_0000 + i * 64;
            lat_with += with_pf.access(AccessClass::Data, a, false);
            lat_without += without_pf.access(AccessClass::Data, a, false);
        }
        assert!(
            lat_with < lat_without,
            "prefetching must help a streaming pattern ({lat_with} vs {lat_without})"
        );
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut hy = h(HierarchyConfig::default());
        hy.access(AccessClass::Ifetch, 0x40_0000, false);
        hy.access(AccessClass::Ifetch, 0x40_0000, false);
        let s = hy.stats();
        assert_eq!(s.l1i.accesses, 2);
        assert_eq!(s.l1i.misses, 1);
        assert_eq!(s.ifetch_accesses, 2);
    }

    #[test]
    fn access_batch_matches_single_accesses() {
        // One hierarchy driven access-by-access, one by batches of mixed
        // classes: identical latencies and identical statistics.
        let mut single = h(HierarchyConfig::default());
        let mut batched = h(HierarchyConfig::default());
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut reqs = Vec::new();
        let mut lats = Vec::new();
        for round in 0..200u64 {
            reqs.clear();
            for _ in 0..(1 + round % 17) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let req = match x % 5 {
                    0 => AccessReq::read(AccessClass::Ifetch, 0x40_0000 + (x % 8192)),
                    1 => AccessReq::read(AccessClass::Lock, 0x5000_0000 + (x % 512) * 8),
                    2 => AccessReq::write(AccessClass::Data, 0x2000_0000 + (x % 100_000)),
                    3 => AccessReq::read(AccessClass::Shadow, 0x4000_0000_0000 + (x % 65536)),
                    _ => AccessReq::read(AccessClass::Data, 0x2000_0000 + (x % 100_000)),
                };
                let lat = single.access(req.class, req.addr, req.write);
                reqs.push(req);
                lats.push(lat);
            }
            let mut got = Vec::new();
            batched.access_batch(&reqs, &mut got);
            assert_eq!(got, lats, "latencies diverge in round {round}");
            lats.clear();
        }
        assert_eq!(
            format!("{:?}", single.stats()),
            format!("{:?}", batched.stats())
        );
        assert_eq!(single.ll_memo_hits(), batched.ll_memo_hits());
    }

    #[test]
    fn lock_probe_memo_is_exact() {
        // The memo's contract: bit-identical latencies and hit/miss
        // accounting versus the plain (pre-memo) lock path. The reference
        // below *is* that path, reimplemented on raw caches — valid because
        // this stream touches only lock addresses, so L2/L3 see exactly the
        // LL$ misses in both models.
        let cfg = HierarchyConfig::default();
        let mut hy = h(cfg);
        let mut ll = Cache::new(cfg.ll);
        let mut tlb = crate::tlb::Tlb::new(cfg.lltlb_entries);
        let mut l2 = Cache::new(cfg.l2);
        let mut l3 = Cache::new(cfg.l3);
        let mut pf = StreamPrefetcher::new(cfg.l2_prefetch.0, cfg.l2_prefetch.1);
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = match i % 8 {
                // Hot repeats: the memo's bread and butter.
                0..=2 => 0x5000_0000 + (i % 3) * 8,
                // Same-set alternation and > 8-way eviction pressure
                // (4KB/8-way/64B = 8 sets, so stride 512 stays in one set).
                3 => 0x5000_0000 + (x % 16) * 512,
                // TLB pressure: more pages than the 32-entry LL TLB holds.
                4 => 0x6000_0000 + (x % 64) * 4096,
                // General churn over the lock region.
                _ => 0x5000_0000 + (x % 4096) * 8,
            };
            let mut want = cfg.l1_lat;
            if !tlb.access(addr) {
                want += cfg.tlb_miss_penalty;
            }
            if !ll.access(addr) {
                want += cfg.l2_lat;
                if !l2.access(addr) {
                    for &p in pf.on_miss(addr / cfg.l2.block) {
                        l2.prefetch_fill(p * cfg.l2.block);
                        l3.prefetch_fill(p * cfg.l2.block);
                    }
                    want += cfg.l3_lat;
                    if !l3.access(addr) {
                        want += cfg.mem_lat;
                    }
                }
            }
            assert_eq!(
                hy.access(AccessClass::Lock, addr, false),
                want,
                "latency diverges at access {i} (addr {addr:#x})"
            );
        }
        let s = hy.stats();
        let r = ll.stats();
        assert_eq!((s.ll.accesses, s.ll.misses), (r.accesses, r.misses));
        assert_eq!(s.lltlb, tlb.stats());
        assert!(
            hy.ll_memo_hits() > 5_000,
            "memo must fire on the hot repeats ({} hits)",
            hy.ll_memo_hits()
        );
    }

    #[test]
    fn data_path_memo_is_exact() {
        // Same contract as `lock_probe_memo_is_exact`, for the D-TLB page
        // memo and the L1D per-set line memo: bit-identical latencies and
        // counters versus the plain path, reimplemented on raw components.
        // The stream touches only the L1D path (data + shadow classes), so
        // the reference's L2/L3/prefetchers see exactly the same misses.
        let cfg = HierarchyConfig::default();
        let mut hy = h(cfg);
        let mut dtlb = crate::tlb::Tlb::new(cfg.dtlb_entries);
        let mut l1d = Cache::new(cfg.l1d);
        let mut l2 = Cache::new(cfg.l2);
        let mut l3 = Cache::new(cfg.l3);
        let mut l1_pf = StreamPrefetcher::new(cfg.l1_prefetch.0, cfg.l1_prefetch.1);
        let mut l2_pf = StreamPrefetcher::new(cfg.l2_prefetch.0, cfg.l2_prefetch.1);
        let mut x = 0x2545F4914F6CDD1Du64;
        for i in 0..30_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (class, addr) = match i % 8 {
                // Hot same-line repeats (stack-like traffic).
                0..=2 => (AccessClass::Data, 0x7fff_f000 + (i % 2) * 8),
                // Ascending stream: trains the L1 prefetcher, whose fills
                // must invalidate memo entries.
                3 | 4 => (AccessClass::Data, 0x3000_0000 + (i / 8) * 64),
                // Shadow interleave (shares the D-TLB and L1D).
                5 => (AccessClass::Shadow, 0x4000_0000_0000 + (x % 512) * 16),
                // TLB pressure: more pages than the 64-entry D-TLB.
                6 => (AccessClass::Data, 0x2000_0000 + (x % 256) * 4096),
                // Same-set churn (stride = sets × block).
                _ => (AccessClass::Data, 0x2000_0000 + (x % 24) * 64 * 64),
            };
            let mut want = cfg.l1_lat;
            if !dtlb.access(addr) {
                want += cfg.tlb_miss_penalty;
            }
            if !l1d.access(addr) {
                want += cfg.l2_lat;
                if !l2.access(addr) {
                    for &p in l2_pf.on_miss(addr / cfg.l2.block) {
                        l2.prefetch_fill(p * cfg.l2.block);
                        l3.prefetch_fill(p * cfg.l2.block);
                    }
                    want += cfg.l3_lat;
                    if !l3.access(addr) {
                        want += cfg.mem_lat;
                    }
                }
                for &p in l1_pf.on_miss(addr / cfg.l1d.block) {
                    l1d.prefetch_fill(p * cfg.l1d.block);
                    l2.prefetch_fill(p * cfg.l1d.block);
                    l3.prefetch_fill(p * cfg.l1d.block);
                }
            }
            assert_eq!(
                hy.access(class, addr, false),
                want,
                "latency diverges at access {i} (addr {addr:#x})"
            );
        }
        let s = hy.stats();
        let r = l1d.stats();
        assert_eq!(
            (s.l1d.accesses, s.l1d.misses, s.l1d.prefetch_fills),
            (r.accesses, r.misses, r.prefetch_fills)
        );
        assert_eq!(s.dtlb, dtlb.stats());
        let r2 = l2.stats();
        assert_eq!((s.l2.accesses, s.l2.misses), (r2.accesses, r2.misses));
    }

    #[test]
    fn access_outcome_tracks_miss_paths() {
        let mut hy = h(HierarchyConfig::default());
        // Cold data access: D-TLB and L1D both miss.
        hy.access(AccessClass::Data, 0x2000_0000, false);
        assert_eq!(
            hy.last_outcome(),
            AccessOutcome {
                tlb_miss: true,
                l1_miss: true,
                lock_path: false
            }
        );
        // Warm repeat (memo fast path): everything hits.
        hy.access(AccessClass::Data, 0x2000_0000, false);
        assert_eq!(hy.last_outcome(), AccessOutcome::default());
        // Cold lock access rides the dedicated LL$ path.
        hy.access(AccessClass::Lock, 0x5000_0000, false);
        assert_eq!(
            hy.last_outcome(),
            AccessOutcome {
                tlb_miss: true,
                l1_miss: true,
                lock_path: true
            }
        );
        // Hot lock repeat takes the memo and stays on the lock path.
        hy.access(AccessClass::Lock, 0x5000_0000, false);
        assert_eq!(
            hy.last_outcome(),
            AccessOutcome {
                tlb_miss: false,
                l1_miss: false,
                lock_path: true
            }
        );
        // Ideal shadow never misses.
        let mut ideal = h(HierarchyConfig {
            ideal_shadow: true,
            ..Default::default()
        });
        ideal.access(AccessClass::Shadow, 0x4000_0000_0000, false);
        assert_eq!(ideal.last_outcome(), AccessOutcome::default());
    }

    #[test]
    fn route_table_covers_every_knob_combination() {
        // The precomputed table must agree with the knob semantics for all
        // four (lock_cache, ideal_shadow) combinations: which first-level
        // structure each class's traffic lands in.
        for (lock_cache, ideal_shadow) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let mut hy = h(HierarchyConfig {
                lock_cache,
                ideal_shadow,
                ..Default::default()
            });
            hy.access(AccessClass::Data, 0x2000_0000, false);
            hy.access(AccessClass::Shadow, 0x4000_0000_0000, false);
            hy.access(AccessClass::Lock, 0x5000_0000, false);
            hy.access(AccessClass::Ifetch, 0x40_0000, false);
            let s = hy.stats();
            let label = format!("lock_cache={lock_cache} ideal_shadow={ideal_shadow}");
            assert_eq!(s.l1i.accesses, 1, "{label}: ifetch routes to L1I");
            assert_eq!(
                s.ll.accesses,
                u64::from(lock_cache),
                "{label}: lock routes to the LL$ iff enabled"
            );
            let expect_l1d = 1 + u64::from(!ideal_shadow) + u64::from(!lock_cache);
            assert_eq!(
                s.l1d.accesses, expect_l1d,
                "{label}: data plus fallback shadow/lock traffic lands in L1D"
            );
        }
    }

    #[test]
    fn ll_mpk_metric() {
        let mut hy = h(HierarchyConfig::default());
        hy.access(AccessClass::Lock, 0x5000_0000, false);
        let s = hy.stats();
        assert!(s.ll_mpk(1000) > 0.0);
        assert_eq!(s.ll_mpk(0), 0.0);
    }
}
