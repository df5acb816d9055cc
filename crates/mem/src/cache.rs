//! Set-associative caches with LRU replacement.
//!
//! Timing in the hierarchy is hit/miss-driven; these caches track tags and
//! recency only (simulating data contents is the job of [`crate::vm`]).
//!
//! The lookup path is structured for the host, not the guest: tags,
//! recency stamps and validity live in separate arrays (the 8 tags of an
//! 8-way set share one host cache line), and the way match is a
//! fixed-trip, branch-free mask accumulation — the only data-dependent
//! branch per lookup is the final hit/miss decision. The LRU victim scan
//! runs on the miss path only.

use crate::config::ConfigError;

/// Largest cache block, in bytes: one 4 KB page.
const MAX_BLOCK: u64 = 4096;

/// Most lines one cache may hold (Table 2's 16 MB L3 holds 2^18). The
/// line state is allocated up front, 16 bytes per line.
const MAX_CACHE_LINES: u64 = 1 << 20;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Block (line) size in bytes.
    pub block: u64,
}

impl CacheConfig {
    /// Builds a geometry.
    ///
    /// # Panics
    ///
    /// Panics when [`CacheConfig::validate`] rejects it.
    pub fn new(size: u64, ways: u64, block: u64) -> Self {
        let cfg = CacheConfig { size, ways, block };
        if let Err(e) = cfg.validate(["size", "ways", "block"]) {
            panic!("cache geometry needs powers of two, at least one set and at most 16 ways: {e}");
        }
        cfg
    }

    /// Checks that `size`, `ways` and `block` are powers of two with at
    /// least one set and at most 16 ways (validity masks are `u16`), a
    /// block of at most one 4 KB page, and at most 2^20 lines (all
    /// allocated up front). `fields` names `size`, `ways` and `block` in
    /// the error.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first offending field.
    pub fn validate(&self, [size, ways, block]: [&'static str; 3]) -> Result<(), ConfigError> {
        ConfigError::check_pow2(block, self.block)?;
        ConfigError::check_range(block, self.block, 1, MAX_BLOCK)?;
        ConfigError::check_pow2(ways, self.ways)?;
        ConfigError::check_range(ways, self.ways, 1, 16)?;
        ConfigError::check_pow2(size, self.size)?;
        ConfigError::check_range(
            size,
            self.size,
            self.ways * self.block,
            self.block * MAX_CACHE_LINES,
        )
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.ways * self.block)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total demand accesses.
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Blocks installed by the prefetcher.
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, write-allocate cache with true-LRU replacement.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    // Set-index math hoisted out of the access path: geometry is
    // power-of-two (asserted by `CacheConfig::new`), so the per-access
    // block/set/tag divisions reduce to precomputed shifts and masks.
    block_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    ways: usize,
    // Line state, struct-of-arrays (indexed `set * ways + way`): one tag
    // load per way on the match path, recency touched only on hit/install,
    // validity one mask word per set.
    tags: Box<[u64]>,
    lru: Box<[u64]>,
    valid: Box<[u16]>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        let n = (cfg.sets() * cfg.ways) as usize;
        let block_shift = cfg.block.trailing_zeros();
        let set_bits = cfg.sets().trailing_zeros();
        Cache {
            cfg,
            block_shift,
            set_mask: cfg.sets() - 1,
            tag_shift: block_shift + set_bits,
            ways: cfg.ways as usize,
            tags: vec![0; n].into_boxed_slice(),
            lru: vec![0; n].into_boxed_slice(),
            valid: vec![0; cfg.sets() as usize].into_boxed_slice(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.block_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Valid ways of `set` whose tag equals `tag`, as a way bitmask.
    /// Branch-free: the trip count is the (perfectly predicted)
    /// associativity, the body is compare-and-accumulate.
    #[inline]
    fn match_mask(&self, set: usize, tag: u64) -> u16 {
        let lo = set * self.ways;
        let mut mask = 0u16;
        for w in 0..self.ways {
            mask |= u16::from(self.tags[lo + w] == tag) << w;
        }
        mask & self.valid[set]
    }

    /// Demand access: returns `true` on hit. On miss the block is installed
    /// (write-allocate), evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        self.clock += 1;
        let tag = self.tag(addr);
        let set = self.set_of(addr);
        let mask = self.match_mask(set, tag);
        if mask != 0 {
            self.lru[set * self.ways + mask.trailing_zeros() as usize] = self.clock;
            return true;
        }
        self.stats.misses += 1;
        self.install(set, tag);
        false
    }

    /// Accounts a demand hit to the line accessed **immediately before**
    /// in this cache, without touching replacement state.
    ///
    /// Callers must guarantee the repeat invariant (see
    /// [`Hierarchy`](crate::Hierarchy)'s lock-probe memo): the line is
    /// resident and already the most-recently-used way of its set. Under
    /// that invariant the outcome is identical to [`Cache::access`] — the
    /// lookup would hit, and re-stamping the set's MRU way changes no
    /// relative LRU order (stamps are only ever compared within a set, and
    /// the global clock stays monotonic whether or not it ticks here).
    pub fn repeat_hit(&mut self) {
        self.stats.accesses += 1;
    }

    /// Non-allocating lookup (no stats, no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        self.match_mask(self.set_of(addr), self.tag(addr)) != 0
    }

    /// Installs a block without counting a demand access (prefetch fill).
    pub fn prefetch_fill(&mut self, addr: u64) {
        let tag = self.tag(addr);
        let set = self.set_of(addr);
        if self.match_mask(set, tag) != 0 {
            return;
        }
        self.clock += 1;
        self.stats.prefetch_fills += 1;
        self.install(set, tag);
    }

    fn install(&mut self, set: usize, tag: u64) {
        let lo = set * self.ways;
        let vmask = self.valid[set];
        let victim = if vmask != u16::MAX >> (16 - self.ways) {
            // An invalid way exists: lowest-index first, as the AoS
            // implementation's `min_by_key` with key 0 chose.
            (!vmask).trailing_zeros() as usize
        } else {
            let mut best = 0;
            let mut best_lru = self.lru[lo];
            for w in 1..self.ways {
                let t = self.lru[lo + w];
                let better = t < best_lru;
                best = if better { w } else { best };
                best_lru = if better { t } else { best_lru };
            }
            best
        };
        self.tags[lo + victim] = tag;
        self.lru[lo + victim] = self.clock;
        self.valid[set] = vmask | (1 << victim);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Groups cache geometries by their behaviour on one access stream: two
/// geometries share a class exactly when they hit and miss identically on
/// every access fed so far, in order.
///
/// One [`Cache`] per geometry runs over the stream (one pass, many
/// configurations, as in Mattson et al.'s stack evaluation), and the
/// partition is refined online after each access: O(geometries) state, no
/// hashing. Once every geometry is alone in its class, further accesses
/// are no-ops.
#[derive(Debug)]
pub struct GeometryClasses {
    caches: Vec<Cache>,
    // Class of each geometry. Ids are dense, but only `classes()` numbers
    // them in order of first appearance.
    class: Vec<usize>,
    count: usize,
    // Per-access scratch, indexed by class: the hit bit of the class's
    // first geometry, and the class its disagreeing geometries move to.
    first_hit: Vec<Option<bool>>,
    split_to: Vec<Option<usize>>,
}

impl GeometryClasses {
    /// All of `geometries` in one class, before any access.
    pub fn new(geometries: &[CacheConfig]) -> Self {
        GeometryClasses {
            caches: geometries.iter().map(|&g| Cache::new(g)).collect(),
            class: vec![0; geometries.len()],
            count: usize::from(!geometries.is_empty()),
            first_hit: Vec::new(),
            split_to: Vec::new(),
        }
    }

    /// Feeds one access to every geometry and splits each class whose
    /// geometries disagree on hit or miss.
    pub fn access(&mut self, addr: u64) {
        if self.count == self.caches.len() {
            return;
        }
        self.first_hit.clear();
        self.first_hit.resize(self.count, None);
        self.split_to.clear();
        self.split_to.resize(self.count, None);
        for (cache, class) in self.caches.iter_mut().zip(&mut self.class) {
            let hit = cache.access(addr);
            let c = *class;
            match self.first_hit[c] {
                None => self.first_hit[c] = Some(hit),
                Some(first) if first == hit => {}
                Some(_) => {
                    *class = *self.split_to[c].get_or_insert_with(|| {
                        self.count += 1;
                        self.count - 1
                    });
                }
            }
        }
    }

    /// The class of each geometry, in the order given to
    /// [`GeometryClasses::new`], numbered in order of first appearance.
    pub fn classes(&self) -> Vec<usize> {
        let mut renumber = vec![None; self.count];
        let mut next = 0;
        self.class
            .iter()
            .map(|&c| {
                *renumber[c].get_or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64B blocks → 256 bytes.
        Cache::new(CacheConfig::new(256, 2, 64))
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::new(4096, 8, 64);
        assert_eq!(cfg.sets(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn degenerate_geometry_panics() {
        let _ = CacheConfig::new(64, 2, 64);
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same 64B block");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three blocks mapping to set 0 (block addresses multiples of 128).
        c.access(0x0000);
        c.access(0x0080);
        c.access(0x0000); // refresh first
        c.access(0x0100); // evicts 0x0080 (LRU)
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0080));
        assert!(c.probe(0x0100));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0x0000); // set 0
        c.access(0x0040); // set 1
        assert!(c.probe(0x0000) && c.probe(0x0040));
    }

    #[test]
    fn prefetch_fill_counts_separately() {
        let mut c = tiny();
        c.prefetch_fill(0x2000);
        assert!(c.probe(0x2000));
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(0x2000), "prefetched block hits");
        // Filling a resident block is a no-op.
        c.prefetch_fill(0x2000);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        c.access(0x0);
        c.access(0x0);
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn invalid_ways_fill_lowest_index_first() {
        // 1 set, 4 ways: cold fills must occupy ways 0,1,2,3 in order
        // (matching the AoS reference), then eviction follows true LRU.
        let mut c = Cache::new(CacheConfig::new(256, 4, 64));
        for i in 0..4u64 {
            c.access(i * 64);
        }
        for i in 0..4u64 {
            assert!(c.probe(i * 64), "block {i} resident after cold fills");
        }
        c.access(0); // refresh block 0
        c.access(4 * 64); // evicts block 1 (LRU)
        assert!(c.probe(0) && !c.probe(64) && c.probe(4 * 64));
    }
}
