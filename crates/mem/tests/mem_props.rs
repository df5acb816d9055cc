//! Property tests on the memory subsystem.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use watchdog_isa::layout::{
    self, CODE_BASE, GLOBAL_BASE, GLOBAL_LOCK_ADDR, HEAP_BASE, HEAP_LOCK_BASE, SHADOW_BASE,
    STACK_LOCK_BASE, STACK_LOCK_SIZE,
};
use watchdog_mem::{Cache, CacheConfig, Footprint, GuestMem, MetaRecord, ShadowSpace};

/// One step of a guest-memory access stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read { addr: u64, len: u64 },
    Write { addr: u64, len: u64, value: u64 },
    Track(bool),
}

/// Addresses where the paging and footprint rules have edges: a heap page
/// boundary, the page heap data shares with the global and invalid lock
/// locations (and the heap-lock region right after it), the end of the
/// stack-lock region, the code/globals boundary, code, the start of the
/// shadow space, and the top of the address space (accesses wrap to 0).
const EDGES: [u64; 8] = [
    HEAP_BASE + 4096,
    GLOBAL_LOCK_ADDR,
    HEAP_LOCK_BASE,
    STACK_LOCK_BASE + STACK_LOCK_SIZE,
    GLOBAL_BASE,
    CODE_BASE + 64,
    SHADOW_BASE,
    0, // wraps: covers u64::MAX - 11 ..= 11
];

/// Random access streams aimed within 12 bytes of an [`EDGES`] entry, with
/// widths 1–8 and occasional tracking toggles.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0usize..EDGES.len(),
            0u64..24,
            1u64..9,
            0u8..20,
            any::<u64>(),
        )
            .prop_map(|(edge, off, len, kind, value)| {
                let addr = EDGES[edge].wrapping_sub(12).wrapping_add(off);
                match kind {
                    0..=9 => Op::Write { addr, len, value },
                    10..=18 => Op::Read { addr, len },
                    _ => Op::Track(value & 1 == 1),
                }
            }),
        1..200,
    )
}

/// The footprint class an access starting at `addr` counts in (`0` data,
/// `1` shadow, `2` lock), or `None` for code.
fn model_class(addr: u64) -> Option<usize> {
    if layout::is_shadow(addr) {
        Some(1)
    } else if layout::is_lock_region(addr) {
        Some(2)
    } else if addr >= GLOBAL_BASE {
        Some(0)
    } else {
        None
    }
}

/// Guest memory as ordered collections: bytes, and per class the words of
/// every tracked access and the page each one started in. No hasher, so
/// agreement also shows the footprint does not depend on one.
#[derive(Default)]
struct Model {
    bytes: BTreeMap<u64, u8>,
    words: [BTreeSet<u64>; 3],
    pages: [BTreeSet<u64>; 3],
    untracked: bool,
}

impl Model {
    fn touch(&mut self, addr: u64, len: u64) {
        let Some(c) = model_class(addr).filter(|_| !self.untracked) else {
            return;
        };
        self.pages[c].insert(addr >> 12);
        for i in 0..len {
            self.words[c].insert(addr.wrapping_add(i) >> 3);
        }
    }

    fn read(&mut self, addr: u64, len: u64) -> u64 {
        self.touch(addr, len);
        (0..len).fold(0, |v, i| {
            let byte = self.bytes.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | u64::from(byte) << (8 * i)
        })
    }

    fn write(&mut self, addr: u64, len: u64, value: u64) {
        self.touch(addr, len);
        for i in 0..len {
            self.bytes
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    fn footprint(&self) -> Footprint {
        let n = |s: &BTreeSet<u64>| s.len() as u64;
        Footprint {
            data_words: n(&self.words[0]),
            shadow_words: n(&self.words[1]),
            lock_words: n(&self.words[2]),
            data_pages: n(&self.pages[0]),
            shadow_pages: n(&self.pages[1]),
            lock_pages: n(&self.pages[2]),
        }
    }
}

proptest! {
    /// `GuestMem` agrees with the ordered reference model on every value
    /// read and on the footprint after every step, across page-straddling,
    /// region-crossing and wrapping accesses.
    #[test]
    fn guest_mem_matches_the_ordered_model(stream in ops()) {
        let mut m = GuestMem::new();
        let mut model = Model::default();
        for op in stream {
            match op {
                Op::Read { addr, len } => {
                    prop_assert_eq!(m.read(addr, len), model.read(addr, len), "{:?}", op);
                }
                Op::Write { addr, len, value } => {
                    m.write(addr, len, value);
                    model.write(addr, len, value);
                }
                Op::Track(on) => {
                    m.set_tracking(on);
                    model.untracked = !on;
                }
            }
            prop_assert_eq!(m.footprint(), model.footprint(), "after {:?}", op);
        }
        for (&addr, &byte) in &model.bytes {
            prop_assert_eq!(m.read(addr, 1) as u8, byte);
        }
    }

    /// Memory is a map: the last write to an address wins, regardless of
    /// overlapping widths and ordering elsewhere.
    #[test]
    fn last_write_wins(
        writes in proptest::collection::vec((0x2000_0000u64..0x2000_2000, 1u64..9, any::<u64>()), 1..60)
    ) {
        let mut m = GuestMem::new();
        let mut model: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for (addr, len, val) in &writes {
            let len = (*len).clamp(1, 8);
            m.write(*addr, len, *val);
            for i in 0..len {
                model.insert(addr + i, (val >> (8 * i)) as u8);
            }
        }
        for (addr, byte) in model {
            prop_assert_eq!(m.read(addr, 1) as u8, byte);
        }
    }

    /// Shadow records round-trip for any key/lock/base/bound and any
    /// word-aligned address, in both record widths.
    #[test]
    fn shadow_records_round_trip(
        addr in (0u64..0x7000_0000).prop_map(|a| a & !7),
        key in 1u64.., lock in any::<u64>(), base in any::<u64>(), bound in any::<u64>(),
    ) {
        let mut m = GuestMem::new();
        let s = ShadowSpace::with_bounds();
        let rec = MetaRecord::with_bounds(key, lock, base, bound);
        s.store(&mut m, addr, rec);
        prop_assert_eq!(s.load(&mut m, addr), rec);
        let s2 = ShadowSpace::ident_only();
        s2.store(&mut m, addr, rec);
        let got = s2.load(&mut m, addr);
        prop_assert_eq!(got.key, key);
        prop_assert_eq!(got.lock, lock);
    }

    /// A cache never reports a hit for a block it was never given, and
    /// always hits a block accessed twice in a row.
    #[test]
    fn cache_soundness(accesses in proptest::collection::vec(0u64..0x10_0000, 1..200)) {
        let mut c = Cache::new(CacheConfig::new(4096, 4, 64));
        let mut seen = std::collections::HashSet::new();
        for a in &accesses {
            let hit = c.access(*a);
            if hit {
                prop_assert!(seen.contains(&(a / 64)), "hit on never-seen block {a:#x}");
            }
            seen.insert(a / 64);
            prop_assert!(c.probe(*a), "just-accessed block must be resident");
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, accesses.len() as u64);
        prop_assert!(s.misses <= s.accesses);
    }

    /// Footprint word counts equal the number of distinct words touched.
    #[test]
    fn footprint_counts_distinct_words(
        addrs in proptest::collection::vec((0x2000_0000u64..0x2000_4000).prop_map(|a| a & !7), 1..100)
    ) {
        let mut m = GuestMem::new();
        for a in &addrs {
            m.write_u64(*a, 1);
        }
        let distinct: std::collections::HashSet<u64> = addrs.iter().map(|a| a >> 3).collect();
        prop_assert_eq!(m.footprint().data_words, distinct.len() as u64);
    }
}
