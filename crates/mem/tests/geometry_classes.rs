//! `GeometryClasses` against its spec: per geometry, the full vector of
//! miss positions over the stream, with geometries grouped by equality of
//! those vectors.

use proptest::prelude::*;
use watchdog_mem::{Cache, CacheConfig, GeometryClasses};

/// The spec: each geometry's miss positions on `stream`, grouped by
/// equality and numbered in order of first appearance.
fn spec_classes(geometries: &[CacheConfig], stream: &[u64]) -> Vec<usize> {
    let misses: Vec<Vec<usize>> = geometries
        .iter()
        .map(|&g| {
            let mut cache = Cache::new(g);
            (0..stream.len())
                .filter(|&i| !cache.access(stream[i]))
                .collect()
        })
        .collect();
    // Each class's miss positions, in order of first appearance.
    let mut seen: Vec<&Vec<usize>> = Vec::new();
    misses
        .iter()
        .map(|m| match seen.iter().position(|&s| s == m) {
            Some(class) => class,
            None => {
                seen.push(m);
                seen.len() - 1
            }
        })
        .collect()
}

fn partition(geometries: &[CacheConfig], stream: &[u64]) -> GeometryClasses {
    let mut classes = GeometryClasses::new(geometries);
    for &addr in stream {
        classes.access(addr);
    }
    classes
}

/// Geometries from 16 B to 16 KB, 1–16 ways, 16–128 B blocks.
fn geometries() -> impl Strategy<Value = Vec<CacheConfig>> {
    proptest::collection::vec(
        (4u32..15, 0u32..5, 4u32..8).prop_map(|(size, ways, block)| {
            let (ways, block) = (1u64 << ways, 1u64 << block);
            CacheConfig::new((1u64 << size).max(ways * block), ways, block)
        }),
        0..8,
    )
}

/// Lock-location-like streams: a hot set of a few words and a cold
/// region wide enough to thrash the small geometries.
fn stream() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u8..4, 0u64..4096).prop_map(|(kind, x)| match kind {
            0 => 0x5000_0000 + (x % 16) * 8,
            _ => 0x5000_0000 + x * 8,
        }),
        0..300,
    )
}

proptest! {
    #[test]
    fn classes_match_the_miss_position_spec(gs in geometries(), s in stream()) {
        prop_assert_eq!(partition(&gs, &s).classes(), spec_classes(&gs, &s));
    }
}

#[test]
fn equal_miss_counts_at_different_positions_are_different_classes() {
    // One fully associative 2-way set vs. two direct-mapped sets. Lines
    // A, B, C, D (0, 64, 128, 192) map to sets 0, 1, 0, 1 of the second.
    let geometries = [CacheConfig::new(128, 2, 64), CacheConfig::new(128, 1, 64)];
    let (a, b, c, d) = (0, 64, 128, 192);
    let stream = [a, b, d, a, c, a];
    let misses: Vec<(u64, Vec<usize>)> = geometries
        .iter()
        .map(|&g| {
            let mut cache = Cache::new(g);
            let at = (0..stream.len())
                .filter(|&i| !cache.access(stream[i]))
                .collect();
            (cache.stats().misses, at)
        })
        .collect();
    assert_eq!(misses[0], (5, vec![0, 1, 2, 3, 4]));
    assert_eq!(misses[1], (5, vec![0, 1, 2, 4, 5]));
    let classes = partition(&geometries, &stream);
    assert_eq!(classes.classes(), vec![0, 1]);
    assert_eq!(spec_classes(&geometries, &stream), vec![0, 1]);
}

#[test]
fn equal_geometries_and_empty_streams_stay_together() {
    let g = [
        CacheConfig::new(1024, 2, 64),
        CacheConfig::new(16 * 1024, 16, 64),
        CacheConfig::new(1024, 2, 64),
    ];
    assert_eq!(partition(&g, &[]).classes(), vec![0, 0, 0]);
    let thrash: Vec<u64> = (0..4).flat_map(|_| (0..64).map(|i| i * 64)).collect();
    assert_eq!(partition(&g, &thrash).classes(), vec![0, 1, 0]);
    assert!(partition(&[], &thrash).classes().is_empty());
}
