//! Structured telemetry for the Watchdog reproduction: a preallocated
//! metrics registry, power-of-two histograms, hierarchical section
//! timers and a dependency-free JSON layer.
//!
//! The design follows two hard rules the rest of the workspace imposes:
//!
//! 1. **Out-of-band from [`RunReport`]** — every equivalence suite
//!    (`trace_equivalence`, the golden corpus)
//!    compares `RunReport`s byte-for-byte across live / replayed /
//!    sampled feeds, and telemetry legitimately *differs* between feeds
//!    (batch counts, host timings, profile samples). Metrics therefore
//!    live in a separate [`MetricsRegistry`] carried next to — never
//!    inside — the report.
//! 2. **No steady-state allocation** — `tests/alloc_discipline.rs` pins
//!    the timed hot loop to zero allocations *with recording enabled*.
//!    A registry allocates only while metrics are being **registered**
//!    (returning dense [`MetricId`] handles); recording through a handle
//!    is an array write. [`Histogram`] is a fixed inline array, and the
//!    pipeline's self-profiler preallocates everything at construction.
//!
//! [`RunReport`]: https://docs.rs/watchdog-core

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod hist;
pub mod json;
pub mod sections;

pub use bench::{BenchRecord, BenchSnapshot, BENCH_SCHEMA};
pub use hist::Histogram;
pub use json::JsonValue;
pub use sections::SectionTimers;

use std::fmt::Write as _;

/// Dense handle to one registered metric. Obtained from the registration
/// calls on [`MetricsRegistry`]; recording through it is a bounds-checked
/// array write with no lookup and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

/// Unit tag rendered alongside a metric in human output and kept in the
/// JSON export so downstream tooling does not have to guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Plain event count.
    Count,
    /// Simulated core cycles.
    Cycles,
    /// Host nanoseconds.
    Nanos,
    /// Dimensionless ratio in `[0, 1]`.
    Ratio,
    /// Events per thousand instructions (e.g. misses per kilo-inst).
    PerKilo,
    /// Rate per host nanosecond (e.g. simulated cycles per host ns).
    PerNano,
    /// Bytes.
    Bytes,
}

impl Unit {
    /// Short lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Cycles => "cycles",
            Unit::Nanos => "ns",
            Unit::Ratio => "ratio",
            Unit::PerKilo => "per_kinst",
            Unit::PerNano => "per_ns",
            Unit::Bytes => "bytes",
        }
    }
}

/// One metric's value storage.
#[derive(Debug, Clone)]
enum Slot {
    Counter(u64),
    Gauge(f64),
    Hist(Box<Histogram>),
}

/// A read-only view of one registered metric, yielded by
/// [`MetricsRegistry::iter`] in registration order (which is therefore
/// the rendering order of both the human and the JSON output).
#[derive(Debug)]
pub struct MetricView<'a> {
    /// Dotted metric path, e.g. `cache.ll.misses`.
    pub name: &'a str,
    /// Unit tag supplied at registration.
    pub unit: Unit,
    /// Counter value, if this metric is a counter.
    pub counter: Option<u64>,
    /// Gauge value, if this metric is a gauge.
    pub gauge: Option<f64>,
    /// Histogram contents, if this metric is a histogram.
    pub hist: Option<&'a Histogram>,
}

/// Preallocated registry of named counters, gauges and histograms.
///
/// Registration (`counter` / `gauge` / `histogram`) allocates and
/// returns a [`MetricId`]; recording (`add` / `set` / `observe`) never
/// allocates. Names are dotted paths (`timing.cycles`,
/// `profile.occupancy.rob`) and must be unique — re-registering a name
/// panics, because it is always a plumbing bug.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    names: Vec<String>,
    units: Vec<Unit>,
    slots: Vec<Slot>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &str, unit: Unit, slot: Slot) -> MetricId {
        assert!(
            !self.names.iter().any(|n| n == name),
            "metric {name:?} registered twice"
        );
        let id = MetricId(u32::try_from(self.names.len()).expect("metric count fits u32"));
        self.names.push(name.to_string());
        self.units.push(unit);
        self.slots.push(slot);
        id
    }

    /// Registers a `u64` counter starting at zero.
    pub fn counter(&mut self, name: &str, unit: Unit) -> MetricId {
        self.register(name, unit, Slot::Counter(0))
    }

    /// Registers a counter with an initial value — the common shape when
    /// the registry is built once, after a run, from already-final
    /// statistics.
    pub fn counter_at(&mut self, name: &str, unit: Unit, value: u64) -> MetricId {
        self.register(name, unit, Slot::Counter(value))
    }

    /// Registers an `f64` gauge starting at zero.
    pub fn gauge(&mut self, name: &str, unit: Unit) -> MetricId {
        self.register(name, unit, Slot::Gauge(0.0))
    }

    /// Registers a gauge with an initial value.
    pub fn gauge_at(&mut self, name: &str, unit: Unit, value: f64) -> MetricId {
        self.register(name, unit, Slot::Gauge(value))
    }

    /// Registers an empty power-of-two [`Histogram`].
    pub fn histogram(&mut self, name: &str, unit: Unit) -> MetricId {
        self.register(name, unit, Slot::Hist(Box::default()))
    }

    /// Registers a histogram with already-accumulated contents (cloned).
    pub fn histogram_at(&mut self, name: &str, unit: Unit, hist: &Histogram) -> MetricId {
        self.register(name, unit, Slot::Hist(Box::new(hist.clone())))
    }

    /// Adds `n` to a counter. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a counter.
    pub fn add(&mut self, id: MetricId, n: u64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Counter(c) => *c += n,
            _ => panic!("metric {:?} is not a counter", self.names[id.0 as usize]),
        }
    }

    /// Sets a gauge. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a gauge.
    pub fn set(&mut self, id: MetricId, v: f64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Gauge(g) => *g = v,
            _ => panic!("metric {:?} is not a gauge", self.names[id.0 as usize]),
        }
    }

    /// Records one sample into a histogram. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a histogram.
    pub fn observe(&mut self, id: MetricId, v: u64) {
        match &mut self.slots[id.0 as usize] {
            Slot::Hist(h) => h.observe(v),
            _ => panic!("metric {:?} is not a histogram", self.names[id.0 as usize]),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks a counter up by name — the read side used by the
    /// cross-check tests and by renderers that want one specific value.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.index_of(name).and_then(|i| match &self.slots[i] {
            Slot::Counter(c) => Some(*c),
            _ => None,
        })
    }

    /// Looks a gauge up by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.index_of(name).and_then(|i| match &self.slots[i] {
            Slot::Gauge(g) => Some(*g),
            _ => None,
        })
    }

    /// Looks a histogram up by name.
    pub fn hist_value(&self, name: &str) -> Option<&Histogram> {
        self.index_of(name).and_then(|i| match &self.slots[i] {
            Slot::Hist(h) => Some(&**h),
            _ => None,
        })
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Re-registers every metric of `other` into `self`, preserving
    /// `other`'s registration order and values. This is how a run-level
    /// registry folds in sub-registries exported by components that were
    /// consumed before export time (e.g. the timing core).
    ///
    /// # Panics
    ///
    /// Panics if any name in `other` is already registered here — merged
    /// namespaces are expected to be disjoint by construction.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for i in 0..other.names.len() {
            self.register(&other.names[i], other.units[i], other.slots[i].clone());
        }
    }

    /// Iterates metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = MetricView<'_>> {
        self.names.iter().enumerate().map(|(i, name)| {
            let (counter, gauge, hist) = match &self.slots[i] {
                Slot::Counter(c) => (Some(*c), None, None),
                Slot::Gauge(g) => (None, Some(*g), None),
                Slot::Hist(h) => (None, None, Some(&**h)),
            };
            MetricView {
                name,
                unit: self.units[i],
                counter,
                gauge,
                hist,
            }
        })
    }

    /// Renders the registry as one stable JSON object: metric path →
    /// value. Counters render as integers, gauges as floats, histograms
    /// as `{count, sum, min, max, mean, p50, p90, p99}` summary objects.
    /// Key order is registration order.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = Vec::with_capacity(self.len());
        for m in self.iter() {
            let v = if let Some(c) = m.counter {
                JsonValue::Int(c)
            } else if let Some(g) = m.gauge {
                JsonValue::Num(g)
            } else if let Some(h) = m.hist {
                h.to_json()
            } else {
                unreachable!("metric has exactly one storage kind")
            };
            obj.push((m.name.to_string(), v));
        }
        JsonValue::Obj(obj)
    }

    /// The unit of every metric as one JSON object: metric path → unit
    /// label, in the same key order as [`MetricsRegistry::to_json`].
    pub fn units_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.iter()
                .map(|m| (m.name.to_string(), JsonValue::str(m.unit.label())))
                .collect(),
        )
    }

    /// Renders the registry for human eyes: one `name value [unit]` line
    /// per metric, histograms summarized. Used by `watchdog-cli run
    /// --telemetry`-style output and by the diagnostics binary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for m in self.iter() {
            if let Some(c) = m.counter {
                let _ = writeln!(out, "  {:<34} {:>16} {}", m.name, c, m.unit.label());
            } else if let Some(g) = m.gauge {
                let _ = writeln!(out, "  {:<34} {:>16.3} {}", m.name, g, m.unit.label());
            } else if let Some(h) = m.hist {
                let (p50, p90, p99) = h.quantiles();
                let _ = writeln!(
                    out,
                    "  {:<34} n={} mean={:.1} p50={} p90={} p99={} max={}",
                    m.name,
                    h.count(),
                    h.mean(),
                    p50,
                    p90,
                    p99,
                    h.max()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip_by_name() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a.count", Unit::Count);
        let g = reg.gauge("a.rate", Unit::PerNano);
        let h = reg.histogram("a.occ", Unit::Count);
        reg.add(c, 41);
        reg.add(c, 1);
        reg.set(g, 2.5);
        for v in [1, 2, 3, 4] {
            reg.observe(h, v);
        }
        assert_eq!(reg.counter_value("a.count"), Some(42));
        assert_eq!(reg.gauge_value("a.rate"), Some(2.5));
        assert_eq!(reg.hist_value("a.occ").unwrap().count(), 4);
        assert_eq!(reg.counter_value("missing"), None);
        assert_eq!(reg.counter_value("a.rate"), None, "wrong kind is None");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x", Unit::Count);
        reg.counter("x", Unit::Count);
    }

    #[test]
    fn recording_does_not_allocate_storage() {
        // The structural guarantee behind tests/alloc_discipline.rs:
        // after registration the vectors never grow.
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c", Unit::Count);
        let h = reg.histogram("h", Unit::Cycles);
        let before = reg.slots.capacity();
        for i in 0..10_000 {
            reg.add(c, 1);
            reg.observe(h, i);
        }
        assert_eq!(reg.slots.capacity(), before);
        assert_eq!(reg.counter_value("c"), Some(10_000));
    }

    #[test]
    fn json_rendering_is_stable_and_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.counter_at("b.second", Unit::Count, 7);
        reg.gauge_at("a.first", Unit::Ratio, 0.5);
        let json = reg.to_json().render();
        // Registration order, not alphabetical.
        let b = json.find("b.second").unwrap();
        let a = json.find("a.first").unwrap();
        assert!(b < a);
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(parsed.get("b.second").and_then(JsonValue::as_u64), Some(7));
    }
}
