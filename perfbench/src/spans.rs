//! In-memory spans for the traced run.
//!
//! Spans are taken in the benchmark's own code, around each call into a
//! layer's public API, and kept in memory until the run ends. A cell of a
//! traced pass is one span with its start and end; the layer calls it
//! makes are its children, aggregated per layer (time, calls and units of
//! work) so a cell with thousands of batch fills stays one record.

use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Building the workload's input programs (`watchdog_workloads`).
    Build,
    /// A functional-only `Simulator::run`.
    Functional,
    /// `Simulator::profile`, the §5.2 profiling pass.
    Profile,
    /// `Machine::new`.
    MachineNew,
    /// `Machine::step_batched` calls filling one batch.
    Fill,
    /// `ScheduledCore::new`.
    CoreNew,
    /// `ScheduledCore::consume_batch`.
    Consume,
    /// `ScheduledCore::finish`, which also drops the core.
    Finish,
    /// `watchdog_trace::record`.
    Record,
    /// `watchdog_trace::replay`.
    Replay,
    /// `watchdog_campaign::run_campaign`.
    Campaign,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 11] = [
        Layer::Build,
        Layer::Functional,
        Layer::Profile,
        Layer::MachineNew,
        Layer::Fill,
        Layer::CoreNew,
        Layer::Consume,
        Layer::Finish,
        Layer::Record,
        Layer::Replay,
        Layer::Campaign,
    ];

    /// Span name: the crate, then the call.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "workloads.build",
            Layer::Functional => "core.functional_run",
            Layer::Profile => "core.profile",
            Layer::MachineNew => "core.machine_new",
            Layer::Fill => "core.step_batched_fill",
            Layer::CoreNew => "pipeline.core_new",
            Layer::Consume => "pipeline.consume_batch",
            Layer::Finish => "pipeline.finish",
            Layer::Record => "trace.record",
            Layer::Replay => "trace.replay",
            Layer::Campaign => "campaign.run_campaign",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Aggregated child spans of one cell (or of a whole probe).
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Nanoseconds per layer.
    pub ns: [u64; Layer::ALL.len()],
    /// Calls per layer.
    pub calls: [u64; Layer::ALL.len()],
    /// Units of work per layer (instructions, µops, programs).
    pub work: [u64; Layer::ALL.len()],
}

impl Acc {
    /// Closes a span of `layer` opened at `t0` that did `work` units.
    pub fn close(&mut self, layer: Layer, t0: Instant, work: u64) {
        self.add(layer, ns_since(t0), work);
    }

    /// Adds a measured span.
    pub fn add(&mut self, layer: Layer, ns: u64, work: u64) {
        let i = layer.idx();
        self.ns[i] += ns;
        self.calls[i] += 1;
        self.work[i] += work;
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &Acc) {
        for i in 0..Layer::ALL.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
            self.work[i] += other.work[i];
        }
    }

    /// Time in `layer`, nanoseconds.
    pub fn ns_of(&self, layer: Layer) -> u64 {
        self.ns[layer.idx()]
    }

    /// Work done in `layer`.
    pub fn work_of(&self, layer: Layer) -> u64 {
        self.work[layer.idx()]
    }

    /// Time in all layers together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// One cell of a traced pass: its interval relative to the pass start,
/// and its children.
#[derive(Debug, Clone, Copy)]
pub struct CellSpan {
    /// Start, nanoseconds after the pass began.
    pub start_ns: u64,
    /// End, nanoseconds after the pass began.
    pub end_ns: u64,
    /// The layer calls the cell made.
    pub children: Acc,
}

impl CellSpan {
    /// The cell's own time: its interval minus its children.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.children.total_ns())
    }
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-layer self time of a traced pass as a share of the thread time it
/// had (`wall × threads`), plus the harness remainder, as printable rows.
pub fn self_time_rows(
    spans: &[CellSpan],
    extra: &Acc,
    wall_ns: u64,
    threads: usize,
) -> Vec<(String, f64)> {
    let mut total = *extra;
    let mut cells_self = 0u64;
    for s in spans {
        total.merge(&s.children);
        cells_self += s.self_ns();
    }
    let capacity = (wall_ns as f64 * threads as f64).max(1.0);
    let mut rows: Vec<(String, f64)> = Layer::ALL
        .iter()
        .filter(|l| total.calls[l.idx()] > 0)
        .map(|l| (l.name().to_string(), total.ns_of(*l) as f64 / capacity))
        .collect();
    rows.push(("bench.cell_harness".into(), cells_self as f64 / capacity));
    let used: f64 = rows.iter().map(|(_, s)| s).sum();
    rows.push(("bench.idle+serial".into(), (1.0 - used).max(0.0)));
    rows
}
