//! Zero-allocation discipline for the steady-state timed loop.
//!
//! A counting global allocator wraps the system allocator; the test
//! pre-assembles a full `mcf` suite-cell commit stream and constructs the
//! timing core and batch scratch *before* sampling the counter, then
//! asserts the batched feed — `push_cracked` + `consume_batch` over the
//! whole cell — performs **exactly zero** heap allocations. This pins the
//! calendar-queue refactor's contract: wheels, rings, FU pools, the TLB
//! table, the prefetcher scratch and the batch arenas are all
//! preallocated, so the hot loop never touches the allocator.
//!
//! The core's self-profiler records throughout: its counters and
//! histograms are fixed arrays built with the core, so recording is
//! allocation-free too.
//!
//! The same counter then bounds the whole live loop: a complete
//! `Simulator::run` of the `mcf` cell in the baseline, location-based,
//! conservative and ISA-assisted modes — machine construction, the §5.2
//! profiling pass, every functional step, batch fill and timing-core drain
//! — allocates fewer than [`LIVE_ALLOCS_PER_KINST`] times per thousand
//! committed instructions. What remains is construction and first-touch
//! growth (guest pages, footprint bitmaps, allocator bins), not
//! per-instruction work.
//!
//! This file holds a single `#[test]` on purpose: the counter is
//! process-global, and a concurrent test thread would alias it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use watchdog_core::machine::{Machine, MachineConfig, Step};
use watchdog_core::sim::{Mode, SimConfig, Simulator};
use watchdog_isa::crack::CrackedInst;
use watchdog_mem::HierarchyConfig;
use watchdog_pipeline::{CoreConfig, TimingCore, UopBatch};
use watchdog_telemetry::MetricsRegistry;
use watchdog_workloads::{benchmark, Scale};

/// Counts every allocation (fresh or growing) routed through the global
/// allocator. Deallocations are free of charge — the discipline under
/// test is "no acquisition in steady state", and counting `dealloc`
/// would only double-report the same events.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no effect on layout or
// pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation budget of a whole live run, per thousand committed
/// instructions.
const LIVE_ALLOCS_PER_KINST: u64 = 5;

#[test]
fn steady_state_timed_loop_is_allocation_free() {
    batched_feed_allocates_nothing();
    live_runs_stay_within_budget();
}

/// A whole live `Simulator::run` of `mcf`, setup included, in each mode
/// the paper compares, stays under [`LIVE_ALLOCS_PER_KINST`].
fn live_runs_stay_within_budget() {
    let program = benchmark("mcf").expect("registered").build(Scale::Test);
    for mode in [
        Mode::Baseline,
        Mode::LocationBased,
        Mode::watchdog_conservative(),
        Mode::watchdog(),
    ] {
        let sim = Simulator::new(SimConfig::timed(mode));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = sim.run(&program).expect("mcf runs");
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let insts = report.machine.insts;
        assert!(insts > 10_000, "{mode:?}: only {insts} insts");
        assert!(
            allocs * 1000 < LIVE_ALLOCS_PER_KINST * insts,
            "{mode:?}: {allocs} allocations over {insts} insts"
        );
    }
}

/// The batched feed over a full `mcf` suite cell — with the core's
/// self-profiler recording dispatch counters, occupancy histograms and
/// the CPI stack throughout — allocates nothing after construction:
/// the allocation count across every `push_cracked` and `consume_batch`
/// call is exactly zero.
fn batched_feed_allocates_nothing() {
    // Setup (allocates freely): materialize the committed µop stream the
    // live simulator would feed the core, then build the core and the
    // batch scratch at their preallocated capacities.
    let program = benchmark("mcf").expect("registered").build(Scale::Test);
    let mut machine = Machine::new(&program, MachineConfig::watchdog());
    let mut stream: Vec<CrackedInst> = Vec::new();
    while let Step::Executed(ci) = machine.step().expect("ok") {
        stream.push(ci.expect("µop-emitting machine").clone());
    }
    assert!(!stream.is_empty(), "mcf cell produced no committed insts");

    let mut core = TimingCore::new(CoreConfig::sandy_bridge(), HierarchyConfig::default());
    let mut batch = UopBatch::with_capacity(UopBatch::TARGET_INSTS);

    // Measured region: the steady-state loop, exactly as the live path
    // and the replay path drive it.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for ci in &stream {
        batch.push_cracked(ci);
        if batch.len() >= UopBatch::TARGET_INSTS {
            core.consume_batch(&batch);
            batch.clear();
        }
    }
    core.consume_batch(&batch);
    batch.clear();
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The zero-allocation claim is only meaningful if the profiler was
    // actually recording through the measured region.
    let mut reg = MetricsRegistry::new();
    core.export_telemetry_into(&mut reg);
    let count = |name| reg.counter_value(name).expect(name);
    assert_eq!(
        count("profile.insts"),
        stream.len() as u64,
        "the self-profiler saw every instruction"
    );
    assert!(
        count("profile.uops") >= count("profile.insts"),
        "µop counters recorded"
    );
    assert_eq!(
        reg.hist_value("profile.occupancy.rob").map(|h| h.count()),
        Some(count("feed.batches")),
        "occupancy sampled at every batch"
    );

    let report = core.finish();
    assert!(report.cycles > 0, "timed model reported no cycles");
    assert_eq!(
        delta,
        0,
        "steady-state timed loop allocated {delta} time(s) over {} insts",
        stream.len()
    );
}
