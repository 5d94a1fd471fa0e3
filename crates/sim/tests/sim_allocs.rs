//! Heap allocations of a simulator run per arrived tuple, counted by a
//! `#[global_allocator]` that tallies per thread (so the harness's other
//! test threads never bump the count under measurement).
//!
//! The run is the benchmark's quick `sim-paper` shape: the mixed Table-1
//! deployment (a tenth of it, Emulab sources) placed at random on 64
//! nodes, each 3x overloaded, with a 2 s STW, 2 s of warm-up and 4 s
//! measured. Pinned: at most [`MAX_ALLOCS_PER_TUPLE`] allocations per
//! arrived tuple over the whole run, setup included, and a pool that
//! serves most source batches from recycled ones. The simulator's source
//! pump and nodes share one batch pool, so source batches, spent window
//! inputs and shed batches circulate instead of round-tripping the
//! allocator.
//!
//! `counts_line` prints the measured values as one `counts:` line
//! (`cargo test -q -p themis-sim --test sim_allocs -- --nocapture`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counter is const-initialised and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The pin: allocations per arrived tuple over a whole run, 0.098 at the
/// time of writing (0.175 before the simulator shared a pool).
const MAX_ALLOCS_PER_TUPLE: f64 = 0.12;

/// The pin on the pool: at least this share of source-batch acquisitions
/// reuse a recycled batch (0.90 at the time of writing: 14 235 reused,
/// 1 605 fresh).
const MIN_POOL_REUSE: f64 = 0.8;

/// `(template, count)` of the mixed Table-1 deployment, a tenth of the
/// paper's.
const MIX: [(Template, usize); 6] = [
    (Template::Avg, 80),
    (Template::Max, 80),
    (Template::Count, 80),
    (Template::Cov { fragments: 2 }, 20),
    (Template::Top5 { fragments: 2 }, 8),
    (Template::AvgAll { fragments: 3 }, 8),
];

/// The quick `sim-paper` scenario of seed 1: every node's capacity is a
/// third of its own demand.
fn scenario() -> Scenario {
    let mut b = ScenarioBuilder::new("sim-paper", 1)
        .nodes(64)
        .stw_window(TimeDelta::from_secs(2))
        .warmup(TimeDelta::from_secs(2))
        .duration(TimeDelta::from_secs(4))
        .placement(PlacementPolicy::UniformRandom);
    for (template, count) in MIX {
        b = b.add_queries(template, count, SourceProfile::emulab(Dataset::Uniform));
    }
    let mut scenario = b.build().expect("mixed deployment fits its nodes");
    scenario.node_capacity_tps = scenario
        .demand_per_node_tps()
        .iter()
        .map(|d| ((d / 3.0) as u32).max(1))
        .collect();
    scenario
}

/// What one run counts.
struct Counts {
    allocs_per_tuple: f64,
    pool: PoolStats,
}

/// Builds and runs the simulation on this thread, counting its
/// allocations.
fn run() -> Counts {
    let scenario = scenario();
    let before = ALLOCS.with(Cell::get);
    let sim = Simulation::new(scenario, SimConfig::default());
    let pool = sim.batch_pool().clone();
    let report = sim.run();
    let allocs = ALLOCS.with(Cell::get) - before;
    let arrived: u64 = report.nodes.iter().map(|n| n.arrived_tuples).sum();
    assert!(report.shed_fraction() > 0.5, "3x overload sheds");
    Counts {
        allocs_per_tuple: allocs as f64 / arrived as f64,
        pool: pool.stats(),
    }
}

#[test]
fn a_simulated_run_allocates_little_per_tuple() {
    let counts = run();
    assert!(
        counts.allocs_per_tuple <= MAX_ALLOCS_PER_TUPLE,
        "{:.4} allocations per arrived tuple (pin {MAX_ALLOCS_PER_TUPLE})",
        counts.allocs_per_tuple
    );
    let PoolStats { reused, fresh, .. } = counts.pool;
    let reuse = reused as f64 / (reused + fresh) as f64;
    assert!(
        reuse >= MIN_POOL_REUSE,
        "{reuse:.4} of acquisitions reused ({reused} reused, {fresh} fresh; pin {MIN_POOL_REUSE})"
    );
}

/// Prints the measured values as one line (a tracked metric, not a gate:
/// the pins above are the gate).
#[test]
fn counts_line() {
    let counts = run();
    println!(
        "counts: sim_allocs_per_tuple={:.4} sim_pool_fresh={} sim_pool_reused={}",
        counts.allocs_per_tuple, counts.pool.fresh, counts.pool.reused
    );
}
