//! Heap allocations on the source pump's steady path, counted by a
//! `#[global_allocator]` that tallies per thread (so the harness's other
//! test threads never bump the count under measurement).
//!
//! Pinned: 3 000 steady one-tuple-a-second sources on a batch pool, each
//! batch recycled into the pool 1.5 s after its emission (about as long
//! as a `many-sources` pane holds it), stepped every 1 ms: once warm, the
//! pump allocates at most [`MAX_ALLOCS_PER_EMISSION`] per emission — the
//! schedule reuses its bucket vectors and the pool its batches. The same
//! pin holds per beat for 100 sources at one tuple a second in ten beats,
//! nine of them quiet: an empty batch goes straight back to the pool
//! instead of draining it. Every unkeyed source shares the one
//! `measurement_schema()` declaration.
//!
//! `counts_line` prints the measured values as one `counts:` line
//! (`cargo test -q -p themis-workloads --test pump_allocs -- --nocapture`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use themis_core::prelude::*;
use themis_query::prelude::{measurement_schema, SourceKind, SourceSpec};
use themis_workloads::prelude::*;
use themis_workloads::pump::{source_seed, SourceBinding, SourcePump};

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

/// The pin: allocations per emission (per beat, quiet ones included)
/// once the pump is warm.
const MAX_ALLOCS_PER_EMISSION: f64 = 0.01;

const SOURCES: u32 = 3_000;

/// How long a batch stays downstream before it is recycled.
const HELD: TimeDelta = TimeDelta::from_millis(1_500);

/// Steps a pool-backed pump of `sources` sources of `profile` every 1 ms
/// for `warm_ms` and then `measured_ms` more, recycling each routed batch
/// [`HELD`] after its emission. Returns the batches routed and the
/// allocations on this thread over the measured stretch.
fn run_pump(sources: u32, profile: SourceProfile, warm_ms: u64, measured_ms: u64) -> (u64, u64) {
    let pool = BatchPool::new();
    let mut pump = SourcePump::with_pool(pool.clone());
    pump.add(
        Timestamp::ZERO,
        (0..sources).map(|i| SourceBinding {
            query: QueryId(i),
            spec: SourceSpec::plain(SourceId(i), None, SourceKind::Generic),
            profile,
            seed: source_seed(3, SourceId(i)),
            node: i as usize % 16,
            fragment: 0,
        }),
    );
    // Room for every batch in flight, so the harness never grows it.
    let mut held: VecDeque<(Timestamp, Batch)> = VecDeque::with_capacity(2 * sources as usize);
    let (mut routed, mut allocs) = (0u64, 0u64);
    for ms in 0..warm_ms + measured_ms {
        let now = Timestamp::from_millis(ms);
        let before = ALLOCS.with(Cell::get);
        let mut emitted = 0;
        pump.step(now, |_, rb| {
            emitted += 1;
            held.push_back((now, rb.batch));
        });
        while held.front().is_some_and(|&(at, _)| at + HELD <= now) {
            let (_, batch) = held.pop_front().expect("front checked");
            pool.recycle(batch.into_data());
        }
        if ms >= warm_ms {
            routed += emitted;
            allocs += ALLOCS.with(Cell::get) - before;
        }
    }
    (routed, allocs)
}

fn allocs_per_emission() -> f64 {
    let profile = SourceProfile::steady(1, 1, Dataset::Uniform);
    let (emissions, allocs) = run_pump(SOURCES, profile, 5_000, 10_000);
    assert_eq!(emissions, 10 * SOURCES as u64, "one emission a second each");
    allocs as f64 / emissions as f64
}

/// Allocations per beat of 100 sources emitting one tuple a second in ten
/// beats: 15 measured seconds after 5 warm ones.
fn allocs_per_quiet_beat() -> f64 {
    const QUIET_SOURCES: u32 = 100;
    let profile = SourceProfile::steady(1, 10, Dataset::Uniform);
    let (routed, allocs) = run_pump(QUIET_SOURCES, profile, 5_000, 15_000);
    let beats = 10 * 15 * QUIET_SOURCES as u64;
    assert!(
        routed.abs_diff(beats / 10) <= QUIET_SOURCES as u64,
        "{routed} routed"
    );
    allocs as f64 / beats as f64
}

#[test]
fn a_warm_pump_allocates_almost_nothing_per_emission() {
    let per = allocs_per_emission();
    assert!(
        per <= MAX_ALLOCS_PER_EMISSION,
        "{per:.4} allocations per emission (pin {MAX_ALLOCS_PER_EMISSION})"
    );
}

#[test]
fn quiet_beats_do_not_drain_the_pool() {
    let per = allocs_per_quiet_beat();
    assert!(
        per <= MAX_ALLOCS_PER_EMISSION,
        "{per:.4} allocations per beat (pin {MAX_ALLOCS_PER_EMISSION})"
    );
}

#[test]
fn measurement_sources_share_one_schema() {
    let a = measurement_schema();
    let b = SourceSpec::plain(SourceId(1), None, SourceKind::Cpu).schema();
    assert!(
        a.same_as(&b),
        "two measurement schemas are separate declarations"
    );
    assert!(a.same_as(&measurement_schema()));
}

/// Prints the pinned measurements as one line (a tracked metric, not a
/// gate: the pins above are the gate).
#[test]
fn counts_line() {
    println!(
        "counts: pump_allocs_per_emission={:.4} pump_allocs_per_quiet_beat={:.4}",
        allocs_per_emission(),
        allocs_per_quiet_beat()
    );
}
