//! Heap allocations of the coordinator's per-interval passes, counted by a
//! `#[global_allocator]` that tallies per thread (so the harness's other
//! test threads never bump the count under measurement).
//!
//! Pinned: an `updateSIC` round and a SIC sample over 1 000 attached
//! queries allocate nothing — the round hands every update to the
//! caller's sink, and neither pass builds a vector or hashes a query.
//! The round's hosts are all marked as shedding in setup, so it visits
//! and feeds every query.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use themis_core::prelude::*;

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

/// Runs `f`, returning its value and the allocations it made on this
/// thread (reallocations included).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const QUERIES: u32 = 1_000;

/// A coordinator with 250 ms rounds and samples over 1 000 queries on
/// two hosts each, every one with a recorded result. Its samples count
/// once the 10 s STW has passed.
fn coordinator() -> Coordinator {
    let stw = StwConfig::new(TimeDelta::from_secs(10), TimeDelta::from_millis(250));
    let interval = TimeDelta::from_millis(250);
    let mut c = Coordinator::new(stw, interval, interval, TimeDelta::ZERO);
    for q in 0..QUERIES {
        let hosts = vec![NodeId(q % 64), NodeId(q % 64 + 1)];
        c.attach(QueryId(q), hosts, Timestamp::ZERO, None);
        c.record(Timestamp::from_millis(100), QueryId(q), Sic(0.5));
    }
    c
}

#[test]
fn a_round_over_a_thousand_queries_allocates_nothing() {
    let mut c = coordinator();
    for node in 0..=64 {
        c.overloaded(NodeId(node));
    }
    for k in 1..=4u64 {
        let now = Timestamp::from_millis(250 * k);
        let mut delivered = 0u64;
        let ((), n) = counted(|| c.round(now, |_| delivered += 1));
        assert_eq!(delivered, 2 * u64::from(QUERIES), "Σ hosts per round");
        assert_eq!(n, 0, "round {k} allocated");
    }
    assert_eq!(c.finish().messages, 4 * 2 * u64::from(QUERIES));
}

#[test]
fn a_sample_over_a_thousand_queries_allocates_nothing() {
    let mut c = coordinator();
    for k in 1..=4u64 {
        let ((), n) = counted(|| c.sample(Timestamp::from_millis(10_000 + 250 * k + 10)));
        assert_eq!(n, 0, "sample {k} allocated");
    }
    let report = c.finish();
    assert!(report.per_query.iter().all(|&(_, _, samples)| samples == 4));
}
