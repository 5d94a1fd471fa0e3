//! Heap allocations on the fragment hot path, counted by a
//! `#[global_allocator]` that tallies per thread (so the harness's other
//! test threads never bump the count under measurement), plus the proof
//! that forwarding batches by move changes no emitted bit.
//!
//! Pinned:
//! - a one-tuple AVG `ingest` (the `many-sources` shape: one tuple per
//!   batch, each in its own 1 s pane) costs at most 7 allocations;
//! - the `tick` that closes such a pane costs at most 9 per emission;
//! - a `tick` with no due pane costs none;
//! - every emission of a move-forwarded batch equals the copy path's bit
//!   for bit, for every window kind and for whole template fragments (a
//!   batch with a dropped row takes the copy path).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use themis_core::prelude::*;
use themis_operators::logic::IdentityLogic;
use themis_operators::prelude::*;
use themis_query::prelude::*;

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

fn avg_query() -> QuerySpec {
    Template::Avg.build(QueryId(0), &mut IdGen::new())
}

/// A typed batch of `values` at `ms`, each row carrying `sic`, in the
/// source's declared schema.
fn batch(schema: &Schema, ms: u64, sic: f64, values: &[f64]) -> TupleBatch {
    let mut b = TupleBatch::with_schema_capacity(schema.clone(), values.len());
    for &v in values {
        b.push_row(Timestamp::from_millis(ms), Sic(sic), &[Value::F64(v)]);
    }
    b
}

#[test]
fn one_tuple_avg_ingest_stays_under_seven_allocations() {
    let q = avg_query();
    let src = &q.sources[0];
    let mut rt = FragmentRuntime::new(&q.fragments[0]);
    const N: u64 = 64;
    let mut total = 0;
    for k in 0..N {
        // One tuple a second: every ingest opens a fresh pane, as a 1 t/s
        // source does.
        let ms = 1_000 * k + 100;
        let b = batch(&src.schema(), ms, 0.5, &[k as f64]);
        let now = Timestamp::from_millis(ms);
        let (out, n) = counted(|| rt.ingest(Ingress::Source(src.id), b, now));
        assert!(out.is_empty(), "the AVG pane is still open");
        total += n;
        // Close the previous pane outside the measured region.
        rt.tick(Timestamp::from_millis(ms + 600));
    }
    let mean = total as f64 / N as f64;
    assert!(mean <= 7.0, "{mean} allocations per one-tuple ingest");
}

#[test]
fn one_tuple_avg_pane_close_stays_under_nine_allocations() {
    let q = avg_query();
    let src = &q.sources[0];
    let mut rt = FragmentRuntime::new(&q.fragments[0]);
    const N: u64 = 64;
    let (mut total, mut emissions) = (0, 0);
    for k in 0..N {
        let ms = 1_000 * k + 100;
        let b = batch(&src.schema(), ms, 0.5, &[k as f64]);
        rt.ingest(Ingress::Source(src.id), b, Timestamp::from_millis(ms));
        // [k s, k+1 s) closes 500 ms of grace after its end.
        let close = Timestamp::from_millis(1_000 * k + 1_500);
        let (out, n) = counted(|| rt.tick(close));
        assert_eq!(out.len(), 1, "pane {k} closed");
        total += n;
        emissions += out.len() as u64;
    }
    let mean = total as f64 / emissions as f64;
    assert!(mean <= 9.0, "{mean} allocations per closed AVG pane");
}

#[test]
fn idle_tick_allocates_nothing() {
    let q = avg_query();
    let src = &q.sources[0];
    let mut rt = FragmentRuntime::new(&q.fragments[0]);
    // Before any data, and with one open pane that is not due yet
    // ([0, 1 s) closes 500 ms of grace after its end).
    let (out, n) = counted(|| rt.tick(Timestamp::from_millis(50)));
    assert!(out.is_empty());
    assert_eq!(n, 0, "tick of an empty fragment allocated");
    rt.ingest(
        Ingress::Source(src.id),
        batch(&src.schema(), 100, 0.5, &[1.0]),
        Timestamp::from_millis(100),
    );
    for ms in [200, 900, 1_499] {
        let (out, n) = counted(|| rt.tick(Timestamp::from_millis(ms)));
        assert!(out.is_empty());
        assert_eq!(n, 0, "idle tick at {ms} ms allocated");
    }
    // The pane does close when due.
    assert_eq!(rt.tick(Timestamp::from_millis(1_500)).len(), 1);
}

/// One row, bit for bit: timestamp, SIC bits, each value's bits.
type RowBits = (u64, u64, Vec<u64>);

/// An emission, bit for bit: its stamp and every row.
fn bits(e: &Emission) -> (u64, Vec<RowBits>) {
    let value = |v: Value| match v {
        Value::I64(x) => x as u64,
        Value::F64(x) => x.to_bits(),
        Value::Bool(x) => u64::from(x),
        Value::Tag(x) => u64::from(x),
    };
    let rows = e
        .iter()
        .map(|r| {
            let values = r.values.iter().map(value).collect();
            (r.ts.as_micros(), r.sic.value().to_bits(), values)
        })
        .collect();
    (e.at.as_micros(), rows)
}

/// Identity logic that never forwards: the copying path, as a reference.
struct CopyingIdentity;

impl PaneLogic for CopyingIdentity {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        IdentityLogic.apply(panes, at)
    }

    fn name(&self) -> &'static str {
        "copying-identity"
    }
}

#[test]
fn forwarded_identity_emission_equals_the_copy_path() {
    let schema = Schema::new([("value", FieldType::F64)]);
    let mut shed = batch(&schema, 700, 0.2, &[4.0, 9.0, 5.0]);
    shed.drop_row(1);
    let inputs = [
        batch(&schema, 40, 0.1, &[3.0, 1.0, 2.0]),
        shed,
        batch(&schema, 1_300, 0.05, &[6.0]),
    ];
    let ms = TimeDelta::from_millis;
    for window in [
        WindowSpec::PassThrough,
        WindowSpec::tumbling(ms(1_000)),
        WindowSpec::sliding(ms(1_000), ms(500)),
        WindowSpec::Count { count: 2 },
    ] {
        let grace = ms(100);
        let mut moving = WindowedOperator::new(window, Box::new(IdentityLogic), 1, grace);
        let mut copying = WindowedOperator::new(window, Box::new(CopyingIdentity), 1, grace);
        let (mut moved, mut copied) = (Vec::new(), Vec::new());
        for (i, b) in inputs.iter().enumerate() {
            let now = Timestamp::from_millis(600 * i as u64 + 50);
            moved.extend(moving.push(0, b.clone(), now));
            copied.extend(copying.push(0, b.clone(), now));
        }
        let end = Timestamp::from_millis(5_000);
        moved.extend(moving.tick(end));
        copied.extend(copying.tick(end));
        assert!(!moved.is_empty(), "{window:?} emitted nothing");
        let bits_of = |es: &[Emission]| es.iter().map(bits).collect::<Vec<_>>();
        assert_eq!(bits_of(&moved), bits_of(&copied), "{window:?}");
        // The shed row never reaches an output: the batch carrying it was
        // compacted by the copying path, not forwarded with its bitmap.
        assert!(moved.iter().all(|e| e.batch().drops().dropped() == 0));
    }
}

/// Feeds every source of `q`'s first fragment a few batches, either
/// drop-free (forwarded by move) or with one extra dropped row each
/// (copied), ticks past every window, and returns all emissions' bits.
fn run_fragment(q: &QuerySpec, with_drops: bool) -> Vec<(u64, Vec<RowBits>)> {
    let frag = &q.fragments[0];
    let mut rt = FragmentRuntime::new(frag);
    let mut out = Vec::new();
    for step in 0..6u64 {
        let ms = 350 * step + 20;
        for (i, b) in frag.sources.iter().enumerate() {
            let spec = q.sources.iter().find(|s| s.id == b.source).unwrap();
            let schema = spec.schema();
            let mut data = TupleBatch::with_schema(schema.clone());
            for j in 0..3u64 {
                let v = (i as f64) * 7.5 + (step * 3 + j) as f64;
                let row: Vec<Value> = match spec.key {
                    Some(key) => vec![Value::I64(key), Value::F64(v * 1_000.0)],
                    None => vec![Value::F64(v)],
                };
                data.push_row(Timestamp::from_millis(ms + j), Sic(0.01), &row);
            }
            if with_drops {
                let extra: Vec<Value> = match spec.key {
                    Some(key) => vec![Value::I64(key), Value::F64(1e9)],
                    None => vec![Value::F64(1e9)],
                };
                data.push_row(Timestamp::from_millis(ms + 99), Sic(0.3), &extra);
                data.drop_row(3);
            }
            let now = Timestamp::from_millis(ms + 5);
            out.extend(rt.ingest(Ingress::Source(b.source), data, now));
        }
        out.extend(rt.tick(Timestamp::from_millis(ms + 200)));
    }
    out.extend(rt.tick(Timestamp::from_millis(10_000)));
    assert!(!out.is_empty(), "{} emitted nothing", q.template);
    out.iter().map(bits).collect()
}

#[test]
fn move_forwarding_changes_no_emitted_bit() {
    let mut ids = IdGen::new();
    for (i, t) in [
        Template::Avg,
        Template::Max,
        Template::Count,
        Template::AvgAll { fragments: 1 },
        Template::Top5 { fragments: 1 },
        Template::Cov { fragments: 1 },
    ]
    .into_iter()
    .enumerate()
    {
        let q = t.build(QueryId(i as u32), &mut ids);
        assert_eq!(
            run_fragment(&q, false),
            run_fragment(&q, true),
            "{}",
            q.template
        );
    }
}
