//! Property-based tests over the programmable rate patterns: every
//! [`RatePattern`] realises its declared long-run mean rate under seeded
//! [`SourceDriver`] runs, and pattern state is exactly reproducible for a
//! fixed seed. A driver's column-at-a-time batches equal a row-by-row
//! reference built in this file, pooled or not. Plus the source pump's
//! schedule: under any sequence of adds, removes and steps its emissions
//! and `step` return values equal a plain binary-heap schedule's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use themis_core::prelude::*;
use themis_query::prelude::{Ingress, SourceKind, SourceSpec, TagSource};
use themis_workloads::prelude::*;
use themis_workloads::pump::{source_seed, SourceBinding, SourcePump, MAX_SWEEP};

fn spec() -> SourceSpec {
    SourceSpec::plain(SourceId(1), None, SourceKind::Generic)
}

/// Strategy: any rate pattern with parameters in sane evaluation ranges.
/// Periods divide the 60 s measurement horizon so periodic patterns are
/// measured over whole cycles. Trace patterns register their (deduped)
/// factor sequence in the process-global registry; adversarial ticks are
/// multiples of 250 ms, so every driver interval used below divides them.
fn arb_pattern() -> impl Strategy<Value = RatePattern> {
    (
        0usize..5,
        (0.1f64..0.3, 2u32..8),
        prop::sample::select(vec![1u64, 2, 3, 4, 5, 6]),
        (0.0f64..1.2, 1.5f64..4.0),
    )
        .prop_map(
            |(kind, (fraction, factor), period_s, (trough, peak))| match kind {
                0 => RatePattern::Steady,
                1 => RatePattern::Bursty { fraction, factor },
                2 => RatePattern::FlashCrowd {
                    every: TimeDelta::from_secs(period_s.max(2)),
                    width: TimeDelta::from_millis(500),
                    magnitude: peak,
                },
                3 => {
                    // A short 1 s-beat trace whose cycle (2-6 beats)
                    // divides the 60 s horizon.
                    let len = (period_s as usize).clamp(2, 6);
                    let factors: Vec<f64> = (0..len)
                        .map(|i| trough + (peak - trough) * i as f64 / (len - 1) as f64)
                        .collect();
                    let trace =
                        TraceData::from_factors("proptest", TimeDelta::from_secs(1), factors)
                            .unwrap()
                            .register();
                    RatePattern::Trace { trace }
                }
                _ => RatePattern::Adversarial {
                    tick: TimeDelta::from_millis(250 * period_s),
                },
            },
        )
}

/// Tuples emitted per second, measured over `horizon` of driver virtual
/// time (the driver's clock is logical — no wall time passes).
fn measured_rate(profile: SourceProfile, seed: u64, horizon_secs: u64) -> f64 {
    let mut driver = SourceDriver::new(QueryId(0), &spec(), profile, seed);
    let horizon = Timestamp::from_secs(horizon_secs);
    let mut total = 0usize;
    while driver.next_time() < horizon {
        total += driver.emit().len();
    }
    total as f64 / horizon_secs as f64
}

proptest! {
    /// Every pattern's realised long-run rate matches the declared
    /// `mean_rate_tps()` within a per-pattern tolerance (stochastic
    /// patterns measure over a longer horizon).
    #[test]
    fn patterns_hit_their_declared_mean_rate(pattern in arb_pattern(), seed in 1u64..5000) {
        // 20 batches/s: a fine emission grid, so square-edged patterns
        // (Square duty cycles, flash spikes) quantise to within a few
        // percent even at 1 s periods.
        let profile = SourceProfile::steady(40, 20, Dataset::Uniform).with_pattern(pattern);
        let declared = profile.mean_rate_tps();
        // Bursty periods are independent coin flips: use a long horizon
        // and a wider band. The rest are deterministic up to batch-grid
        // discretisation.
        let (horizon, tolerance) = match pattern {
            RatePattern::Steady => (60, 0.02),
            RatePattern::Bursty { .. } => (600, 0.20),
            RatePattern::FlashCrowd { .. } => (60, 0.10),
            RatePattern::Trace { .. } => (60, 0.05),
            RatePattern::Adversarial { .. } => (60, 0.02),
        };
        let measured = measured_rate(profile, seed, horizon);
        prop_assert!(
            (measured - declared).abs() <= tolerance * declared.max(1.0),
            "pattern {pattern:?}: measured {measured:.2} t/s vs declared {declared:.2} t/s"
        );
    }

    /// Replay determinism: a fixed seed reproduces the exact batch
    /// sequence — sizes compared batch by batch (and full payload
    /// equality on top), for every pattern.
    #[test]
    fn fixed_seed_replays_exactly(pattern in arb_pattern(), seed in 1u64..5000) {
        let profile = SourceProfile::steady(40, 4, Dataset::Mixed).with_pattern(pattern);
        let mut a = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        let mut b = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        for i in 0..240 {
            let (ba, bb) = (a.emit(), b.emit());
            prop_assert_eq!(ba.len(), bb.len(), "batch {} size diverged", i);
            prop_assert_eq!(ba, bb, "batch {} payload diverged", i);
        }
    }

    /// The flash-crowd spike trace is itself deterministic and well
    /// formed: spikes stay inside their epoch, keep their width, and the
    /// same seed reproduces the same trace.
    #[test]
    fn flash_trace_is_seeded_and_well_formed(
        every_s in prop::sample::select(vec![2u64, 3, 4, 5, 8]),
        width_ms in 200u64..1500,
        seed in 1u64..5000,
    ) {
        let pattern = RatePattern::FlashCrowd {
            every: TimeDelta::from_secs(every_s),
            width: TimeDelta::from_millis(width_ms),
            magnitude: 5.0,
        };
        let horizon = TimeDelta::from_secs(40);
        let trace = pattern.flash_trace(seed, horizon);
        prop_assert_eq!(trace.len() as u64, 40_u64.div_ceil(every_s), "one spike per epoch");
        let width = TimeDelta::from_millis(width_ms.min(every_s * 1000));
        for (i, &(start, end)) in trace.iter().enumerate() {
            let epoch_start = Timestamp::from_secs(i as u64 * every_s);
            let epoch_end = Timestamp::from_secs((i as u64 + 1) * every_s);
            prop_assert!(start >= epoch_start && end <= epoch_end, "spike {i} leaves its epoch");
            prop_assert_eq!(end - start, width, "spike {} width", i);
        }
        prop_assert_eq!(trace, pattern.flash_trace(seed, horizon), "same seed, same trace");
    }

    /// Trace replay realises the trace's declared `mean_factor()` over
    /// whole cycles, for arbitrary factor sequences.
    #[test]
    fn trace_replay_realises_the_declared_mean(
        factors in prop::collection::vec(0.1f64..4.0, 2..8),
        beat_ms in prop::sample::select(vec![250u64, 500, 1000]),
        seed in 1u64..5000,
    ) {
        let data = TraceData::from_factors(
            "proptest-mean", TimeDelta::from_millis(beat_ms), factors,
        ).unwrap();
        let declared_factor = data.mean_factor();
        let cycle = data.cycle();
        let trace = data.register();
        let pattern = RatePattern::Trace { trace };
        prop_assert!((pattern.mean_factor() - declared_factor).abs() < 1e-12);
        let profile = SourceProfile::steady(40, 20, Dataset::Uniform).with_pattern(pattern);
        // Measure over a whole number of cycles (≥ 30 s worth).
        let cycles = 30_000_000_u64.div_ceil(cycle.as_micros());
        let horizon_secs = cycles * cycle.as_micros() / 1_000_000;
        let measured = measured_rate(profile, seed, horizon_secs.max(1));
        let declared = profile.mean_rate_tps();
        prop_assert!(
            (measured - declared).abs() <= 0.05 * declared.max(1.0),
            "trace factors {:?}: measured {measured:.2} t/s vs declared {declared:.2} t/s",
            trace.data().factors()
        );
    }

    /// Same file + same seed → bit-identical replay: parsing the same
    /// CSV text twice yields the same registered trace, and two drivers
    /// over it emit identical batch sequences.
    #[test]
    fn same_file_same_seed_replays_bit_identically(
        factors in prop::collection::vec(0.1f64..4.0, 2..8),
        seed in 1u64..5000,
    ) {
        let csv: String = std::iter::once("time_s,factor".to_string())
            .chain(factors.iter().enumerate().map(|(i, f)| format!("{i}.0,{f}")))
            .collect::<Vec<_>>()
            .join("\n");
        let ta = TraceData::parse_csv("replay", &csv).unwrap().register();
        let tb = TraceData::parse_csv("replay", &csv).unwrap().register();
        prop_assert_eq!(ta, tb, "identical content interns to one registry entry");
        let profile = SourceProfile::steady(40, 4, Dataset::Mixed)
            .with_pattern(RatePattern::Trace { trace: ta });
        let mut a = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        let mut b = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        for i in 0..120 {
            let (ba, bb) = (a.emit(), b.emit());
            prop_assert_eq!(ba.len(), bb.len(), "batch {} size diverged", i);
            prop_assert_eq!(ba, bb, "batch {} payload diverged", i);
        }
    }
}

/// A source of kind `kind` in layout `layout`: 0 plain `[value]`, 1 keyed
/// `[key, value]`, 2 tagged `[tag, value]` against a fresh tag schema.
fn layout_spec(layout: usize, kind: SourceKind) -> SourceSpec {
    let mut spec = SourceSpec::plain(SourceId(5), None, kind);
    match layout {
        0 => {}
        1 => spec.key = Some(-42),
        _ => {
            let schema = Schema::new([("host", FieldType::Tag), ("value", FieldType::F64)]);
            let dict = schema.interner().expect("a tag schema has a dictionary");
            dict.intern("other-host");
            let code = dict.intern("sensors-5");
            spec.tag = Some(TagSource {
                label: "sensors-5".to_string(),
                code,
                schema,
            });
        }
    }
    spec
}

/// The row-by-row reference for one emission of `spec`'s driver: `n`
/// [`TupleBatch::push_row`] calls at `ts`, each drawing its value from
/// `values` when its row is built.
fn row_by_row(spec: &SourceSpec, values: &mut ValueGen, ts: Timestamp, n: usize) -> TupleBatch {
    let mut data = TupleBatch::with_schema_capacity(spec.schema(), n);
    for _ in 0..n {
        let v = match spec.kind {
            SourceKind::MemFree => values.mem_free_kb(ts),
            _ => values.value(ts),
        };
        match (&spec.tag, spec.key) {
            (Some(tag), _) => data.push_row(ts, Sic::ZERO, &[Value::Tag(tag.code), Value::F64(v)]),
            (None, Some(k)) => data.push_row(ts, Sic::ZERO, &[Value::I64(k), Value::F64(v)]),
            (None, None) => data.push_row(ts, Sic::ZERO, &[Value::F64(v)]),
        }
    }
    data
}

/// Puts a used batch of `spec`'s schema with room for `cap` rows on top
/// of `pool`'s stack, so the driver's next emission refills it: rows
/// written and one dropped, then cleared by the recycle.
fn recycle_used(pool: &BatchPool, spec: &SourceSpec, cap: usize) {
    let schema = spec.schema();
    // Lets the pool keep batches with room for `cap`.
    drop(pool.acquire(&schema, cap));
    let mut used = TupleBatch::with_schema_capacity(schema, cap);
    for i in 0..cap.min(3) {
        used.push_row(
            Timestamp(7),
            Sic(0.5),
            &[Value::I64(9), Value::F64(i as f64)],
        );
    }
    if cap > 0 {
        used.drop_row(0);
    }
    pool.recycle(used);
}

/// Strategy: `(batches per second, tuples per second)` for base batch
/// sizes from 0 to 200 tuples, fractional ones (carries) included, small
/// ones (empty batches among them) drawn more often.
fn arb_rate() -> impl Strategy<Value = (u32, u32)> {
    (1u32..11, 0.0f64..1.0).prop_map(|(bps, u)| (bps, (u.powi(3) * (200 * bps + 1) as f64) as u32))
}

/// Strategy: per emission, the room of a used batch recycled into the
/// pool just before it (0 to 300 rows), or `None`.
fn arb_recycled() -> impl Strategy<Value = Vec<Option<usize>>> {
    prop::collection::vec(0usize..400, 1..12)
        .prop_map(|caps| caps.into_iter().map(|c| (c <= 300).then_some(c)).collect())
}

proptest! {
    /// Column-at-a-time emission equals the row-by-row reference batch for
    /// batch: timestamps, SIC, schema and every column, for every source
    /// kind, layout and dataset, with and without a pool whose recycled
    /// batches have less or more room than the emission needs. The
    /// reference draws from its own generator, so a later batch matching
    /// too shows the driver left its generator where the reference did.
    #[test]
    fn column_emission_equals_the_row_by_row_reference(
        kind in prop::sample::select(vec![SourceKind::Generic, SourceKind::Cpu, SourceKind::MemFree]),
        layout in 0usize..3,
        dataset in prop::sample::select(Dataset::ALL.to_vec()),
        rate in arb_rate(),
        seed in 0u64..10_000,
        pooled in 0u8..2,
        recycled in arb_recycled(),
    ) {
        let ((bps, tps), pooled) = (rate, pooled == 1);
        let spec = layout_spec(layout, kind);
        let profile = SourceProfile::steady(tps, bps, dataset);
        let mut driver = SourceDriver::new(QueryId(3), &spec, profile, seed);
        let pool = BatchPool::new();
        if pooled {
            driver.set_pool(pool.clone());
        }
        let mut reference = ValueGen::new(dataset, seed);
        for (i, cap) in recycled.into_iter().enumerate() {
            if let (true, Some(cap)) = (pooled, cap) {
                recycle_used(&pool, &spec, cap);
            }
            let ts = driver.next_time();
            let got = driver.emit();
            let want = row_by_row(&spec, &mut reference, ts, got.len());
            prop_assert_eq!(
                (got.query(), got.source(), got.created()),
                (QueryId(3), Some(spec.id), ts),
                "batch {}", i
            );
            let data = got.data();
            prop_assert_eq!(data.ts_column(), want.ts_column(), "batch {} timestamps", i);
            let sic = |b: &TupleBatch| (0..b.rows()).map(|r| b.row(r).sic).collect::<Vec<_>>();
            prop_assert_eq!(sic(data), sic(&want), "batch {} SIC", i);
            let schema = data.schema().expect("a source batch has a schema");
            prop_assert!(schema.same_as(&spec.schema()), "batch {} schema", i);
            prop_assert_eq!(data.width(), want.width());
            for field in 0..want.width() {
                prop_assert_eq!(data.column(field), want.column(field), "batch {} field {}", i, field);
            }
            prop_assert_eq!(data, &want, "batch {}", i);
            if pooled {
                pool.recycle(got.into_data());
            }
        }
    }
}

/// What one emission is observed as: `(query, source, created, node,
/// tuples)`.
type Emitted = (QueryId, SourceId, Timestamp, usize, usize);

fn emitted(node: usize, rb: themis_query::prelude::RoutedBatch) -> Emitted {
    let Ingress::Source(source) = rb.ingress else {
        panic!("the pump emits source batches only");
    };
    (rb.query, source, rb.batch.created(), node, rb.batch.len())
}

/// The pump's schedule spelled out the plain way: one binary heap of
/// `(due time, slot, generation)` entries over every live source, stale
/// entries dropped when they surface, slots reused last-freed first.
#[derive(Default)]
struct ReferencePump {
    /// `(driver, node, generation)` per slot.
    slots: Vec<(Option<SourceDriver>, usize, u64)>,
    free: Vec<usize>,
    due: BinaryHeap<Reverse<(Timestamp, usize, u64)>>,
}

impl ReferencePump {
    fn add(&mut self, now: Timestamp, bindings: &[SourceBinding]) {
        for b in bindings {
            let mut driver = SourceDriver::new(b.query, &b.spec, b.profile, b.seed);
            driver.start_at(now);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push((None, 0, 0));
                self.slots.len() - 1
            });
            let s = &mut self.slots[slot];
            self.due.push(Reverse((driver.next_time(), slot, s.2)));
            *s = (Some(driver), b.node, s.2);
        }
    }

    fn remove(&mut self, query: QueryId) {
        for (idx, s) in self.slots.iter_mut().enumerate() {
            if s.0.as_ref().is_some_and(|d| d.query == query) {
                s.0 = None;
                s.2 += 1;
                self.free.push(idx);
            }
        }
    }

    fn step(&mut self, now: Timestamp, out: &mut Vec<Emitted>) -> Option<Timestamp> {
        let mut swept = 0;
        while let Some(&Reverse((at, slot, generation))) = self.due.peek() {
            let (driver, node, current) = &mut self.slots[slot];
            if *current != generation {
                self.due.pop();
                continue;
            }
            if at > now || swept == MAX_SWEEP {
                return Some(at.max(now));
            }
            self.due.pop();
            swept += 1;
            let driver = driver.as_mut().expect("live slot");
            driver.fast_forward(now);
            let batch = driver.emit();
            self.due
                .push(Reverse((driver.next_time(), slot, generation)));
            if !batch.is_empty() {
                out.push((
                    driver.query,
                    driver.source,
                    batch.created(),
                    *node,
                    batch.len(),
                ));
            }
        }
        None
    }
}

/// Source profiles from 20 000 batches/s (50 µs apart) to one a second,
/// the longest interval a profile has; rates below the batch cadence
/// leave quiet beats that reach no sink.
const PROFILES: [(u32, u32); 10] = [
    (1, 1),
    (3, 2),
    (1, 3),
    (10, 7),
    (5, 40),
    (999, 999),
    (1_000, 1_000),
    (2, 1_500),
    (4_000, 4_000),
    (20_000, 20_000),
];

/// The pump and the reference, fed the same operations.
struct Twins {
    pump: SourcePump,
    reference: ReferencePump,
    next_source: u32,
}

impl Twins {
    fn new() -> Self {
        Twins {
            pump: SourcePump::default(),
            reference: ReferencePump::default(),
            next_source: 0,
        }
    }

    /// Installs `n` fresh sources of `query` at `now`.
    fn add(&mut self, now: Timestamp, query: u32, n: usize, profile: usize) {
        let (tps, bps) = PROFILES[profile % PROFILES.len()];
        let bindings: Vec<SourceBinding> = (0..n)
            .map(|i| {
                let id = SourceId(self.next_source);
                self.next_source += 1;
                SourceBinding {
                    query: QueryId(query),
                    spec: SourceSpec::plain(id, None, SourceKind::Generic),
                    profile: SourceProfile::steady(tps, bps, Dataset::Uniform),
                    seed: source_seed(11, id),
                    node: (query as usize + i) % 5,
                    fragment: 0,
                }
            })
            .collect();
        self.pump.add(now, bindings.iter().cloned());
        self.reference.add(now, &bindings);
    }

    fn remove(&mut self, query: u32) {
        self.pump.remove(QueryId(query));
        self.reference.remove(QueryId(query));
    }

    /// Steps both at `now`; returns the pump's answer after checking it
    /// and the emissions against the reference's.
    fn step(&mut self, now: Timestamp) -> Option<Timestamp> {
        let mut got = Vec::new();
        let next = self.pump.step(now, |node, rb| got.push(emitted(node, rb)));
        let mut want = Vec::new();
        let expected = self.reference.step(now, &mut want);
        assert_eq!(got, want, "emissions at {now}");
        assert_eq!(next, expected, "next due time after stepping at {now}");
        next
    }
}

/// Hours of virtual time a jump covers.
const HOUR_US: u64 = 3_600_000_000;

proptest! {
    /// Any sequence of adds (at the pump's time or later), removes (slots
    /// freed and reused) and steps (on schedule, a little or a lot late,
    /// hours later) emits exactly the reference's batches in the
    /// reference's order, and every step returns the reference's next due
    /// time.
    #[test]
    fn the_pump_keeps_the_reference_schedule(
        ops in prop::collection::vec((0u8..16, 0u32..6, 0usize..16, 0u64..u64::MAX / 2), 1..70)
    ) {
        let mut twins = Twins::new();
        let mut now = Timestamp::ZERO;
        let mut next = None;
        for (kind, query, n, param) in ops {
            match kind {
                0..=2 => twins.add(now, query, 1 + n % 4, param as usize),
                3 => {
                    // Added past the current bucket: seconds to hours ahead.
                    let ahead = param % (if n % 2 == 0 { 10_000_000 } else { 3 * HOUR_US });
                    twins.add(now + TimeDelta::from_micros(ahead), query, 1 + n % 3, n);
                }
                4 | 5 => twins.remove(query),
                6..=10 => {
                    // The driver's own beat: step at the returned due time.
                    now = now.max(next.unwrap_or(now));
                    next = twins.step(now);
                }
                11 | 12 => {
                    now += TimeDelta::from_micros(param % 2_500);
                    next = twins.step(now);
                }
                13 | 14 => {
                    now += TimeDelta::from_micros(param % 3_000_000);
                    next = twins.step(now);
                }
                _ => {
                    now += TimeDelta::from_micros(HOUR_US * (1 + param % 6));
                    next = twins.step(now);
                }
            }
        }
        // Drain a few more beats on the returned schedule.
        for _ in 0..20 {
            let Some(at) = next else { break };
            now = now.max(at);
            next = twins.step(now);
        }
    }
}

/// More sources due at once than one step may emit: each step stops at
/// [`MAX_SWEEP`] where the reference does and returns the same time,
/// whether stepped late, mid-storm after a remove, or hours later.
#[test]
fn sweep_capped_storms_keep_the_reference_schedule() {
    for seed in 0..3u32 {
        let mut twins = Twins::new();
        twins.add(Timestamp::ZERO, 0, 2_500, 0);
        twins.add(Timestamp::ZERO, 1, 2_000, 0);
        twins.add(Timestamp::ZERO, 2, 200, 6 + seed as usize);
        let mut now = Timestamp::from_millis(999 + 700 * seed as u64);
        assert_eq!(twins.step(now), Some(now), "cut short");
        if seed == 1 {
            twins.remove(0);
            twins.add(now, 3, 300, 1);
        }
        for _ in 0..6 {
            twins.step(now);
        }
        now += TimeDelta::from_micros(HOUR_US * (1 + seed as u64));
        let storm = twins.step(now);
        if seed != 1 {
            assert_eq!(storm, Some(now), "a storm again, hours later");
        }
        let mut next = twins.step(now);
        for _ in 0..50 {
            let Some(at) = next else { break };
            now = at;
            next = twins.step(now);
        }
    }
}
