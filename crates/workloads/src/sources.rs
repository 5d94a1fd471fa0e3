//! Source models: batched emission under programmable **rate patterns**.
//!
//! The paper's evaluation only exercises two arrival processes — constant
//! rate and §7.4's bursty sources ("10% of the time they generate tuples
//! at 10× their normal rate"). Real federated deployments see much richer
//! workload dynamics, and load-shedding evaluations traditionally stress
//! exactly those: diurnal cycles, flash crowds, heterogeneous per-source
//! rates. [`RatePattern`] makes the arrival process a first-class,
//! composable model:
//!
//! * every pattern declares its **long-run mean rate factor**
//!   ([`RatePattern::mean_factor`]), so demand accounting
//!   ([`crate::scenario::Scenario::total_demand_tps`]) stays correct under
//!   any dynamics;
//! * patterns compose with a per-source **multiplier**
//!   ([`SourceProfile::multiplier`]), so one query can feed from
//!   heterogeneous-rate sources
//!   ([`crate::scenario::ScenarioBuilder::add_queries_with_multipliers`]);
//! * every pattern is **deterministic for a fixed seed**: replaying a
//!   driver with the same seed reproduces the exact batch-size sequence
//!   (the property tests in `crates/workloads/tests/proptests.rs` pin
//!   both guarantees).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use themis_core::prelude::*;
use themis_query::prelude::{SourceKind, SourceSpec};

use crate::datasets::{Dataset, ValueGen};
use crate::traces::{TraceData, TraceId};

/// Waveform of a [`RatePattern::Diurnal`] cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CycleShape {
    /// Smooth sinusoid from trough to peak and back over one period
    /// (starts at the trough).
    Sine,
    /// Two-level square wave: the first `duty` fraction of each period
    /// runs at the peak factor, the rest at the trough.
    Square {
        /// Fraction of the period spent at the peak, in `[0, 1]`.
        duty: f64,
    },
}

/// The emission-rate pattern of a source: a time-varying multiplier over
/// the profile's base rate.
///
/// All patterns are deterministic functions of `(elapsed time, seed)`;
/// the stochastic ones ([`RatePattern::Bursty`], the spike placement of
/// [`RatePattern::FlashCrowd`]) draw from seeded generators, so a run
/// replays exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RatePattern {
    /// Constant rate (factor 1).
    Steady,
    /// For a fraction of 1-second periods, the emission rate is multiplied
    /// by `factor` (the paper's bursty sources: `fraction = 0.1`,
    /// `factor = 10`). Periods burst independently, decided by the
    /// driver's seeded generator.
    Bursty {
        /// Fraction of periods that burst.
        fraction: f64,
        /// Rate multiplier while bursting.
        factor: u32,
    },
    /// Day/night cycle: the rate factor oscillates between `trough` and
    /// `peak` with the given `period` and waveform.
    Diurnal {
        /// Cycle length.
        period: TimeDelta,
        /// Low rate factor (`0.0` = fully quiet).
        trough: f64,
        /// High rate factor.
        peak: f64,
        /// Waveform of the cycle.
        shape: CycleShape,
    },
    /// Flash crowds replayed from a seeded spike trace: each epoch of
    /// length `every` contains one spike of length `width`, placed at a
    /// seeded offset within the epoch, during which the rate factor is
    /// `magnitude` (and 1 otherwise). [`RatePattern::flash_trace`]
    /// materialises the spike intervals for a given seed.
    FlashCrowd {
        /// Epoch length (one spike per epoch).
        every: TimeDelta,
        /// Spike length (clamped to the epoch).
        width: TimeDelta,
        /// Rate factor during a spike.
        magnitude: f64,
    },
    /// Replays the per-beat rate factors of a registered arrival trace
    /// (cyclically). Traces are loaded and validated by
    /// [`crate::traces::TraceData`] and interned in a process-global
    /// registry, so the pattern stays a `Copy` handle; the trace's
    /// declared mean feeds demand accounting exactly.
    Trace {
        /// Handle to the registered trace.
        trace: TraceId,
    },
    /// A strategic source that phase-locks its emissions against the
    /// shedder's tick: the entire volume of each `tick`-long window is
    /// dumped into the window's *first* emission beat (rate factor
    /// `tick / interval` for one beat just after the tick boundary, `0`
    /// for the rest). The long-run mean factor is exactly 1 when the
    /// emission interval divides `tick` — the source looks honest in
    /// demand accounting while probing whether just-after-tick bursts
    /// can inflate its SIC share (by the next tick those batches are the
    /// *oldest* in the buffer, exactly what a FIFO shedder keeps).
    Adversarial {
        /// The shedding-tick period the source games.
        tick: TimeDelta,
    },
}

impl RatePattern {
    /// The paper's §7.4 configuration: 10% of the time at 10× rate.
    pub const PAPER_BURSTY: RatePattern = RatePattern::Bursty {
        fraction: 0.1,
        factor: 10,
    };

    /// The declared long-run mean of the pattern's rate factor; a source
    /// with base rate `r` emits `r * multiplier * mean_factor()` tuples
    /// per second on average.
    pub fn mean_factor(&self) -> f64 {
        match *self {
            RatePattern::Steady => 1.0,
            RatePattern::Bursty { fraction, factor } => {
                let f = fraction.clamp(0.0, 1.0);
                (1.0 - f) + f * factor as f64
            }
            RatePattern::Diurnal {
                trough,
                peak,
                shape,
                ..
            } => match shape {
                CycleShape::Sine => (trough + peak) / 2.0,
                CycleShape::Square { duty } => {
                    let d = duty.clamp(0.0, 1.0);
                    d * peak + (1.0 - d) * trough
                }
            },
            RatePattern::FlashCrowd {
                every,
                width,
                magnitude,
            } => {
                let every_us = every.as_micros().max(1) as f64;
                let width_us = (width.as_micros() as f64).min(every_us);
                1.0 + (magnitude - 1.0) * width_us / every_us
            }
            RatePattern::Trace { trace } => trace.data().mean_factor(),
            RatePattern::Adversarial { .. } => 1.0,
        }
    }

    /// The spike intervals a [`RatePattern::FlashCrowd`] pattern replays
    /// for `seed` within `[0, horizon)` — the seeded trace itself, one
    /// `(start, end)` pair per epoch. Empty for every other pattern.
    pub fn flash_trace(&self, seed: u64, horizon: TimeDelta) -> Vec<(Timestamp, Timestamp)> {
        let RatePattern::FlashCrowd { every, width, .. } = *self else {
            return Vec::new();
        };
        let every_us = every.as_micros().max(1);
        let width_us = width.as_micros().min(every_us);
        let mut spikes = Vec::new();
        let mut epoch = 0u64;
        while epoch * every_us < horizon.as_micros() {
            let offset = spike_offset(seed, epoch, every_us, width_us);
            let start = epoch * every_us + offset;
            spikes.push((Timestamp(start), Timestamp(start + width_us)));
            epoch += 1;
        }
        spikes
    }
}

/// Splitmix64 finaliser over a `(seed, period)` pair: any period's draw
/// can be recomputed independently — a replayable stochastic trace
/// without storing one.
fn period_mix(seed: u64, period: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(period.wrapping_mul(0xD134_2543_DE82_EF95));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded in-epoch offset of a flash-crowd spike.
fn spike_offset(seed: u64, epoch: u64, every_us: u64, width_us: u64) -> u64 {
    let z = period_mix(seed, epoch);
    let room = every_us.saturating_sub(width_us);
    if room == 0 {
        0
    } else {
        z % (room + 1)
    }
}

/// A uniform draw in `[0, 1)` for `(seed, period)` — the hash coin the
/// stateless bursty evaluation flips per one-second period.
fn period_unit(seed: u64, period: u64) -> f64 {
    (period_mix(seed, period) >> 11) as f64 / (1u64 << 53) as f64
}

/// Stateless evaluation of `pattern`'s rate factor at `now`: a pure
/// function of `(pattern, seed, now)`, so every driver sharing the pair
/// computes the *same* factor at the same instant — the property that
/// lets one hidden load process modulate many sources coherently
/// ([`SourceProfile::with_shared_load`]). Stochastic decisions come from
/// splitmix hashes of `(seed, period)` rather than an RNG stream, so any
/// instant is evaluable independently. `interval` is the evaluating
/// source's emission interval ([`RatePattern::Adversarial`] needs it);
/// `trace` is the pre-resolved registry entry for
/// [`RatePattern::Trace`].
fn stateless_factor(
    pattern: RatePattern,
    seed: u64,
    now: Timestamp,
    interval: TimeDelta,
    trace: Option<&Arc<TraceData>>,
) -> f64 {
    match pattern {
        RatePattern::Steady => 1.0,
        RatePattern::Bursty { fraction, factor } => {
            let period = now.as_micros() / 1_000_000;
            if period_unit(seed, period) < fraction {
                factor as f64
            } else {
                1.0
            }
        }
        RatePattern::Diurnal {
            period,
            trough,
            peak,
            shape,
        } => {
            let period_us = period.as_micros().max(1);
            let phase = (now.as_micros() % period_us) as f64 / period_us as f64;
            match shape {
                CycleShape::Sine => {
                    trough
                        + (peak - trough) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
                }
                CycleShape::Square { duty } => {
                    if phase < duty.clamp(0.0, 1.0) {
                        peak
                    } else {
                        trough
                    }
                }
            }
        }
        RatePattern::FlashCrowd {
            every,
            width,
            magnitude,
        } => {
            let every_us = every.as_micros().max(1);
            let width_us = width.as_micros().min(every_us);
            let epoch = now.as_micros() / every_us;
            let offset = spike_offset(seed, epoch, every_us, width_us);
            let t_in = now.as_micros() % every_us;
            if t_in >= offset && t_in < offset + width_us {
                magnitude
            } else {
                1.0
            }
        }
        RatePattern::Trace { trace: id } => match trace {
            Some(data) => data.factor_at(now),
            None => id.data().factor_at(now),
        },
        RatePattern::Adversarial { tick } => {
            let iv = interval.as_micros().max(1);
            let tick_us = tick.as_micros().max(iv);
            if now.as_micros() % tick_us < iv {
                tick_us as f64 / iv as f64
            } else {
                0.0
            }
        }
    }
}

/// One hidden load process shared across sources: every profile carrying
/// the same `SharedLoad` evaluates the same seeded pattern at the same
/// instant, so its bursts hit all of those sources **simultaneously** —
/// correlated overload, where independent per-source patterns would
/// de-phase and average each other out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedLoad {
    /// The shared pattern (evaluated statelessly; see
    /// [`SourceProfile::with_shared_load`]).
    pub pattern: RatePattern,
    /// The load process's seed — sources sharing it see the same bursts.
    pub seed: u64,
}

/// Rate/batching profile of a source (per Table 2), plus its rate pattern
/// and heterogeneity multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceProfile {
    /// Tuples per second under the steady regime (before pattern and
    /// multiplier).
    pub tuples_per_sec: u32,
    /// Batches per second (steady batch size = rate / batches).
    pub batches_per_sec: u32,
    /// Rate pattern modulating the base rate over time.
    pub pattern: RatePattern,
    /// Per-source rate multiplier (heterogeneous rates inside one query);
    /// `1.0` leaves the base rate unchanged.
    pub multiplier: f64,
    /// Value distribution.
    pub dataset: Dataset,
    /// Optional shared (correlated) load process multiplying the
    /// source's own pattern; `None` keeps sources independent.
    pub shared: Option<SharedLoad>,
}

impl SourceProfile {
    /// A steady profile at `tuples_per_sec` in `batches_per_sec` batches.
    pub fn steady(tuples_per_sec: u32, batches_per_sec: u32, dataset: Dataset) -> Self {
        SourceProfile {
            tuples_per_sec,
            batches_per_sec,
            pattern: RatePattern::Steady,
            multiplier: 1.0,
            dataset,
            shared: None,
        }
    }

    /// The local test-bed profile of Table 2: 400 t/s in 5 batches of 80.
    pub fn local(dataset: Dataset) -> Self {
        SourceProfile::steady(400, 5, dataset)
    }

    /// The Emulab profile of Table 2: 150 t/s in 3 batches of 50.
    pub fn emulab(dataset: Dataset) -> Self {
        SourceProfile::steady(150, 3, dataset)
    }

    /// This profile under a different rate pattern.
    pub fn with_pattern(mut self, pattern: RatePattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// This profile with a per-source rate multiplier.
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier.max(0.0);
        self
    }

    /// This profile modulated by a **shared** load process: the seeded
    /// `pattern` is evaluated statelessly at each emission instant and
    /// multiplied into the source's own factor, so every source given the
    /// same `(pattern, seed)` pair bursts at the same moment
    /// ([`crate::scenario::ScenarioBuilder::with_correlated_load`]
    /// applies one pair across a whole scenario). The shared pattern's
    /// mean multiplies into [`SourceProfile::mean_rate_tps`]; the product
    /// of means is the exact long-run mean because the shared process is
    /// evaluated independently of the source's own seeded pattern.
    pub fn with_shared_load(mut self, pattern: RatePattern, seed: u64) -> Self {
        self.shared = Some(SharedLoad { pattern, seed });
        self
    }

    /// Steady batch size (before pattern and multiplier).
    pub fn batch_size(&self) -> usize {
        (self.tuples_per_sec / self.batches_per_sec.max(1)).max(1) as usize
    }

    /// Interval between batch emissions (patterns modulate batch *sizes*,
    /// never the cadence).
    pub fn interval(&self) -> TimeDelta {
        TimeDelta(1_000_000 / self.batches_per_sec.max(1) as u64)
    }

    /// The declared long-run mean emission rate in tuples/second:
    /// base rate × multiplier × the pattern's mean factor × the shared
    /// load's mean factor (if any).
    pub fn mean_rate_tps(&self) -> f64 {
        let shared = self.shared.map_or(1.0, |s| s.pattern.mean_factor());
        self.tuples_per_sec as f64 * self.multiplier * self.pattern.mean_factor() * shared
    }
}

/// Drives one source: emits timestamped, zero-SIC batches for its query
/// (the hosting node assigns Eq.-1 SIC values on arrival). Batches are
/// built as **typed columns** against the source's declared [`Schema`] —
/// appending native column values, never materialising owning tuples.
///
/// The batch cadence is fixed ([`SourceProfile::interval`]); the rate
/// pattern scales each batch's *size*. Fractional tuples carry over to
/// the next emission, so the realised long-run rate matches
/// [`SourceProfile::mean_rate_tps`] without rounding bias.
#[derive(Debug)]
pub struct SourceDriver {
    /// The source.
    pub source: SourceId,
    /// The query it feeds.
    pub query: QueryId,
    key: Option<i64>,
    /// Dictionary code of the source's tag label, for spec-compiled
    /// `GROUP BY` queries whose rows lead with a tag column.
    tag_code: Option<u32>,
    kind: SourceKind,
    schema: Schema,
    profile: SourceProfile,
    values: ValueGen,
    seed: u64,
    burst_rng: SmallRng,
    /// Periods (seconds) currently decided: (period index, bursting?).
    current_period: (u64, bool),
    /// Registry entries resolved once at construction, so the emit path
    /// never takes the trace-registry lock: the source's own pattern's
    /// trace and the shared load's trace (when either is
    /// [`RatePattern::Trace`]).
    own_trace: Option<Arc<TraceData>>,
    shared_trace: Option<Arc<TraceData>>,
    /// Fractional tuples owed from previous emissions.
    carry: f64,
    next_emission: Timestamp,
    /// Optional batch pool: when set, emitted batches are acquired from
    /// (and, downstream, recycled back into) the pool instead of being
    /// freshly allocated per emission.
    pool: Option<BatchPool>,
}

impl SourceDriver {
    /// Creates the driver; emissions are de-phased per source so batches of
    /// different sources do not all arrive at the same instant.
    pub fn new(query: QueryId, spec: &SourceSpec, profile: SourceProfile, seed: u64) -> Self {
        let mut phase_rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let phase =
            TimeDelta::from_micros(phase_rng.gen_range(0..profile.interval().as_micros().max(1)));
        let resolve = |p: RatePattern| match p {
            RatePattern::Trace { trace } => Some(trace.data()),
            _ => None,
        };
        SourceDriver {
            source: spec.id,
            query,
            key: spec.key,
            tag_code: spec.tag.as_ref().map(|t| t.code),
            kind: spec.kind,
            schema: spec.schema(),
            profile,
            values: ValueGen::new(profile.dataset, seed),
            seed,
            burst_rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D)),
            current_period: (u64::MAX, false),
            own_trace: resolve(profile.pattern),
            shared_trace: profile.shared.and_then(|s| resolve(s.pattern)),
            carry: 0.0,
            next_emission: Timestamp::ZERO + phase,
            pool: None,
        }
    }

    /// Attaches a [`BatchPool`]; subsequent [`SourceDriver::emit`] calls
    /// acquire their output batches from it instead of allocating.
    pub fn set_pool(&mut self, pool: BatchPool) {
        self.pool = Some(pool);
    }

    /// The fractional tuples currently owed to the next emission.
    pub fn carry(&self) -> f64 {
        self.carry
    }

    /// Restores a fractional-tuple balance, e.g. one stashed across a
    /// pump-slot remove/re-add of the same source, so the realised
    /// long-run rate stays unbiased over the source's whole lifetime.
    pub fn set_carry(&mut self, carry: f64) {
        self.carry = carry.clamp(0.0, 1.0);
    }

    /// When the next batch is due.
    pub fn next_time(&self) -> Timestamp {
        self.next_emission
    }

    /// Delays the first emission until `start` (plus the source's phase);
    /// used for queries that arrive mid-run.
    pub fn start_at(&mut self, start: Timestamp) {
        if self.next_emission < start {
            self.next_emission = start + (self.next_emission - Timestamp::ZERO);
        }
    }

    /// Skips whole missed beats when the schedule has fallen more than
    /// one full interval behind `now` — an overloaded pump re-anchors
    /// the driver onto the current beat (phase preserved) instead of
    /// storming catch-up batches at maximum rate. Skipped beats emit
    /// nothing, so the realised rate degrades under overload rather
    /// than backlogging unboundedly.
    pub fn fast_forward(&mut self, now: Timestamp) {
        let iv = self.profile.interval().as_micros();
        if iv == 0 || self.next_emission + self.profile.interval() >= now {
            return;
        }
        let behind = (now - self.next_emission).as_micros();
        let beats = behind / iv;
        self.next_emission += TimeDelta::from_micros(beats * iv);
    }

    /// The source's own pattern's rate factor at `now`. Bursty keeps its
    /// historical seeded RNG *stream* (mutating per-period state) so
    /// pre-existing replays stay bit-identical; every other pattern is a
    /// pure function of `(pattern, seed, now)` and delegates to the
    /// stateless evaluator shared with correlated loads.
    fn factor_at(&mut self, now: Timestamp) -> f64 {
        match self.profile.pattern {
            RatePattern::Bursty { fraction, factor } => {
                let period = now.as_micros() / 1_000_000;
                if self.current_period.0 != period {
                    self.current_period = (period, self.burst_rng.gen::<f64>() < fraction);
                }
                if self.current_period.1 {
                    factor as f64
                } else {
                    1.0
                }
            }
            pattern => stateless_factor(
                pattern,
                self.seed,
                now,
                self.profile.interval(),
                self.own_trace.as_ref(),
            ),
        }
    }

    /// Emits the batch due at `next_time()` and schedules the next one.
    /// The batch size is the base size scaled by the pattern factor and
    /// the source multiplier, with fractional tuples carried forward (a
    /// quiet diurnal trough can yield empty batches).
    pub fn emit(&mut self) -> Batch {
        let now = self.next_emission;
        let mut factor = self.factor_at(now).max(0.0);
        if let Some(shared) = self.profile.shared {
            factor *= stateless_factor(
                shared.pattern,
                shared.seed,
                now,
                self.profile.interval(),
                self.shared_trace.as_ref(),
            )
            .max(0.0);
        }
        // No minimum per batch: bases below one tuple (rate < batch
        // cadence) accumulate through the carry, so the realised rate
        // always matches `mean_rate_tps()`.
        let base = self.profile.tuples_per_sec as f64 / self.profile.batches_per_sec.max(1) as f64;
        let exact = base * self.profile.multiplier * factor + self.carry;
        let n = exact.floor().max(0.0) as usize;
        self.carry = exact - n as f64;
        // Typed column construction: rows append straight into the
        // schema's native columns — no per-tuple `Vec<Value>` allocation.
        // With a pool attached the backing columns come from recycled
        // batches.
        let mut data = match &self.pool {
            Some(pool) => pool.acquire(&self.schema, n),
            None => TupleBatch::with_schema_capacity(self.schema.clone(), n),
        };
        for _ in 0..n {
            let v = match self.kind {
                SourceKind::MemFree => self.values.mem_free_kb(now),
                _ => self.values.value(now),
            };
            match (self.tag_code, self.key) {
                (Some(code), _) => {
                    data.push_row(now, Sic::ZERO, &[Value::Tag(code), Value::F64(v)])
                }
                (None, Some(k)) => data.push_row(now, Sic::ZERO, &[Value::I64(k), Value::F64(v)]),
                (None, None) => data.push_row(now, Sic::ZERO, &[Value::F64(v)]),
            }
        }
        self.next_emission = now + self.profile.interval();
        Batch::from_source_data(self.query, self.source, now, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: SourceKind) -> SourceSpec {
        SourceSpec::plain(SourceId(3), Some(7), kind)
    }

    #[test]
    fn table2_profiles() {
        let local = SourceProfile::local(Dataset::Uniform);
        assert_eq!(local.batch_size(), 80);
        assert_eq!(local.interval(), TimeDelta::from_millis(200));
        assert_eq!(local.mean_rate_tps(), 400.0);
        let emulab = SourceProfile::emulab(Dataset::Uniform);
        assert_eq!(emulab.batch_size(), 50);
        assert_eq!(emulab.interval(), TimeDelta::from_micros(333_333));
    }

    #[test]
    fn steady_driver_emits_constant_batches() {
        let profile = SourceProfile::local(Dataset::Uniform);
        let mut d = SourceDriver::new(QueryId(1), &spec(SourceKind::Cpu), profile, 5);
        let mut last = None;
        for _ in 0..10 {
            let t = d.next_time();
            let b = d.emit();
            assert_eq!(b.len(), 80);
            assert_eq!(b.query(), QueryId(1));
            assert_eq!(b.source(), Some(SourceId(3)));
            assert_eq!(b.created(), t);
            assert!(b.iter().all(|tu| tu.sic == Sic::ZERO));
            assert_eq!(b.data().row(0).i64(0), 7, "keyed row");
            // Keyed sources emit typed columns per their declared schema.
            assert!(b.data().schema().is_some());
            assert_eq!(b.data().i64_column(0).map(|c| c[0]), Some(7));
            assert!(b.data().f64_column(1).is_some());
            if let Some(prev) = last {
                assert_eq!((t - prev), TimeDelta::from_millis(200));
            }
            last = Some(t);
        }
    }

    #[test]
    fn tagged_sources_emit_dictionary_codes() {
        use themis_query::prelude::QueryDef;
        let spec = QueryDef::parse("SELECT host, SUM(value) FROM sensors[3] GROUP BY host")
            .unwrap()
            .validate()
            .unwrap()
            .compile(QueryId(1), &mut IdGen::new())
            .into_spec();
        let profile = SourceProfile::local(Dataset::Uniform);
        for (i, s) in spec.sources.iter().enumerate() {
            let mut d = SourceDriver::new(QueryId(1), s, profile, 9 + i as u64);
            let b = d.emit();
            assert!(!b.is_empty());
            let tag = s.tag.as_ref().unwrap();
            // Rows lead with the source's dictionary code, in a typed
            // tag column resolvable against the shared interner.
            let codes = b.data().tag_column(0).unwrap();
            assert!(codes.codes().iter().all(|&c| c == tag.code));
            assert_eq!(
                codes.dict().resolve(tag.code).as_deref(),
                Some(format!("sensors-{i}").as_str())
            );
            assert!(b.data().f64_column(1).is_some());
        }
    }

    #[test]
    fn fast_forward_skips_whole_missed_beats() {
        let profile = SourceProfile::local(Dataset::Uniform); // 200 ms interval
        let iv = profile.interval();
        let mut d = SourceDriver::new(QueryId(1), &spec(SourceKind::Cpu), profile, 5);
        let first = d.next_time();

        // Not behind, or behind by at most one interval: untouched.
        d.fast_forward(first);
        assert_eq!(d.next_time(), first);
        d.fast_forward(first + TimeDelta::from_millis(150));
        assert_eq!(d.next_time(), first);

        // Behind by 2.5 intervals: skip exactly two beats, keep phase.
        d.fast_forward(first + TimeDelta::from_millis(500));
        assert_eq!(d.next_time(), first + TimeDelta::from_millis(400));
        assert_eq!((d.next_time() - first).as_micros() % iv.as_micros(), 0);
    }

    #[test]
    fn phases_differ_across_sources() {
        let profile = SourceProfile::emulab(Dataset::Uniform);
        let d1 = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 1);
        let d2 = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 2);
        assert_ne!(d1.next_time(), d2.next_time());
    }

    #[test]
    fn bursty_driver_bursts_roughly_ten_percent() {
        let profile =
            SourceProfile::emulab(Dataset::Uniform).with_pattern(RatePattern::PAPER_BURSTY);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 9);
        let mut burst_batches = 0;
        let mut total = 0;
        // 300 seconds of emissions.
        while d.next_time() < Timestamp::from_secs(300) {
            let b = d.emit();
            total += 1;
            if b.len() > 50 {
                assert_eq!(b.len(), 500, "burst factor 10");
                burst_batches += 1;
            }
        }
        let frac = burst_batches as f64 / total as f64;
        assert!((0.04..=0.2).contains(&frac), "burst fraction {frac}");
    }

    #[test]
    fn diurnal_sine_cycles_between_trough_and_peak() {
        let pattern = RatePattern::Diurnal {
            period: TimeDelta::from_secs(10),
            trough: 0.0,
            peak: 2.0,
            shape: CycleShape::Sine,
        };
        assert_eq!(pattern.mean_factor(), 1.0);
        let profile = SourceProfile::steady(100, 5, Dataset::Uniform).with_pattern(pattern);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 11);
        let mut sizes: Vec<(f64, usize)> = Vec::new();
        while d.next_time() < Timestamp::from_secs(10) {
            let t = d.next_time().as_secs_f64();
            sizes.push((t, d.emit().len()));
        }
        // Quiet near the trough (cycle start), maximal near mid-period.
        let near = |t0: f64| {
            sizes
                .iter()
                .filter(|&&(t, _)| (t - t0).abs() < 1.0)
                .map(|&(_, n)| n)
                .sum::<usize>()
        };
        assert!(
            near(0.5) < near(5.0),
            "trough {} peak {}",
            near(0.5),
            near(5.0)
        );
        // The peak reaches ~2x the steady batch size.
        assert!(sizes.iter().any(|&(_, n)| n >= 38), "peak batches missing");
        // Long-run mean ≈ declared mean rate (100 t/s).
        let total: usize = sizes.iter().map(|&(_, n)| n).sum();
        let rate = total as f64 / 10.0;
        assert!((rate - 100.0).abs() < 10.0, "mean rate {rate}");
    }

    #[test]
    fn diurnal_square_holds_two_levels() {
        let pattern = RatePattern::Diurnal {
            period: TimeDelta::from_secs(4),
            trough: 0.5,
            peak: 1.5,
            shape: CycleShape::Square { duty: 0.25 },
        };
        assert!((pattern.mean_factor() - 0.75).abs() < 1e-12);
        let profile = SourceProfile::steady(400, 4, Dataset::Uniform).with_pattern(pattern);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 3);
        let mut high = 0;
        let mut low = 0;
        while d.next_time() < Timestamp::from_secs(8) {
            let in_duty = (d.next_time().as_micros() % 4_000_000) < 1_000_000;
            let n = d.emit().len();
            if in_duty {
                assert!(n >= 149, "peak batch {n}");
                high += 1;
            } else {
                assert!(n <= 51, "trough batch {n}");
                low += 1;
            }
        }
        assert!(high >= 4 && low >= 12, "high {high} low {low}");
    }

    #[test]
    fn flash_crowd_replays_its_seeded_trace() {
        let pattern = RatePattern::FlashCrowd {
            every: TimeDelta::from_secs(5),
            width: TimeDelta::from_secs(1),
            magnitude: 8.0,
        };
        assert!((pattern.mean_factor() - 2.4).abs() < 1e-12);
        let profile = SourceProfile::steady(100, 10, Dataset::Uniform).with_pattern(pattern);
        let seed = 21;
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, seed);
        let trace = pattern.flash_trace(seed, TimeDelta::from_secs(30));
        assert_eq!(trace.len(), 6, "one spike per 5 s epoch");
        let mut spiked = 0;
        while d.next_time() < Timestamp::from_secs(30) {
            let t = d.next_time();
            let in_spike = trace.iter().any(|&(s, e)| t >= s && t < e);
            let n = d.emit().len();
            if in_spike {
                assert!(n >= 79, "spike batch only {n} tuples at {t}");
                spiked += 1;
            } else {
                assert!(n <= 11, "off-spike batch {n} tuples at {t}");
            }
        }
        assert!(spiked >= 30, "spiked batches {spiked}");
    }

    #[test]
    fn multiplier_scales_rate_and_composes_with_patterns() {
        let profile = SourceProfile::emulab(Dataset::Uniform).with_multiplier(3.0);
        assert_eq!(profile.mean_rate_tps(), 450.0);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 5);
        assert_eq!(d.emit().len(), 150, "3x the 50-tuple Emulab batch");
        // Composed with the paper's bursty pattern the mean multiplies.
        let bursty = profile.with_pattern(RatePattern::PAPER_BURSTY);
        assert!((bursty.mean_rate_tps() - 450.0 * 1.9).abs() < 1e-9);
    }

    #[test]
    fn fractional_rates_carry_over() {
        // 10 t/s in 4 batches/s: 2.5 tuples per batch alternates 2 and 3.
        let profile = SourceProfile::steady(10, 4, Dataset::Uniform);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 8);
        let sizes: Vec<usize> = (0..8).map(|_| d.emit().len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 20, "mean rate preserved");
        assert!(sizes.iter().all(|&n| n == 2 || n == 3), "{sizes:?}");
    }

    #[test]
    fn carry_survives_a_stash_and_restore() {
        // 10 t/s in 4 batches/s: 2.5 per batch — sizes alternate 2, 3.
        let profile = SourceProfile::steady(10, 4, Dataset::Uniform);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 8);
        assert_eq!(d.emit().len(), 2);
        let owed = d.carry();
        assert!((owed - 0.5).abs() < 1e-12, "carry {owed}");
        // A rebuilt driver (pump slot removed and re-added) starts at
        // carry 0; restoring the stash resumes the 2/3 alternation.
        let mut d2 = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 8);
        assert_eq!(d2.carry(), 0.0);
        d2.set_carry(owed);
        assert_eq!(d2.emit().len(), 3, "restored carry rounds up");
        // Restores are clamped to a legal fractional balance.
        d2.set_carry(7.5);
        assert_eq!(d2.carry(), 1.0);
    }

    #[test]
    fn pooled_emissions_reuse_recycled_batches() {
        let profile = SourceProfile::emulab(Dataset::Uniform);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 4);
        let pool = BatchPool::new();
        d.set_pool(pool.clone());
        let b = d.emit();
        assert_eq!(b.len(), 50);
        pool.recycle(b.into_data());
        let b2 = d.emit();
        assert_eq!(b2.len(), 50, "recycled batch refills to full size");
        let stats = pool.stats();
        assert_eq!((stats.fresh, stats.recycled, stats.reused), (1, 1, 1));
    }

    #[test]
    fn sub_batch_rates_are_not_inflated() {
        // 1 t/s in 5 batches/s: 0.2 tuples per batch — most batches are
        // empty, and the long-run rate stays 1 t/s (no per-batch minimum).
        let profile = SourceProfile::steady(1, 5, Dataset::Uniform);
        assert_eq!(profile.mean_rate_tps(), 1.0);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 6);
        let mut total = 0;
        while d.next_time() < Timestamp::from_secs(10) {
            total += d.emit().len();
        }
        assert_eq!(total, 10, "realised 10 s volume at 1 t/s");
    }

    #[test]
    fn mem_sources_emit_memory_values() {
        let profile = SourceProfile::emulab(Dataset::Uniform);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::MemFree), profile, 4);
        let b = d.emit();
        // KB scale, not 0-100.
        assert!(b.iter().any(|t| t.f64(1) > 1000.0));
    }

    #[test]
    fn trace_pattern_replays_registered_factors() {
        let trace = TraceData::from_factors(
            "unit-replay",
            TimeDelta::from_secs(1),
            vec![0.5, 2.0, 0.5, 1.0],
        )
        .unwrap()
        .register();
        let pattern = RatePattern::Trace { trace };
        assert!((pattern.mean_factor() - 1.0).abs() < 1e-12);
        // 100 t/s in 10 batches/s: base batch 10 tuples, scaled per beat.
        let profile = SourceProfile::steady(100, 10, Dataset::Uniform).with_pattern(pattern);
        assert_eq!(profile.mean_rate_tps(), 100.0);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 13);
        let mut per_beat = [0usize; 4];
        while d.next_time() < Timestamp::from_secs(8) {
            let beat = (d.next_time().as_micros() / 1_000_000) as usize % 4;
            per_beat[beat] += d.emit().len();
        }
        // Two cycles: beat volumes follow the factors (10 batches/beat).
        assert!((95..=105).contains(&per_beat[0]), "{per_beat:?}");
        assert!((395..=405).contains(&per_beat[1]), "{per_beat:?}");
        assert!((195..=205).contains(&per_beat[3]), "{per_beat:?}");
    }

    #[test]
    fn adversarial_dumps_each_ticks_volume_just_after_the_boundary() {
        let tick = TimeDelta::from_millis(250);
        let pattern = RatePattern::Adversarial { tick };
        assert_eq!(
            pattern.mean_factor(),
            1.0,
            "looks honest in demand accounting"
        );
        // 400 t/s in 20 batches/s: interval 50 ms divides the 250 ms tick.
        let profile = SourceProfile::steady(400, 20, Dataset::Uniform).with_pattern(pattern);
        assert_eq!(profile.mean_rate_tps(), 400.0);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 17);
        let mut total = 0usize;
        let mut bursts = 0usize;
        while d.next_time() < Timestamp::from_secs(10) {
            let in_window = d.next_time().as_micros() % tick.as_micros() < 50_000;
            let n = d.emit().len();
            total += n;
            if in_window {
                assert_eq!(n, 100, "the whole tick's volume lands in one beat");
                bursts += 1;
            } else {
                assert_eq!(n, 0, "silent for the rest of the tick");
            }
        }
        assert_eq!(bursts, 40, "one burst per 250 ms tick over 10 s");
        assert_eq!(
            total, 4000,
            "long-run volume matches an honest 400 t/s source"
        );
    }

    #[test]
    fn shared_load_bursts_hit_differently_seeded_sources_simultaneously() {
        let shared = RatePattern::FlashCrowd {
            every: TimeDelta::from_secs(5),
            width: TimeDelta::from_secs(1),
            magnitude: 8.0,
        };
        let shared_seed = 4242;
        let profile =
            SourceProfile::steady(100, 10, Dataset::Uniform).with_shared_load(shared, shared_seed);
        // The shared mean multiplies into demand accounting.
        assert!((profile.mean_rate_tps() - 240.0).abs() < 1e-9);
        // The spike schedule is the *shared* seed's flash trace — not
        // either driver's own seed.
        let trace = shared.flash_trace(shared_seed, TimeDelta::from_secs(30));
        for own_seed in [1u64, 2] {
            let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, own_seed);
            while d.next_time() < Timestamp::from_secs(30) {
                let t = d.next_time();
                let in_spike = trace.iter().any(|&(s, e)| t >= s && t < e);
                let n = d.emit().len();
                if in_spike {
                    assert!(n >= 79, "seed {own_seed}: spike batch only {n} at {t}");
                } else {
                    assert!(n <= 11, "seed {own_seed}: off-spike batch {n} at {t}");
                }
            }
        }
    }

    #[test]
    fn shared_load_composes_with_own_pattern() {
        let diurnal = RatePattern::Diurnal {
            period: TimeDelta::from_secs(10),
            trough: 0.5,
            peak: 1.5,
            shape: CycleShape::Sine,
        };
        let profile = SourceProfile::steady(200, 10, Dataset::Uniform)
            .with_pattern(diurnal)
            .with_shared_load(
                RatePattern::Bursty {
                    fraction: 0.5,
                    factor: 4,
                },
                77,
            );
        // 200 × 1.0 (diurnal mean) × 2.5 (bursty mean) = 500 t/s.
        assert!((profile.mean_rate_tps() - 500.0).abs() < 1e-9);
        let mut d = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 3);
        let mut total = 0usize;
        while d.next_time() < Timestamp::from_secs(120) {
            total += d.emit().len();
        }
        let rate = total as f64 / 120.0;
        assert!(
            (rate - 500.0).abs() < 50.0,
            "realised composed rate {rate} vs declared 500"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let profile = SourceProfile::local(Dataset::Mixed).with_pattern(RatePattern::FlashCrowd {
            every: TimeDelta::from_secs(2),
            width: TimeDelta::from_millis(400),
            magnitude: 5.0,
        });
        let mut a = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 77);
        let mut b = SourceDriver::new(QueryId(0), &spec(SourceKind::Cpu), profile, 77);
        for _ in 0..25 {
            assert_eq!(a.emit(), b.emit());
        }
    }
}
