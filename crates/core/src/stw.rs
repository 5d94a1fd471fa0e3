//! Source time window (STW) accounting (§4 concept, §6 approximation).
//!
//! The STW is the interval over which source tuples are related to the result
//! tuples they contribute to. THEMIS approximates the STW with a sliding
//! window: a ring of per-slide accumulators covering the last
//! `window / slide` slides. Two users sit on top of the ring:
//!
//! * [`SourceRateEstimator`] / [`SourceSicAssigner`] count tuples per source
//!   and (re)assign source SIC values per slide, Eq. 1 — this is how the
//!   implementation relaxes Assumption 2 (a-priori known source rates);
//! * [`ResultSicTracker`] sums the SIC of result tuples arriving at the root
//!   operator, Eq. 4, producing the continuously updated `qSIC` value.

use std::collections::HashMap;

use crate::ids::{QueryId, SourceId};
use crate::sic::Sic;
use crate::time::{TimeDelta, Timestamp};
use crate::tuple::Batch;

/// STW parameters. The paper uses `window = 10 s`, `slide = 250 ms`
/// (the shedding interval) throughout the evaluation (§7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StwConfig {
    /// Length of the source time window.
    pub window: TimeDelta,
    /// Slide of the sliding-window approximation.
    pub slide: TimeDelta,
}

impl StwConfig {
    /// The evaluation default: 10 s window, 250 ms slide.
    pub const PAPER_DEFAULT: StwConfig = StwConfig {
        window: TimeDelta(10_000_000),
        slide: TimeDelta(250_000),
    };

    /// Creates a config, clamping the slide into `(0, window]`.
    pub fn new(window: TimeDelta, slide: TimeDelta) -> Self {
        let slide = if slide.is_zero() || slide > window {
            window
        } else {
            slide
        };
        StwConfig { window, slide }
    }

    /// Number of slides covering one window (at least 1).
    pub fn n_slides(&self) -> usize {
        (self.window.div(self.slide).max(1)) as usize
    }

    /// Index of the slide containing `t`.
    fn slide_index(&self, t: Timestamp) -> u64 {
        t.as_micros() / self.slide.as_micros().max(1)
    }
}

impl Default for StwConfig {
    fn default() -> Self {
        StwConfig::PAPER_DEFAULT
    }
}

/// A ring of per-slide `f64` accumulators implementing the sliding STW.
#[derive(Debug, Clone)]
pub struct SlidingAccumulator {
    cfg: StwConfig,
    slots: Vec<f64>,
    /// Absolute index of the slide currently written to.
    current: u64,
    /// Number of slides observed since the *first* `add`, capped at the
    /// ring length; used to extrapolate totals while the window is still
    /// filling up. Counting from the first observation (not from
    /// creation) matters for sources that start emitting mid-run — e.g.
    /// for a query arriving at time T, `|T_s|` must be extrapolated from
    /// the slides seen since T, or Eq. 1 would inflate its tuples' SIC.
    filled: usize,
    /// Whether any value has been added yet.
    started: bool,
}

impl SlidingAccumulator {
    /// Creates an empty accumulator.
    pub fn new(cfg: StwConfig) -> Self {
        let n = cfg.n_slides();
        SlidingAccumulator {
            cfg,
            slots: vec![0.0; n],
            current: 0,
            filled: 1,
            started: false,
        }
    }

    /// Advances the ring so that `now` falls into the current slide, zeroing
    /// any slides skipped over. Before the first `add` this is a no-op: the
    /// window only starts existing once there is data.
    pub fn advance_to(&mut self, now: Timestamp) {
        if !self.started {
            return;
        }
        let target = self.cfg.slide_index(now);
        if target <= self.current {
            return;
        }
        let n = self.slots.len() as u64;
        let steps = (target - self.current).min(n);
        for k in 1..=steps {
            let idx = ((self.current + k) % n) as usize;
            self.slots[idx] = 0.0;
        }
        self.filled = (self.filled + (target - self.current) as usize).min(self.slots.len());
        self.current = target;
    }

    /// Adds `v` into the slide containing `now` (advancing first).
    pub fn add(&mut self, now: Timestamp, v: f64) {
        if !self.started {
            self.started = true;
            self.current = self.cfg.slide_index(now);
            self.filled = 1;
        } else {
            self.advance_to(now);
        }
        let idx = (self.current % self.slots.len() as u64) as usize;
        self.slots[idx] += v;
    }

    /// Sum over the whole window.
    pub fn total(&self) -> f64 {
        self.slots.iter().sum()
    }

    /// Sum extrapolated to a full window while the ring is still filling:
    /// scales the observed total by `n_slides / filled`. Once the window has
    /// been seen fully, this equals [`SlidingAccumulator::total`].
    pub fn total_extrapolated(&self) -> f64 {
        let total = self.total();
        if self.filled >= self.slots.len() {
            total
        } else {
            total * self.slots.len() as f64 / self.filled.max(1) as f64
        }
    }

    /// The configured STW parameters.
    pub fn config(&self) -> StwConfig {
        self.cfg
    }
}

/// Counts tuples per source over the STW to estimate `|T_s|` (Eq. 1's
/// denominator) online, relaxing Assumption 2 to time-varying rates.
#[derive(Debug, Clone)]
pub struct SourceRateEstimator {
    acc: SlidingAccumulator,
}

impl SourceRateEstimator {
    /// Creates an estimator for one source.
    pub fn new(cfg: StwConfig) -> Self {
        SourceRateEstimator {
            acc: SlidingAccumulator::new(cfg),
        }
    }

    /// Records `n` tuples emitted at time `now`.
    pub fn observe(&mut self, now: Timestamp, n: u64) {
        self.acc.add(now, n as f64);
    }

    /// Estimated number of tuples this source emits per STW. At least 1 so
    /// Eq. 1 stays finite.
    pub fn tuples_per_stw(&mut self, now: Timestamp) -> u64 {
        self.acc.advance_to(now);
        (self.acc.total_extrapolated().round() as u64).max(1)
    }
}

/// Assigns Eq.-1 SIC values to source batches of one query, per slide.
///
/// THEMIS stamps the SIC values of source tuples online, before handing them
/// to downstream operators (§6 "SIC maintenance"). The assigner observes the
/// tuple counts of every source, estimates per-STW rates and re-stamps each
/// batch uniformly.
#[derive(Debug)]
pub struct SourceSicAssigner {
    cfg: StwConfig,
    n_sources: usize,
    rates: HashMap<SourceId, SourceRateEstimator>,
}

impl SourceSicAssigner {
    /// Creates an assigner for a query with `n_sources` sources (known
    /// a-priori; the paper considers queries with fixed sources).
    pub fn new(cfg: StwConfig, n_sources: usize) -> Self {
        SourceSicAssigner {
            cfg,
            n_sources: n_sources.max(1),
            rates: HashMap::new(),
        }
    }

    /// Number of sources the query reads from.
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// Observes and stamps one source batch: updates the source's rate
    /// estimate and assigns every tuple `1 / (|T_s| · |S|)`.
    ///
    /// Batches without a source id are left untouched (they are derived
    /// batches and already carry propagated SIC values).
    pub fn stamp(&mut self, now: Timestamp, batch: &mut Batch) {
        let Some(source) = batch.source() else {
            return;
        };
        let cfg = self.cfg;
        let est = self
            .rates
            .entry(source)
            .or_insert_with(|| SourceRateEstimator::new(cfg));
        est.observe(now, batch.len() as u64);
        let per_stw = est.tuples_per_stw(now);
        let sic = Sic::source_tuple(per_stw, self.n_sources);
        batch.assign_uniform_sic(sic);
    }
}

/// Tracks the result SIC of queries per Eq. 4: the sum of result-tuple SIC
/// values over the sliding STW.
#[derive(Debug, Default)]
pub struct ResultSicTracker {
    cfg: StwConfig,
    per_query: HashMap<QueryId, SlidingAccumulator>,
}

impl ResultSicTracker {
    /// Creates a tracker.
    pub fn new(cfg: StwConfig) -> Self {
        ResultSicTracker {
            cfg,
            per_query: HashMap::new(),
        }
    }

    /// Records result tuples carrying `sic_sum` aggregate SIC for `query`.
    pub fn record(&mut self, now: Timestamp, query: QueryId, sic_sum: Sic) {
        let cfg = self.cfg;
        self.per_query
            .entry(query)
            .or_insert_with(|| SlidingAccumulator::new(cfg))
            .add(now, sic_sum.value());
    }

    /// The current `qSIC` of `query`, clamped into `[0, 1]`.
    pub fn query_sic(&mut self, now: Timestamp, query: QueryId) -> Sic {
        match self.per_query.get_mut(&query) {
            Some(acc) => {
                acc.advance_to(now);
                Sic(acc.total()).clamp_unit()
            }
            None => Sic::ZERO,
        }
    }

    /// The raw (unclamped) windowed SIC sum; useful in tests validating the
    /// STW approximation error.
    pub fn query_sic_raw(&mut self, now: Timestamp, query: QueryId) -> Sic {
        match self.per_query.get_mut(&query) {
            Some(acc) => {
                acc.advance_to(now);
                Sic(acc.total())
            }
            None => Sic::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn cfg_1s_4slides() -> StwConfig {
        StwConfig::new(TimeDelta::from_secs(1), TimeDelta::from_millis(250))
    }

    #[test]
    fn config_defaults_and_slides() {
        let c = StwConfig::PAPER_DEFAULT;
        assert_eq!(c.n_slides(), 40);
        let c2 = StwConfig::new(TimeDelta::from_secs(1), TimeDelta::ZERO);
        assert_eq!(c2.slide, TimeDelta::from_secs(1));
        assert_eq!(c2.n_slides(), 1);
    }

    #[test]
    fn sliding_accumulator_expires_old_slides() {
        let mut acc = SlidingAccumulator::new(cfg_1s_4slides());
        acc.add(Timestamp::from_millis(0), 10.0);
        acc.add(Timestamp::from_millis(300), 5.0);
        assert_eq!(acc.total(), 15.0);
        // 1.2 s later the first two slides have fallen out of the window.
        acc.advance_to(Timestamp::from_millis(1300));
        assert_eq!(acc.total(), 0.0);
    }

    #[test]
    fn sliding_accumulator_partial_expiry() {
        let mut acc = SlidingAccumulator::new(cfg_1s_4slides());
        acc.add(Timestamp::from_millis(0), 1.0);
        acc.add(Timestamp::from_millis(250), 2.0);
        acc.add(Timestamp::from_millis(500), 4.0);
        acc.add(Timestamp::from_millis(750), 8.0);
        assert_eq!(acc.total(), 15.0);
        // Advancing one slide drops the oldest slot (value 1.0).
        acc.advance_to(Timestamp::from_millis(1000));
        assert_eq!(acc.total(), 14.0);
    }

    #[test]
    fn extrapolation_while_filling() {
        let mut acc = SlidingAccumulator::new(cfg_1s_4slides());
        acc.add(Timestamp::from_millis(0), 100.0);
        // Only 1 of 4 slides observed -> scale by 4.
        assert_eq!(acc.total_extrapolated(), 400.0);
        acc.add(Timestamp::from_millis(250), 100.0);
        assert_eq!(acc.total_extrapolated(), 400.0);
        acc.add(Timestamp::from_millis(500), 100.0);
        acc.add(Timestamp::from_millis(750), 100.0);
        assert_eq!(acc.total_extrapolated(), 400.0);
        // Window full: no more extrapolation.
        assert_eq!(acc.total(), 400.0);
    }

    #[test]
    fn rate_estimator_tracks_constant_rate() {
        let cfg = cfg_1s_4slides();
        let mut est = SourceRateEstimator::new(cfg);
        // 400 tuples/s in 80-tuple batches every 200 ms (the local test-bed
        // source profile of Table 2).
        for i in 0..20 {
            est.observe(Timestamp::from_millis(i * 200), 80);
        }
        let per_stw = est.tuples_per_stw(Timestamp::from_millis(3800));
        // 1 s window at 400 t/s => ~400 tuples.
        assert!((350..=450).contains(&per_stw), "estimate {per_stw}");
    }

    #[test]
    fn assigner_stamps_eq1_values() {
        let cfg = cfg_1s_4slides();
        let mut assigner = SourceSicAssigner::new(cfg, 2);
        let mk = |ts: u64| {
            Batch::from_source(
                QueryId(0),
                SourceId(0),
                Timestamp::from_millis(ts),
                (0..10)
                    .map(|i| Tuple::measurement(Timestamp::from_millis(ts), Sic::ZERO, i as f64))
                    .collect(),
            )
        };
        // Steady 10 tuples / 250 ms => 40 tuples per 1 s STW.
        let mut last = mk(0);
        for ts in (0..3000).step_by(250) {
            last = mk(ts);
            assigner.stamp(Timestamp::from_millis(ts), &mut last);
        }
        let expected = Sic::source_tuple(40, 2);
        let got = last.iter().next().unwrap().sic;
        assert!(
            (got.value() - expected.value()).abs() / expected.value() < 0.15,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn assigner_ignores_derived_batches() {
        let cfg = cfg_1s_4slides();
        let mut assigner = SourceSicAssigner::new(cfg, 2);
        let mut derived = Batch::new(
            QueryId(0),
            Timestamp(0),
            vec![Tuple::measurement(Timestamp(0), Sic(0.7), 1.0)],
        );
        assigner.stamp(Timestamp(0), &mut derived);
        assert_eq!(derived.sic(), Sic(0.7));
    }

    #[test]
    fn result_tracker_windows_out() {
        let cfg = cfg_1s_4slides();
        let mut tracker = ResultSicTracker::new(cfg);
        let q = QueryId(3);
        tracker.record(Timestamp::from_millis(0), q, Sic(0.4));
        tracker.record(Timestamp::from_millis(400), q, Sic(0.4));
        assert_eq!(tracker.query_sic(Timestamp::from_millis(500), q), Sic(0.8));
        // After the STW passes, the SIC decays to zero.
        assert_eq!(
            tracker.query_sic(Timestamp::from_millis(2000), q),
            Sic::ZERO
        );
    }

    #[test]
    fn result_tracker_clamps_to_unit() {
        let cfg = cfg_1s_4slides();
        let mut tracker = ResultSicTracker::new(cfg);
        let q = QueryId(0);
        tracker.record(Timestamp(0), q, Sic(0.9));
        tracker.record(Timestamp(1), q, Sic(0.9));
        assert_eq!(tracker.query_sic(Timestamp(2), q), Sic::PERFECT);
        assert!(tracker.query_sic_raw(Timestamp(2), q).value() > 1.0);
    }

    #[test]
    fn unknown_query_reads_zero() {
        let mut tracker = ResultSicTracker::new(cfg_1s_4slides());
        assert_eq!(tracker.query_sic(Timestamp(0), QueryId(9)), Sic::ZERO);
    }
}
