//! Trace replay on the engine: sources driven by a recorded arrival
//! shape ([`RatePattern::Trace`]), with an accuracy gate.
//!
//! The paper's evaluation replays real arrival traces rather than
//! synthetic steady rates; this experiment does the same against the
//! sharded engine. A trace file (CSV/JSON, see `themis_workloads::traces`)
//! is loaded, validated and replayed by every source of an AVG-query
//! cohort on one node, with the node's capacity pinned *below* the
//! trace's peaks so the shape actually forces shedding.
//!
//! The gate ([`claims`]):
//!
//! 1. **replay accuracy** — tuples arriving at the node must match the
//!    trace-declared expectation (`rate × horizon ×
//!    mean_factor_over(horizon)`, exact even over partial cycles) within
//!    [`TRACE_ACCURACY_TOLERANCE`];
//! 2. **fairness under the shape** — Jain's index across the queries
//!    stays ≥ [`TRACE_JAIN_FLOOR`] under `balance-sic`;
//! 3. the replay must have **shed something** (a trace that never
//!    overloads gates nothing).

use std::sync::Arc;
use std::time::Duration;

use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_query::prelude::Template;
use themis_workloads::prelude::*;

use crate::table::{f, Claim, TextTable};

/// Allowed relative error between arrived tuples and the trace-declared
/// expectation.
pub const TRACE_ACCURACY_TOLERANCE: f64 = 0.15;

/// Jain floor across the replaying queries under `balance-sic`.
pub const TRACE_JAIN_FLOOR: f64 = 0.90;

/// Outcome of the trace-replay experiment.
#[derive(Debug, Default)]
pub struct TraceOutcome {
    /// Trace file replayed.
    pub file: String,
    /// Registered trace name.
    pub trace_name: String,
    /// Replay beat in milliseconds (after any `--beat-ms` rescale).
    pub beat_ms: f64,
    /// Beats per cycle.
    pub beats: usize,
    /// The trace's declared long-run mean factor.
    pub mean_factor: f64,
    /// Queries replaying the trace.
    pub queries: usize,
    /// Measured horizon in seconds (engine start to finish).
    pub horizon_s: f64,
    /// Trace-declared expected arrivals over the horizon.
    pub expected_tuples: f64,
    /// Tuples that actually arrived at the node.
    pub arrived_tuples: u64,
    /// Jain's index over the queries' mean SIC.
    pub jain: f64,
    /// Fraction of arrived tuples shed.
    pub shed_fraction: f64,
    /// Shedding ticks fired.
    pub ticks: u64,
}

impl TraceOutcome {
    /// Relative replay error.
    pub fn accuracy_error(&self) -> f64 {
        (self.arrived_tuples as f64 - self.expected_tuples).abs() / self.expected_tuples.max(1.0)
    }
}

/// The replay-accuracy and fairness-under-shape gate.
pub fn claims(out: &TraceOutcome) -> Vec<Claim> {
    vec![
        Claim::at_most(
            "accuracy_error",
            out.accuracy_error(),
            TRACE_ACCURACY_TOLERANCE,
        ),
        Claim::at_least("jain", out.jain, TRACE_JAIN_FLOOR),
        Claim::above("shed_fraction", out.shed_fraction, 0.0),
    ]
}

/// Replays `data` (already loaded/validated) through `queries` AVG
/// queries on one node for `secs` seconds of measurement, under
/// `balance-sic` with the node capacity pinned at 0.9× the expected
/// demand over the planned window — below the replayed slice's mean.
pub fn trace_replay(data: Arc<TraceData>, secs: u64, seed: u64) -> TraceOutcome {
    let queries = 8usize;
    let rate = 200u32;
    let trace_id = (*data).clone().register();
    let pattern = RatePattern::Trace { trace: trace_id };
    // 20 batches/s: a fine grid, so one-beat shapes quantise cleanly.
    let profile = SourceProfile::steady(rate, 20, Dataset::Uniform).with_pattern(pattern);
    let stw = TimeDelta::from_secs(2);
    let warmup = TimeDelta::from_micros(stw.as_micros() + 500_000);
    // Capacity at 0.9x the expected demand over the *planned window* (a
    // short run may only see a diurnal trace's overnight trough, so the
    // whole-cycle mean would never overload): whatever slice of the
    // shape replays, the node must shed through its busier beats.
    let planned = TimeDelta::from_micros(warmup.as_micros() + secs.max(2) * 1_000_000);
    let windowed_demand = queries as f64 * rate as f64 * data.mean_factor_over(planned);
    let capacity = (0.9 * windowed_demand) as u32;

    let scenario = ScenarioBuilder::new("trace", seed)
        .nodes(1)
        .capacity_tps(capacity)
        .stw_window(stw)
        .warmup(warmup)
        .add_queries(Template::Avg, queries, profile)
        .build()
        .expect("placement");

    let mut engine = Engine::start(
        &scenario,
        EngineConfig {
            enforce_capacity: true,
            record_series: true,
            ..Default::default()
        },
    );
    engine.run_for(Duration::from_micros(warmup.as_micros()));
    engine.run_for(Duration::from_secs(secs.max(2)));
    let horizon = engine.now();
    let report = engine.finish();

    let horizon_delta = TimeDelta(horizon.as_micros());
    let expected =
        queries as f64 * rate as f64 * horizon.as_secs_f64() * data.mean_factor_over(horizon_delta);
    let sics: Vec<f64> = report.per_query_sic.iter().map(|&(_, s)| s).collect();

    TraceOutcome {
        file: String::new(),
        trace_name: data.name().to_string(),
        beat_ms: data.beat().as_micros() as f64 / 1000.0,
        beats: data.factors().len(),
        mean_factor: data.mean_factor(),
        queries,
        horizon_s: horizon.as_secs_f64(),
        expected_tuples: expected,
        arrived_tuples: report.nodes.iter().map(|n| n.arrived_tuples).sum(),
        jain: jain_index(&sics),
        shed_fraction: report.shed_fraction(),
        ticks: report.nodes.iter().map(|n| n.ticks).sum(),
    }
}

/// Renders the trace-replay outcome.
pub fn render(out: &TraceOutcome) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Trace replay: `{}` from {} ({} beats x {:.0} ms, mean factor {:.3}) x {} queries",
            out.trace_name, out.file, out.beats, out.beat_ms, out.mean_factor, out.queries
        ),
        &[
            "horizon",
            "expected-tuples",
            "arrived-tuples",
            "error",
            "jain",
            "shed",
            "ticks",
        ],
    );
    t.row(vec![
        format!("{:.1}s", out.horizon_s),
        format!("{:.0}", out.expected_tuples),
        out.arrived_tuples.to_string(),
        format!("{:.2}%", out.accuracy_error() * 100.0),
        f(out.jain),
        format!("{:.1}%", out.shed_fraction * 100.0),
        out.ticks.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(arrived_tuples: u64, jain: f64, shed_fraction: f64) -> bool {
        let out = TraceOutcome {
            expected_tuples: 1_000_000.0,
            arrived_tuples,
            jain,
            shed_fraction,
            ..Default::default()
        };
        claims(&out).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        let high = (1_000_000.0 * (1.0 + TRACE_ACCURACY_TOLERANCE)) as u64;
        let low = (1_000_000.0 * (1.0 - TRACE_ACCURACY_TOLERANCE)) as u64;
        assert!(passes(high - 1, 0.95, 0.2));
        assert!(!passes(high + 1, 0.95, 0.2));
        assert!(passes(low + 1, 0.95, 0.2));
        assert!(!passes(low - 1, 0.95, 0.2));
        assert!(passes(1_000_000, TRACE_JAIN_FLOOR + 1e-6, 0.2));
        assert!(!passes(1_000_000, TRACE_JAIN_FLOOR - 1e-6, 0.2));
        assert!(passes(1_000_000, 0.95, 1e-9));
        assert!(!passes(1_000_000, 0.95, 0.0));
    }
}
