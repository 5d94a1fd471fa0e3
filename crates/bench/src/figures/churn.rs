//! Engine-scale query churn: a flash-crowd cohort arrives mid-run and
//! departs again, on real shard threads.
//!
//! §5 notes that converged SIC values depend on "often time-changing
//! factors such as queries' arrivals and departures"; the simulator's
//! `dynamics` experiment shows BALANCE-SIC re-converging under churn in
//! model time. This experiment exercises the same transition on the
//! **sharded engine** at 512+ nodes: every node hosts one resident AVG
//! query under its declared capacity, then a cohort of flash-crowd
//! queries ([`RatePattern::FlashCrowd`]) attaches onto half the nodes
//! ([`Engine::attach_queries`]), driving them into overload; after a few
//! spike epochs the cohort departs ([`Engine::detach_query`]) and the
//! empty incarnations tear down.
//!
//! The gate ([`claims`]): Jain's index over the **resident** queries must
//! *recover* after the cohort departs — within [`JAIN_RECOVERY_SLACK`] of
//! its pre-churn baseline — and the churn phase must actually have shed
//! tuples (otherwise the transition stressed nothing).

use std::time::Duration;

use themis_core::fairness::mean;
use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_query::prelude::Template;
use themis_workloads::prelude::*;

use super::window_means;
use crate::table::{f, Claim, TextTable};

/// Allowed Jain-index drop from the pre-churn baseline after recovery.
pub const JAIN_RECOVERY_SLACK: f64 = 0.05;

/// One measured phase of the churn run.
#[derive(Debug, Clone, Default)]
pub struct ChurnPhase {
    /// Phase name (`baseline`, `churn`, `recovery`).
    pub name: &'static str,
    /// Measurement window (logical seconds; excludes settle time).
    pub from_s: f64,
    /// End of the window.
    pub to_s: f64,
    /// Jain's index over the resident queries' mean SIC in the window.
    pub resident_jain: f64,
    /// Mean resident SIC in the window.
    pub resident_mean: f64,
    /// Mean cohort SIC in the window (0 while the cohort is away).
    pub cohort_mean: f64,
}

/// Outcome of the churn experiment.
#[derive(Debug, Default)]
pub struct ChurnOutcome {
    /// Nodes in the engine.
    pub nodes: usize,
    /// Shard threads used.
    pub shards: usize,
    /// Resident queries (one per node).
    pub residents: usize,
    /// Cohort queries that arrived and departed.
    pub cohort: usize,
    /// The measured phases.
    pub phases: Vec<ChurnPhase>,
    /// Fraction of arrived tuples shed over the whole run.
    pub shed_fraction: f64,
    /// Ticks fired across all nodes.
    pub ticks: u64,
}

impl ChurnOutcome {
    /// The named phase (the run always produces all three).
    pub fn phase(&self, name: &str) -> &ChurnPhase {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .expect("phase present")
    }
}

/// The fairness-recovery gate: resident Jain after the cohort departs
/// drops at most [`JAIN_RECOVERY_SLACK`] below the pre-churn baseline,
/// and the churn actually shed tuples.
pub fn claims(out: &ChurnOutcome) -> Vec<Claim> {
    let baseline = out.phase("baseline").resident_jain;
    let recovery = out.phase("recovery").resident_jain;
    vec![
        Claim::at_most(
            "resident_jain_drop",
            baseline - recovery,
            JAIN_RECOVERY_SLACK,
        ),
        Claim::above("shed_fraction", out.shed_fraction, 0.0),
    ]
}

/// Runs the churn scenario on the engine: `nodes` resident AVG queries
/// (one per node) under enforced node capacities, a flash-crowd cohort of
/// `nodes / 2` queries attached for the middle third and detached again.
/// `secs_per_phase` sizes the three measured phases.
pub fn churn(nodes: usize, shards: Option<usize>, secs_per_phase: u64, seed: u64) -> ChurnOutcome {
    let nodes = nodes.max(2);
    let n_cohort = nodes / 2;
    let resident_rate = 200u32;
    // Residents run at 2/3 of capacity: clean baseline, no shedding.
    let capacity = resident_rate * 3 / 2;
    let stw = TimeDelta::from_secs(2);
    let phase = Duration::from_secs(secs_per_phase.max(2));
    let profile = SourceProfile::steady(resident_rate, 5, Dataset::Uniform);
    // The cohort bursts to 4x in seeded 1 s spikes, one per 4 s epoch:
    // a shared node sees 2x demand off-spike and ~3.3x during a spike.
    let cohort_profile = profile.with_pattern(RatePattern::FlashCrowd {
        every: TimeDelta::from_secs(4),
        width: TimeDelta::from_secs(1),
        magnitude: 4.0,
    });

    let scenario = ScenarioBuilder::new("churn", seed)
        .nodes(nodes)
        .capacity_tps(capacity)
        .stw_window(stw)
        .warmup(TimeDelta::from_micros(stw.as_micros() + 500_000))
        .add_queries(Template::Avg, nodes, profile)
        .build()
        .expect("placement");
    let residents: Vec<QueryId> = scenario.queries.iter().map(|q| q.id).collect();

    let mut engine = Engine::start(
        &scenario,
        EngineConfig {
            shards,
            enforce_capacity: true,
            record_series: true,
            ..Default::default()
        },
    );
    // Warm-up, then the clean baseline phase.
    engine.run_for(Duration::from_micros(stw.as_micros() + 500_000));
    let baseline_from = engine.now();
    engine.run_for(phase);
    let baseline_to = engine.now();

    // The flash crowd arrives: half the nodes now host two queries.
    let cohort = engine.attach_queries(Template::Avg, n_cohort, cohort_profile);
    // Let the arrivals settle one STW before measuring the churn phase.
    engine.run_for(Duration::from_micros(stw.as_micros()));
    let churn_from = engine.now();
    engine.run_for(phase);
    let churn_to = engine.now();

    // The crowd departs; emptied incarnations tear down.
    for &q in &cohort {
        engine.detach_query(q);
    }
    engine.run_for(Duration::from_micros(stw.as_micros()));
    let recovery_from = engine.now();
    engine.run_for(phase);
    let recovery_to = engine.now();

    let shards_used = engine.shards();
    let report = engine.finish();

    let mut phases = Vec::new();
    for (name, from, to) in [
        ("baseline", baseline_from, baseline_to),
        ("churn", churn_from, churn_to),
        ("recovery", recovery_from, recovery_to),
    ] {
        let means = window_means(&report.sic_series, from, to);
        let of = |ids: &[QueryId]| -> Vec<f64> {
            ids.iter().filter_map(|q| means.get(q).copied()).collect()
        };
        let (resident_means, cohort_means) = (of(&residents), of(&cohort));
        phases.push(ChurnPhase {
            name,
            from_s: from.as_secs_f64(),
            to_s: to.as_secs_f64(),
            resident_jain: jain_index(&resident_means),
            resident_mean: mean(&resident_means),
            cohort_mean: mean(&cohort_means),
        });
    }

    ChurnOutcome {
        nodes,
        shards: shards_used,
        residents: residents.len(),
        cohort: cohort.len(),
        phases,
        shed_fraction: report.shed_fraction(),
        ticks: report.nodes.iter().map(|n| n.ticks).sum(),
    }
}

/// Renders the churn phases.
pub fn render(out: &ChurnOutcome) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Engine churn: {} residents + {} flash-crowd arrivals on {} nodes ({} shards, {} ticks)",
            out.residents, out.cohort, out.nodes, out.shards, out.ticks
        ),
        &[
            "phase",
            "window",
            "resident-jain",
            "resident-mean-sic",
            "cohort-mean-sic",
        ],
    );
    for p in &out.phases {
        t.row(vec![
            p.name.to_string(),
            format!("{:.1}s-{:.1}s", p.from_s, p.to_s),
            f(p.resident_jain),
            f(p.resident_mean),
            f(p.cohort_mean),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(baseline: f64, recovery: f64, shed_fraction: f64) -> bool {
        let phase = |name, resident_jain| ChurnPhase {
            name,
            resident_jain,
            ..Default::default()
        };
        let phases = vec![phase("baseline", baseline), phase("recovery", recovery)];
        let out = ChurnOutcome {
            phases,
            shed_fraction,
            ..Default::default()
        };
        claims(&out).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        let edge = 0.9 - JAIN_RECOVERY_SLACK;
        assert!(passes(0.9, edge + 1e-6, 0.2));
        assert!(!passes(0.9, edge - 1e-6, 0.2));
        assert!(passes(0.9, 0.9, 1e-9));
        assert!(!passes(0.9, 0.9, 0.0));
    }
}
