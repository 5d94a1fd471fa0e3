//! Correlated vs independent bursts: one hidden load process modulating
//! every source at once, against a control where the same pattern runs
//! per-source with independent seeds.
//!
//! Load shedders are easiest on workloads whose bursts de-phase: with
//! independent flash crowds, at any instant only a few sources spike and
//! a node's aggregate barely moves. A *correlated* burst
//! ([`ScenarioBuilder::with_correlated_load`]) removes that averaging —
//! every source triples at the same moment, so the shedder faces the
//! full swing. Both runs here have **identical declared mean demand**
//! (the shared and per-source patterns are the same process), so any
//! fairness difference is attributable to the correlation alone.
//!
//! The gate ([`claims`]): under `balance-sic` the correlated run's Jain
//! index must stay within [`CORRELATED_JAIN_SLACK`] of the
//! independent-burst control, and the correlated run must actually shed
//! — a declared-fairness property under simultaneous overload, not just
//! steady state.

use std::time::Duration;

use themis_core::fairness::mean;
use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_query::prelude::Template;
use themis_workloads::prelude::*;

use crate::table::{f, Claim, TextTable};

/// Allowed Jain drop of the correlated run below the independent control.
pub const CORRELATED_JAIN_SLACK: f64 = 0.05;

/// One arm of the comparison.
#[derive(Debug, Default)]
pub struct CorrelatedArm {
    /// Arm name (`correlated` or `independent`).
    pub name: &'static str,
    /// Jain's index over per-query mean SIC.
    pub jain: f64,
    /// Mean per-query SIC.
    pub mean_sic: f64,
    /// Fraction of arrived tuples shed.
    pub shed_fraction: f64,
    /// Tuples that arrived across all nodes.
    pub arrived_tuples: u64,
}

/// Outcome of the correlated-burst experiment.
#[derive(Debug, Default)]
pub struct CorrelatedOutcome {
    /// Nodes in each engine run.
    pub nodes: usize,
    /// Queries in each run.
    pub queries: usize,
    /// The two arms: `correlated` first, `independent` second.
    pub arms: Vec<CorrelatedArm>,
    /// Declared mean demand per node (identical across arms).
    pub demand_per_node_tps: f64,
    /// Enforced node capacity.
    pub capacity_tps: u32,
}

impl CorrelatedOutcome {
    /// The named arm.
    pub fn arm(&self, name: &str) -> &CorrelatedArm {
        self.arms.iter().find(|a| a.name == name).expect("arm")
    }
}

/// The fairness gate: correlated Jain at most [`CORRELATED_JAIN_SLACK`]
/// below the independent control, with real shedding in the correlated
/// arm.
pub fn claims(out: &CorrelatedOutcome) -> Vec<Claim> {
    let corr = out.arm("correlated");
    vec![
        Claim::at_most(
            "jain_drop_vs_independent",
            out.arm("independent").jain - corr.jain,
            CORRELATED_JAIN_SLACK,
        ),
        Claim::above("shed_fraction", corr.shed_fraction, 0.0),
    ]
}

/// Runs both arms: 16 AVG queries over 4 nodes, flash-crowd pattern
/// (1 s spike at 3x per 4 s epoch), shared in the `correlated` arm and
/// per-source in the `independent` control. Capacity sits at the mean
/// demand, so the correlated spikes swing well past it.
pub fn correlated(secs: u64, seed: u64) -> CorrelatedOutcome {
    let nodes = 4usize;
    let queries = 16usize;
    let rate = 200u32;
    let burst = RatePattern::FlashCrowd {
        every: TimeDelta::from_secs(4),
        width: TimeDelta::from_secs(1),
        magnitude: 3.0,
    };
    let base = SourceProfile::steady(rate, 10, Dataset::Uniform);
    // Mean demand/node: 4 queries x 200 t/s x 1.5 (burst mean) = 1200.
    let capacity = (queries / nodes) as f64 * rate as f64 * burst.mean_factor();
    let stw = TimeDelta::from_secs(2);
    let warmup = TimeDelta::from_micros(stw.as_micros() + 500_000);
    let secs = secs.max(2);

    let run = |correlated: bool| -> CorrelatedArm {
        let mut b = ScenarioBuilder::new(
            if correlated {
                "correlated"
            } else {
                "independent"
            },
            seed,
        )
        .nodes(nodes)
        .capacity_tps(capacity as u32)
        .stw_window(stw)
        .warmup(warmup);
        if correlated {
            // One hidden process, one seed: every source spikes together.
            b = b.with_correlated_load(burst, seed ^ 0xC0FFEE);
            b = b.add_queries(Template::Avg, queries, base);
        } else {
            // The same pattern as each source's own: per-driver seeds, so
            // the spikes land at independent offsets.
            b = b.add_queries(Template::Avg, queries, base.with_pattern(burst));
        }
        let scenario = b.build().expect("placement");
        debug_assert!(
            (scenario.total_demand_tps() - nodes as f64 * capacity).abs() < 1e-6,
            "both arms declare identical demand"
        );
        let mut engine = Engine::start(
            &scenario,
            EngineConfig {
                enforce_capacity: true,
                record_series: true,
                ..Default::default()
            },
        );
        engine.run_for(Duration::from_micros(warmup.as_micros()));
        engine.run_for(Duration::from_secs(secs));
        let report = engine.finish();
        let sics: Vec<f64> = report.per_query_sic.iter().map(|&(_, s)| s).collect();
        CorrelatedArm {
            name: if correlated {
                "correlated"
            } else {
                "independent"
            },
            jain: jain_index(&sics),
            mean_sic: mean(&sics),
            shed_fraction: report.shed_fraction(),
            arrived_tuples: report.nodes.iter().map(|n| n.arrived_tuples).sum(),
        }
    };

    CorrelatedOutcome {
        nodes,
        queries,
        arms: vec![run(true), run(false)],
        demand_per_node_tps: capacity,
        capacity_tps: capacity as u32,
    }
}

/// Renders the two arms side by side.
pub fn render(out: &CorrelatedOutcome) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Correlated bursts: {} queries / {} nodes, capacity {} t/s at the declared mean",
            out.queries, out.nodes, out.capacity_tps
        ),
        &["arm", "jain", "mean-sic", "shed", "arrived-tuples"],
    );
    for a in &out.arms {
        t.row(vec![
            a.name.to_string(),
            f(a.jain),
            f(a.mean_sic),
            format!("{:.1}%", a.shed_fraction * 100.0),
            a.arrived_tuples.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(correlated_jain: f64, shed_fraction: f64) -> bool {
        let arm = |name, jain, shed_fraction| CorrelatedArm {
            name,
            jain,
            shed_fraction,
            ..Default::default()
        };
        let out = CorrelatedOutcome {
            arms: vec![
                arm("correlated", correlated_jain, shed_fraction),
                arm("independent", 0.9, 0.1),
            ],
            ..Default::default()
        };
        claims(&out).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        let edge = 0.9 - CORRELATED_JAIN_SLACK;
        assert!(passes(edge + 1e-6, 0.2));
        assert!(!passes(edge - 1e-6, 0.2));
        assert!(passes(0.9, 1e-9));
        assert!(!passes(0.9, 0.0));
    }
}
