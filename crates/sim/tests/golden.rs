//! Golden simulator ledger: one small mixed deployment under three configs,
//! pinned bit for bit. The constants were recorded at the commit before the
//! simulator and the engine started sharing one node core
//! (`themis_query::node`), so a flipped bit here is a behaviour change of
//! that refactor — a bug, not a golden update.

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

/// Per-node capacity: a third of the ~3 800 t/s each node is offered.
const CAPACITY_TPS: u32 = 1275;

/// Three Table-1 templates (AVG and two two-fragment chains) on four
/// nodes, 3x overloaded, ten simulated seconds.
fn scenario() -> Scenario {
    let scenario = ScenarioBuilder::new("golden", 25)
        .nodes(4)
        .capacity_tps(CAPACITY_TPS)
        .duration(TimeDelta::from_secs(7))
        .warmup(TimeDelta::from_secs(3))
        .stw_window(TimeDelta::from_secs(2))
        .add_queries(Template::Avg, 6, SourceProfile::emulab(Dataset::Uniform))
        .add_queries(
            Template::Cov { fragments: 2 },
            4,
            SourceProfile::emulab(Dataset::Uniform),
        )
        .add_queries(
            Template::Top5 { fragments: 2 },
            2,
            SourceProfile::emulab(Dataset::Uniform),
        )
        .build()
        .expect("valid golden scenario");
    assert_eq!(scenario.overload_factor(), 3.0);
    scenario
}

/// Everything the ledger pins of one run.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    mean_sic: u64,
    jain: u64,
    shed_fraction: u64,
    coordinator_messages: u64,
    /// Per node: `(arrived, kept, shed)` tuples.
    nodes: Vec<(u64, u64, u64)>,
}

fn ledger(config: SimConfig) -> Ledger {
    let report = run_scenario(scenario(), config);
    Ledger {
        mean_sic: report.mean_sic().to_bits(),
        jain: report.jain().to_bits(),
        shed_fraction: report.shed_fraction().to_bits(),
        coordinator_messages: report.coordinator_messages,
        nodes: report
            .nodes
            .iter()
            .map(|n| (n.arrived_tuples, n.kept_tuples, n.shed_tuples))
            .collect(),
    }
}

#[test]
fn balance_sic_default() {
    assert_eq!(
        ledger(SimConfig::default()),
        Ledger {
            mean_sic: 4600879814376886460,
            jain: 4606948026817001293,
            shed_fraction: 4604352435676550910,
            coordinator_messages: 720,
            nodes: vec![
                (38950, 12000, 26950),
                (39036, 12036, 27000),
                (37500, 12000, 25500),
                (37545, 12045, 25500),
            ],
        }
    );
}

/// The seeded-RNG path.
#[test]
fn random_policy() {
    let policy = lookup_policy("random").expect("builtin policy");
    assert_eq!(
        ledger(SimConfig::with_policy(policy)),
        Ledger {
            mean_sic: 4598107806059913468,
            jain: 4606117739585162704,
            shed_fraction: 4604351749534463254,
            coordinator_messages: 720,
            nodes: vec![
                (38950, 12000, 26950),
                (39048, 12048, 27000),
                (37500, 12000, 25500),
                (37550, 12050, 25500),
            ],
        }
    );
}

/// updateSIC off: nodes fall back to their locally accepted SIC mass.
#[test]
fn local_sic_fallback() {
    let config = SimConfig {
        coordinator: false,
        ..Default::default()
    };
    assert_eq!(
        ledger(config),
        Ledger {
            mean_sic: 4600162124767567224,
            jain: 4606745383098363074,
            shed_fraction: 4604351467049670700,
            coordinator_messages: 0,
            nodes: vec![
                (38950, 12000, 26950),
                (39049, 12049, 27000),
                (37500, 12000, 25500),
                (37556, 12056, 25500),
            ],
        }
    );
}
