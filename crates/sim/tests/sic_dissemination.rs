//! How many SIC updates the coordinator sends (§7.6 overhead), pinned
//! exactly. A node reads its SIC table only when its shedder runs, so the
//! coordinator feeds a node only once it has shed: an underloaded
//! deployment gets no update at all, and one where every node sheds from
//! its first tick gets Σ hosts × rounds, the paper's "every host, every
//! round" count.
//!
//! `cargo test -p themis-sim --test sic_dissemination -- --nocapture
//! counts_line` prints both rates as one `counts:` line.

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

/// Ten simulated seconds: 40 rounds of 250 ms.
const ROUNDS: u64 = 40;

/// Table-1 templates (AVG and two-fragment chains) on eight nodes, each
/// node's capacity `demand / overload`.
fn scenario(overload: f64) -> Scenario {
    let build = |capacities: Vec<u32>| {
        ScenarioBuilder::new("sic-dissemination", 31)
            .nodes(8)
            .node_capacities(capacities)
            .duration(TimeDelta::from_secs(7))
            .warmup(TimeDelta::from_secs(3))
            .stw_window(TimeDelta::from_secs(2))
            .add_queries(Template::Avg, 12, SourceProfile::emulab(Dataset::Uniform))
            .add_queries(
                Template::Cov { fragments: 2 },
                6,
                SourceProfile::emulab(Dataset::Uniform),
            )
            .add_queries(
                Template::Top5 { fragments: 2 },
                4,
                SourceProfile::emulab(Dataset::Uniform),
            )
            .build()
            .expect("valid scenario")
    };
    let demand = build(vec![u32::MAX; 8]).demand_per_node_tps();
    let scenario = build(demand.iter().map(|d| (d / overload) as u32).collect());
    assert!(
        (scenario.overload_factor() - overload).abs() < 0.01,
        "{}",
        scenario.overload_factor()
    );
    scenario
}

/// Σ over queries of the distinct nodes hosting their fragments.
fn hosts(scenario: &Scenario) -> u64 {
    let distinct = |q: &QuerySpec| {
        let mut nodes = scenario.nodes_of(q);
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len() as u64
    };
    scenario.queries.iter().map(distinct).sum()
}

/// `(updates sent, Σ hosts × rounds, simulated seconds)` of one run.
fn run(overload: f64) -> (u64, u64, f64) {
    let scenario = scenario(overload);
    let every_host_every_round = hosts(&scenario) * ROUNDS;
    let secs = (scenario.warmup + scenario.duration).as_secs_f64();
    let report = run_scenario(scenario, SimConfig::default());
    (report.coordinator_messages, every_host_every_round, secs)
}

#[test]
fn an_underloaded_deployment_gets_no_update() {
    let (sent, _, _) = run(0.5);
    assert_eq!(sent, 0);
}

#[test]
fn a_deployment_shedding_everywhere_gets_every_host_every_round() {
    let (sent, every_host_every_round, _) = run(3.0);
    assert_eq!(every_host_every_round, 32 * ROUNDS);
    assert_eq!(sent, every_host_every_round);
}

#[test]
fn counts_line() {
    let (under, _, secs) = run(0.5);
    let (over, _, _) = run(3.0);
    println!(
        "counts: underloaded_updates_per_s={} overloaded_3x_updates_per_s={}",
        under as f64 / secs,
        over as f64 / secs
    );
}
