//! The paper's motivating deployment (§2.1, Figure 1): a federated
//! urban micro-climate monitoring system spanning three autonomous sites
//! (Rome, Paris, Mexico) with environmental sensors, serving a mixed
//! population of queries — some local and cheap, some spanning sites.
//!
//! The sites are permanently overloaded and Rome is the busiest (skewed
//! load, characteristic C1). The example contrasts BALANCE-SIC with
//! random shedding on exactly this deployment.
//!
//! ```text
//! cargo run --release --example microclimate
//! ```

use themis::prelude::*;

fn build(seed: u64) -> Scenario {
    // Sensors report once per 50 ms; bursty, as weather stations are.
    let sensors = SourceProfile::steady(20, 4, Dataset::PlanetLab) // non-stationary, real-world-like
        .with_pattern(RatePattern::PAPER_BURSTY);
    ScenarioBuilder::new("microclimate", seed)
        .nodes(3) // Rome, Paris, Mexico
        // Rome's data centre is the smallest (heterogeneous capacities).
        .node_capacities(vec![250, 500, 500])
        .link_latency(TimeDelta::from_millis(50)) // intercontinental
        .duration(TimeDelta::from_secs(30))
        .warmup(TimeDelta::from_secs(12))
        // "The 10 highest CO concentrations every minute" — top-k over
        // sensors at two sites.
        .add_queries(Template::Top5 { fragments: 2 }, 3, sensors)
        // "Covariance between temperature and airflow in Paris" — local
        // two-sensor correlation queries, federated over 3 sites.
        .add_queries(Template::Cov { fragments: 3 }, 6, sensors)
        // City-wide average temperature, aggregated from all sites.
        .add_queries(Template::AvgAll { fragments: 3 }, 4, sensors)
        .build()
        .expect("3-site placement")
}

fn main() {
    println!("federated micro-climate monitoring: 3 sites, 13 queries\n");
    let scenario = build(7);
    println!(
        "per-site demand: {:?} t/s, capacities {:?} t/s",
        scenario
            .demand_per_node_tps()
            .iter()
            .map(|d| d.round())
            .collect::<Vec<_>>(),
        scenario.node_capacity_tps,
    );

    for policy in ["balance-sic", "random"] {
        let policy = lookup_policy(policy).unwrap();
        let report = run_scenario(build(7), SimConfig::with_policy(policy));
        println!(
            "\n{:>12}: mean SIC {:.3}, Jain {:.3}, std {:.3}, shed {:.0}%",
            report.policy,
            report.mean_sic(),
            report.jain(),
            report.fairness.std,
            report.shed_fraction() * 100.0
        );
        for q in &report.per_query {
            println!(
                "   {} {:<8} {} fragments  SIC {:.3}",
                q.query, q.template, q.fragments, q.mean_sic
            );
        }
    }
    println!(
        "\nBALANCE-SIC equalises processing quality across the federation\n\
         even though Rome is twice as loaded as the other sites."
    );
}
