//! Runs the *real* multi-threaded THEMIS engine (crossbeam channels, wall
//! clock ticks, measured cost model) on an overloaded federation and
//! reports fairness plus the shedder's measured execution time — the
//! live-system counterpart of the simulator examples, and the §7.6
//! overhead experiment in miniature.
//!
//! ```text
//! cargo run --release --example federated_fairness
//! ```

use themis::prelude::*;

fn build(seed: u64) -> Scenario {
    let profile = SourceProfile::steady(200, 5, Dataset::Uniform);
    ScenarioBuilder::new("federated-fairness", seed)
        .nodes(2)
        .capacity_tps(1_000_000) // capacity is enforced by synthetic cost
        .duration(TimeDelta::from_secs(6))
        .warmup(TimeDelta::from_secs(3))
        .stw_window(TimeDelta::from_secs(4))
        .add_queries(Template::Cov { fragments: 2 }, 4, profile)
        .add_queries(Template::AvgAll { fragments: 2 }, 2, profile)
        .build()
        .expect("placement")
}

fn main() {
    println!("running the threaded prototype for ~9 s per policy...\n");
    let mut rows = Vec::new();
    for policy in ["balance-sic", "random"] {
        let cfg = EngineConfig {
            policy: lookup_policy(policy).unwrap(),
            // 400 us per tuple: ~625 tuples per 250 ms interval, while
            // sources offer ~ (4*4+2*20) sources * 200 t/s spread over two
            // nodes — heavy overload.
            synthetic_cost: TimeDelta::from_micros(400),
            ..Default::default()
        };
        let report = run_engine(&build(3), cfg);
        println!(
            "{:>12}: mean SIC {:.3}, Jain {:.3}, shed {:.0}%, shedder {:.1} us/invocation",
            report.policy,
            report.fairness.mean,
            report.fairness.jain,
            report.shed_fraction() * 100.0,
            report.mean_shed_time_us()
        );
        for (q, sic) in &report.per_query_sic {
            println!("   {q}: SIC {sic:.3}");
        }
        rows.push(report);
    }
    if rows[1].mean_shed_time_us() > 0.0 {
        println!(
            "\nfair shedder costs {:.2}x the random shedder per invocation \
             (the paper reports 1.11x, §7.6)",
            rows[0].mean_shed_time_us() / rows[1].mean_shed_time_us()
        );
    }
}
