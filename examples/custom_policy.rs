//! A shedding policy registered from *outside* `themis-core`.
//!
//! The shedding registry is open: a policy is a name plus a factory, and
//! [`register_shedder`] adds one to the same namespace the six paper
//! policies live in — no enum to extend, no core crate to edit. Once
//! registered, the name is a first-class citizen everywhere: the
//! simulator, the threaded engine, and `experiments --policy=<name>`.
//!
//! The example policy admits buffered batches **round-robin across
//! queries** — one batch per query per pass until the interval's tuple
//! capacity is spent. That is per-query *throughput* fairness, a natural
//! strawman against BALANCE-SIC's *SIC* fairness (Algorithm 1), and the
//! comparison below shows the difference on an overloaded mix.
//!
//! Run with: `cargo run --release --example custom_policy`

use themis::prelude::*;

/// Round-robin admission: cycle over the queries, admitting the next
/// buffered batch of each, until the capacity budget is spent.
struct RoundRobinShedder;

impl Shedder for RoundRobinShedder {
    fn select_to_keep(
        &mut self,
        capacity_tuples: usize,
        queries: &[QueryBufferState],
    ) -> ShedDecision {
        let mut cursors = vec![0usize; queries.len()];
        let mut keep = Vec::new();
        let mut kept_tuples = 0usize;
        loop {
            let mut admitted = false;
            for (qi, q) in queries.iter().enumerate() {
                while cursors[qi] < q.batches.len() {
                    let b = &q.batches[cursors[qi]];
                    cursors[qi] += 1;
                    if kept_tuples + b.tuples <= capacity_tuples {
                        keep.push(b.buffer_index);
                        kept_tuples += b.tuples;
                        admitted = true;
                        break;
                    }
                    // Too big for the remaining budget: shed it and try
                    // this query's next batch on the same pass.
                }
            }
            if !admitted {
                break;
            }
        }
        let total_tuples: usize = queries.iter().map(|q| q.buffered_tuples()).sum();
        let total_batches: usize = queries.iter().map(|q| q.batches.len()).sum();
        ShedDecision {
            shed_tuples: total_tuples - kept_tuples,
            shed_batches: total_batches - keep.len(),
            keep,
            kept_tuples,
        }
    }
}

/// An overloaded two-node mix: six 2-fragment AVG-all trees against
/// nodes sized for roughly a third of the demand.
fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new("custom-policy", seed)
        .nodes(2)
        .capacity_tps(400)
        .stw_window(TimeDelta::from_secs(3))
        .duration(TimeDelta::from_secs(12))
        .warmup(TimeDelta::from_secs(6))
        .add_queries(
            Template::AvgAll { fragments: 2 },
            6,
            SourceProfile::steady(40, 4, Dataset::Uniform),
        )
        .build()
        .unwrap()
}

fn main() {
    register_shedder("round-robin", |_seed| Box::new(RoundRobinShedder)).unwrap();
    let names: Vec<String> = registered_policies()
        .iter()
        .map(Policy::to_string)
        .collect();
    println!("registered policies: {}\n", names.join(", "));

    // The handle comes back out of the registry by name, exactly like a
    // builtin — this is the same lookup `experiments --policy=` does.
    let round_robin = lookup_policy("round-robin").unwrap();
    let balance_sic = lookup_policy("balance-sic").unwrap();

    println!("deterministic simulator, overloaded 6-query AVG-all mix:");
    for policy in [balance_sic, round_robin.clone()] {
        let report = run_scenario(scenario(11), SimConfig::with_policy(policy));
        println!(
            "  {:>12}: mean SIC {:.3}, Jain {:.3}, shed {:.0}%",
            report.policy,
            report.mean_sic(),
            report.jain(),
            report.shed_fraction() * 100.0
        );
    }

    // The same handle drives the multi-threaded engine: a synthetic
    // per-tuple cost forces overload so the custom shedder really runs.
    println!("\nthreaded engine (~2 s wall clock):");
    let engine_scn = ScenarioBuilder::new("custom-policy-engine", 13)
        .nodes(2)
        .capacity_tps(1_000_000)
        .stw_window(TimeDelta::from_secs(1))
        .duration(TimeDelta::from_secs(2))
        .warmup(TimeDelta::from_millis(500))
        .add_queries(
            Template::Avg,
            4,
            SourceProfile::steady(400, 5, Dataset::Uniform),
        )
        .build()
        .unwrap();
    let report = run_engine(
        &engine_scn,
        EngineConfig {
            policy: round_robin,
            synthetic_cost: TimeDelta::from_micros(2000),
            ..Default::default()
        },
    );
    println!(
        "  {:>12}: mean SIC {:.3}, Jain {:.3}, shed {:.0}%, {:.1} us/invocation",
        report.policy,
        report.fairness.mean,
        report.fairness.jain,
        report.shed_fraction() * 100.0,
        report.mean_shed_time_us()
    );
}
