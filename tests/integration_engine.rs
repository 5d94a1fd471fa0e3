//! Integration: the multi-threaded prototype engine against the same
//! workloads as the simulator.

use themis::prelude::*;

fn scenario(n_queries: usize, rate: u32, seed: u64) -> Scenario {
    ScenarioBuilder::new("engine-int", seed)
        .nodes(2)
        .capacity_tps(1_000_000)
        .duration(TimeDelta::from_millis(2500))
        .warmup(TimeDelta::from_millis(1200))
        .stw_window(TimeDelta::from_secs(2))
        .add_queries(
            Template::Avg,
            n_queries,
            SourceProfile::steady(rate, 5, Dataset::Uniform),
        )
        .build()
        .unwrap()
}

/// Without synthetic cost the engine keeps everything and results flow.
#[test]
fn engine_processes_everything_without_overload() {
    let report = run_engine(&scenario(4, 200, 1), EngineConfig::default());
    assert_eq!(report.shed_fraction(), 0.0);
    assert_eq!(
        report.result_counts.len(),
        4,
        "all queries produced results"
    );
    let total_results: usize = report.result_counts.values().sum();
    assert!(total_results >= 4, "results {total_results}");
    assert!(report.coordinator_messages > 0);
}

/// Synthetic per-tuple cost turns the same workload into an overloaded
/// one: tuples are shed, the shedder's execution time is measured.
#[test]
fn engine_sheds_under_synthetic_cost() {
    // Per node: 2 queries x 400 t/s = 800 t/s demand vs 1/(2 ms) = 500 t/s.
    let cfg = EngineConfig {
        synthetic_cost: TimeDelta::from_micros(2000),
        ..Default::default()
    };
    let report = run_engine(&scenario(4, 400, 2), cfg);
    assert!(
        report.shed_fraction() > 0.1,
        "shed {}",
        report.shed_fraction()
    );
    assert!(report.mean_shed_time_us() > 0.0);
    // Overload does not stop results entirely.
    assert!(!report.result_counts.is_empty());
}

/// Multi-fragment queries traverse real channels between worker threads.
#[test]
fn engine_routes_multi_fragment_queries() {
    let scn = ScenarioBuilder::new("engine-chain", 3)
        .nodes(2)
        .capacity_tps(1_000_000)
        .duration(TimeDelta::from_millis(2500))
        .warmup(TimeDelta::from_millis(1200))
        .stw_window(TimeDelta::from_secs(2))
        .add_queries(
            Template::Cov { fragments: 2 },
            3,
            SourceProfile::steady(100, 5, Dataset::Gaussian),
        )
        .build()
        .unwrap();
    let report = run_engine(&scn, EngineConfig::default());
    assert_eq!(
        report.result_counts.len(),
        3,
        "all chained queries emitted results: {:?}",
        report.result_counts
    );
}

/// A scenario far beyond the old thread-per-node ceiling runs on a small
/// bounded shard pool: 128 nodes on 4 shard threads, every node ticking
/// its detector and every query emitting results.
#[test]
fn engine_scales_nodes_onto_bounded_shard_pool() {
    let scn = ScenarioBuilder::new("engine-scale", 9)
        .nodes(128)
        .capacity_tps(1_000_000)
        .duration(TimeDelta::from_millis(1500))
        .warmup(TimeDelta::from_millis(600))
        .stw_window(TimeDelta::from_secs(1))
        .add_queries(
            Template::Avg,
            128,
            SourceProfile::steady(20, 4, Dataset::Uniform),
        )
        .build()
        .unwrap();
    let report = run_engine(
        &scn,
        EngineConfig {
            shards: Some(4),
            ..Default::default()
        },
    );
    assert_eq!(report.shards, 4);
    assert_eq!(report.nodes.len(), 128);
    assert!(
        report.nodes.iter().all(|n| n.ticks > 0),
        "a node never reached its shedding tick"
    );
    assert_eq!(
        report.result_counts.len(),
        128,
        "all queries produced results: got {}",
        report.result_counts.len()
    );
}

/// The random-shedding engine also runs to completion (used by the §7.6
/// overhead comparison).
#[test]
fn engine_random_policy_runs() {
    let cfg = EngineConfig {
        policy: lookup_policy("random").unwrap(),
        synthetic_cost: TimeDelta::from_micros(2000),
        ..Default::default()
    };
    let report = run_engine(&scenario(4, 400, 4), cfg);
    assert_eq!(report.policy, "random");
    assert!(report.shed_fraction() > 0.05);
}
