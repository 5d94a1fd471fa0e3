//! Integration: the multi-threaded prototype engine against the same
//! workloads as the simulator.

use themis::prelude::*;

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
