//! §7.3 / §7.4 — scalability (Figures 12, 13) and burstiness / wide-area
//! behaviour (Figure 14).

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

use crate::figures::fairness::{point, FairnessPoint};
use crate::scenarios::{
    add_complex_mix_varied, capacity_for_overload, complex_mix, mix_sources_per_fragment, Scale,
};

/// Figure 12: a fixed set of queries over a growing number of nodes, Zipf
/// fragment placement. Mean SIC grows with capacity, Jain stays near 1.
pub fn fig12(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let node_counts = [9usize, 12, 18, 24];
    let n_queries = scale.n(120);
    // Fixed per-node capacity: at 9 nodes the system is heavily
    // overloaded, at 24 nodes mildly.
    let total_fragments = n_queries as f64 * 3.5;
    let demand = total_fragments * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
    let capacity = capacity_for_overload(demand / 18.0, 2.5);
    let mut out = Vec::new();
    for &nodes in &node_counts {
        let b = ScenarioBuilder::new(format!("fig12-{nodes}"), seed)
            .nodes(nodes)
            .capacity_tps(capacity)
            .placement(PlacementPolicy::Zipf { exponent: 1.0 })
            .duration(scale.duration)
            .warmup(scale.warmup);
        let scn = add_complex_mix_varied(
            b,
            n_queries,
            &[1, 2, 3, 4, 5, 6],
            scale.profile(Dataset::Uniform),
        )
        .build()
        .expect("placement");
        let report = run_scenario(scn, SimConfig::default());
        out.push(point(nodes.to_string(), &report));
    }
    out
}

/// Figure 13: growing query counts on a fixed 18-node deployment.
pub fn fig13(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let query_counts = [60usize, 120, 180, 240, 300];
    let demand_at_180 =
        scale.n(180) as f64 * 3.5 * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
    let capacity = capacity_for_overload(demand_at_180 / 18.0, 3.0);
    let mut out = Vec::new();
    for &count in &query_counts {
        let b = ScenarioBuilder::new(format!("fig13-{count}"), seed)
            .nodes(18)
            .placement(PlacementPolicy::UniformRandom)
            .capacity_tps(capacity)
            .duration(scale.duration)
            .warmup(scale.warmup);
        let scn = add_complex_mix_varied(
            b,
            scale.n(count),
            &[1, 2, 3, 4, 5, 6],
            scale.profile(Dataset::Uniform),
        )
        .build()
        .expect("placement");
        let report = run_scenario(scn, SimConfig::default());
        out.push(point(count.to_string(), &report));
    }
    out
}

/// Figure 14: mean SIC under {LAN, WAN} x {steady, bursty} deployments for
/// 20 and 40 queries of the two-fragment complex workload.
pub fn fig14(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let deployments: [(&str, TimeDelta, RatePattern); 4] = [
        ("LAN", TimeDelta::from_millis(5), RatePattern::Steady),
        ("FSPS", TimeDelta::from_millis(50), RatePattern::Steady),
        (
            "LAN-bursty",
            TimeDelta::from_millis(5),
            RatePattern::PAPER_BURSTY,
        ),
        (
            "FSPS-bursty",
            TimeDelta::from_millis(50),
            RatePattern::PAPER_BURSTY,
        ),
    ];
    let mut out = Vec::new();
    for &(name, latency, pattern) in &deployments {
        for &count in &[20usize, 40] {
            let n = scale.n(count);
            let demand = n as f64 * 2.0 * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
            let capacity = capacity_for_overload(demand / 4.0, 2.0);
            let profile = scale.profile(Dataset::Uniform).with_pattern(pattern);
            let mut b = ScenarioBuilder::new(format!("fig14-{name}-{count}"), seed)
                .nodes(4)
                .placement(PlacementPolicy::UniformRandom)
                .capacity_tps(capacity)
                .link_latency(latency)
                .duration(scale.duration)
                .warmup(scale.warmup);
            for i in 0..n {
                b = b.add_queries(complex_mix(2, i), 1, profile);
            }
            let scn = b.build().expect("placement");
            let report = run_scenario(scn, SimConfig::default());
            out.push(point(format!("{name}/{count}q"), &report));
        }
    }
    out
}
