//! §7.2 — BALANCE-SIC fairness (Figures 8-11).

use themis_core::prelude::*;
use themis_query::prelude::PlacementPolicy;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

use crate::scenarios::{
    add_complex_mix, add_complex_mix_varied, capacity_for_overload, complex_mix,
    mix_sources_per_fragment, Scale,
};
use crate::table::{f, TextTable};

/// One fairness sweep point: the mean SIC + Jain's index pair the paper
/// plots on twin axes.
#[derive(Debug, Clone)]
pub struct FairnessPoint {
    /// X-axis label (query count, interval, fragment count, ratio...).
    pub x: String,
    /// Policy used.
    pub policy: String,
    /// Mean SIC over queries.
    pub mean_sic: f64,
    /// Jain's fairness index.
    pub jain: f64,
    /// Std of per-query SIC values.
    pub std: f64,
}

/// The sweep point a simulator run contributes at `x`.
pub(crate) fn point(x: String, report: &SimReport) -> FairnessPoint {
    FairnessPoint {
        x,
        policy: report.policy.clone(),
        mean_sic: report.fairness.mean,
        jain: report.fairness.jain,
        std: report.fairness.std,
    }
}

/// Figure 8: single-node fairness while the number of queries grows.
/// The node capacity is fixed so that the smallest count is barely
/// overloaded and the largest is overloaded by more than 10x.
pub fn fig8(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let counts = [30usize, 90, 150, 210, 270, 330];
    let demand_per_query = mix_sources_per_fragment() * scale.tuples_per_sec as f64;
    let capacity = capacity_for_overload(scale.n(30) as f64 * demand_per_query, 1.1);
    let mut out = Vec::new();
    for &count in &counts {
        let b = ScenarioBuilder::new(format!("fig8-{count}"), seed)
            .nodes(1)
            .capacity_tps(capacity)
            .duration(scale.duration)
            .warmup(scale.warmup);
        let scn = add_complex_mix(b, scale.n(count), 1, scale.profile(Dataset::Uniform))
            .build()
            .expect("single fragment placement");
        let report = run_scenario(scn, SimConfig::default());
        out.push(point(count.to_string(), &report));
    }
    out
}

/// Figure 9: fairness across shedding intervals (25-250 ms); 1-3 fragment
/// queries over 6 nodes.
pub fn fig9(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let intervals_ms = [25u64, 50, 100, 150, 200, 250];
    let n_queries = scale.n(120);
    let demand = n_queries as f64 * 2.0 * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
    let capacity = capacity_for_overload(demand / 6.0, 3.0);
    let mut out = Vec::new();
    for &ms in &intervals_ms {
        let b = ScenarioBuilder::new(format!("fig9-{ms}ms"), seed)
            .nodes(6)
            .placement(PlacementPolicy::UniformRandom)
            .capacity_tps(capacity)
            .shedding_interval(TimeDelta::from_millis(ms))
            .duration(scale.duration)
            .warmup(scale.warmup);
        let scn = add_complex_mix_varied(b, n_queries, &[1, 2, 3], scale.profile(Dataset::Uniform))
            .build()
            .expect("placement");
        let report = run_scenario(scn, SimConfig::default());
        out.push(point(format!("{ms}ms"), &report));
    }
    out
}

/// Figure 10: BALANCE-SIC vs random shedding on 18 nodes, sweeping the
/// fragments per query (2-6 and mixed) with a constant total fragment
/// count.
pub fn fig10(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let total_fragments = scale.n(360);
    let mut out = Vec::new();
    let configs: Vec<(String, Vec<usize>)> = vec![
        ("2".into(), vec![2]),
        ("3".into(), vec![3]),
        ("4".into(), vec![4]),
        ("5".into(), vec![5]),
        ("6".into(), vec![6]),
        ("mixed".into(), vec![1, 2, 3, 4, 5, 6]),
    ];
    for (label, frags) in configs {
        let mean_frags = frags.iter().sum::<usize>() as f64 / frags.len() as f64;
        let n_queries = ((total_fragments as f64 / mean_frags).round() as usize).max(1);
        let demand =
            total_fragments as f64 * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
        let capacity = capacity_for_overload(demand / 18.0, 3.0);
        for policy in ["balance-sic", "random"] {
            let b = ScenarioBuilder::new(format!("fig10-{label}-{policy}"), seed)
                .nodes(18)
                .placement(PlacementPolicy::UniformRandom)
                .capacity_tps(capacity)
                .duration(scale.duration)
                .warmup(scale.warmup);
            let scn = add_complex_mix_varied(b, n_queries, &frags, scale.profile(Dataset::Uniform))
                .build()
                .expect("18-node placement");
            let policy = lookup_policy(policy).expect("builtin policy");
            let report = run_scenario(scn, SimConfig::with_policy(policy));
            out.push(point(label.clone(), &report));
        }
    }
    out
}

/// Figure 11: fairness vs the ratio of 3-fragment queries (10 nodes,
/// roughly constant total fragments).
pub fn fig11(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let ratios = [0.1f64, 0.2, 0.4, 0.6, 0.8, 1.0];
    let total_fragments = scale.n(300) as f64;
    let mut out = Vec::new();
    for &r in &ratios {
        // n queries with fragments 3r + (1-r) = 1 + 2r on average.
        let n_queries = ((total_fragments / (1.0 + 2.0 * r)).round() as usize).max(1);
        let n3 = ((n_queries as f64 * r).round()) as usize;
        let demand = total_fragments * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
        let capacity = capacity_for_overload(demand / 10.0, 3.0);
        let mut b = ScenarioBuilder::new(format!("fig11-{r}"), seed)
            .nodes(10)
            .placement(PlacementPolicy::UniformRandom)
            .capacity_tps(capacity)
            .duration(scale.duration)
            .warmup(scale.warmup);
        for i in 0..n_queries {
            let frags = if i < n3 { 3 } else { 1 };
            b = b.add_queries(complex_mix(frags, i), 1, scale.profile(Dataset::Uniform));
        }
        let scn = b.build().expect("placement");
        let report = run_scenario(scn, SimConfig::default());
        out.push(point(format!("{r:.1}"), &report));
    }
    out
}

/// Renders a fairness sweep: one row per point, `x_name` heading the
/// x-axis column (every sweep of Figures 8–14 and the ablations).
pub fn render(title: &str, x_name: &str, points: &[FairnessPoint]) -> TextTable {
    let mut t = TextTable::new(title, &[x_name, "policy", "mean-sic", "jain", "std"]);
    for p in points {
        t.row(vec![
            p.x.clone(),
            p.policy.to_string(),
            f(p.mean_sic),
            f(p.jain),
            f(p.std),
        ]);
    }
    t
}
