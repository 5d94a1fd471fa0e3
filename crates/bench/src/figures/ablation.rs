//! Ablations beyond the paper's figures (extensions: the paper plots
//! neither): the `updateSIC` dissemination switch (Figure 4's
//! pathology at scale) and the batch-admission order of Algorithm 1
//! line 16.

use themis_query::prelude::PlacementPolicy;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

use crate::figures::fairness::{point, FairnessPoint};
use crate::scenarios::{add_complex_mix, capacity_for_overload, mix_sources_per_fragment, Scale};

/// An asymmetric deployment — single-fragment queries co-located with
/// 3-fragment spanning queries — which is where the Figure-4 pathology
/// shows: without `updateSIC`, nodes over-service the spanning queries
/// whose local SIC view is capped below the single-fragment queries'.
fn base_scenario(name: &str, scale: &Scale, seed: u64) -> Scenario {
    let n_span = scale.n(20);
    let n_local = scale.n(40);
    let total_fragments = (3 * n_span + n_local) as f64;
    let demand = total_fragments * mix_sources_per_fragment() * scale.tuples_per_sec as f64;
    let capacity = capacity_for_overload(demand / 6.0, 3.0);
    let b = ScenarioBuilder::new(name, seed)
        .nodes(6)
        .placement(PlacementPolicy::UniformRandom)
        .capacity_tps(capacity)
        .duration(scale.duration)
        .warmup(scale.warmup);
    let b = add_complex_mix(b, n_local, 1, scale.profile(Dataset::Uniform));
    add_complex_mix(b, n_span, 3, scale.profile(Dataset::Uniform))
        .build()
        .expect("placement")
}

/// Ablation: coordinator `updateSIC` dissemination on vs off (Figure 4 at
/// scale). Without it, every node balances only its local view and
/// multi-fragment queries drift apart.
pub fn update_sic_ablation(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let mut out = Vec::new();
    for (label, coordinator) in [("with-updateSIC", true), ("without-updateSIC", false)] {
        let cfg = SimConfig {
            coordinator,
            ..Default::default()
        };
        let report = run_scenario(base_scenario(label, scale, seed), cfg);
        out.push(point(label.into(), &report));
    }
    out
}

/// Ablation: the batch-admission order of Algorithm 1 line 16
/// (`max(xSIC)` vs lowest-first vs arrival order). Keeping the most
/// valuable batches should achieve the highest mean SIC for the same
/// tuple budget.
pub fn batch_order_ablation(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let mut out = Vec::new();
    for (label, policy) in [
        ("highest-sic-first", "balance-sic"),
        ("fifo-order", "balance-sic(fifo-order)"),
        ("lowest-sic-first", "balance-sic(lowest-first)"),
    ] {
        let policy = lookup_policy(policy).expect("builtin policy");
        let report = run_scenario(
            base_scenario(label, scale, seed),
            SimConfig::with_policy(policy),
        );
        out.push(point(label.into(), &report));
    }
    out
}

/// Extension experiment: all shedding policies on the same overloaded
/// mixed workload. BALANCE-SIC should dominate on Jain's index;
/// the priority (admission-control) baseline reproduces the FIT LP's
/// serve-few-starve-many outcome inside the running system.
pub fn policy_comparison(scale: &Scale, seed: u64) -> Vec<FairnessPoint> {
    let mut out = Vec::new();
    for name in ["balance-sic", "random", "fifo", "priority"] {
        let policy = lookup_policy(name).expect("builtin policy");
        let report = run_scenario(
            base_scenario(name, scale, seed),
            SimConfig::with_policy(policy),
        );
        out.push(point(name.into(), &report));
    }
    out
}
