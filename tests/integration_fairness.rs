//! Cross-crate integration: BALANCE-SIC fairness end to end, against the
//! baselines, across deployments — miniature versions of §7.2-§7.4.

use themis::prelude::*;

fn overloaded_mix(seed: u64, policy: &str, coordinator: bool) -> SimReport {
    let profile = SourceProfile::steady(20, 4, Dataset::Uniform);
    let scenario = ScenarioBuilder::new("fairness-mix", seed)
        .nodes(4)
        .capacity_tps(220)
        .duration(TimeDelta::from_secs(20))
        .warmup(TimeDelta::from_secs(8))
        .stw_window(TimeDelta::from_secs(5))
        .add_queries(Template::Cov { fragments: 2 }, 4, profile)
        .add_queries(Template::AvgAll { fragments: 2 }, 3, profile)
        .add_queries(Template::Cov { fragments: 4 }, 3, profile)
        .build()
        .unwrap();
    let cfg = SimConfig {
        coordinator,
        ..SimConfig::with_policy(lookup_policy(policy).unwrap())
    };
    run_scenario(scenario, cfg)
}

/// Under heterogeneous multi-fragment overload, BALANCE-SIC is at least as
/// fair as random shedding (the paper reports 33% fairer on the mixed
/// workload).
#[test]
fn balance_sic_beats_random_fairness() {
    let balance = overloaded_mix(1, "balance-sic", true);
    let random = overloaded_mix(1, "random", true);
    assert!(balance.shed_fraction() > 0.2, "must be overloaded");
    assert!(
        balance.jain() > random.jain() - 0.02,
        "balance {} vs random {}",
        balance.jain(),
        random.jain()
    );
    // And it concentrates capacity on valuable tuples: higher mean SIC.
    assert!(
        balance.mean_sic() >= random.mean_sic() - 0.05,
        "balance mean {} vs random {}",
        balance.mean_sic(),
        random.mean_sic()
    );
}

/// The spread (std) of SIC values shrinks under BALANCE-SIC vs random
/// (Figure 10b).
#[test]
fn balance_sic_reduces_spread() {
    let balance = overloaded_mix(2, "balance-sic", true);
    let random = overloaded_mix(2, "random", true);
    assert!(
        balance.fairness.std <= random.fairness.std + 0.03,
        "balance std {} vs random {}",
        balance.fairness.std,
        random.fairness.std
    );
}

/// Disabling updateSIC dissemination (Figure 4) hurts fairness when
/// spanning queries share nodes with local ones: each node balances only
/// its local view and over-services the spanning queries.
#[test]
fn update_sic_dissemination_matters() {
    let run = |coordinator: bool| -> SimReport {
        let profile = SourceProfile::steady(20, 4, Dataset::Uniform);
        let scenario = ScenarioBuilder::new("fig4", 3)
            .nodes(3)
            .capacity_tps(70) // ~3x overload
            .duration(TimeDelta::from_secs(25))
            .warmup(TimeDelta::from_secs(10))
            .stw_window(TimeDelta::from_secs(5))
            .add_queries(Template::Cov { fragments: 1 }, 6, profile)
            .add_queries(Template::Cov { fragments: 3 }, 3, profile)
            .build()
            .unwrap();
        let cfg = SimConfig {
            coordinator,
            ..Default::default()
        };
        run_scenario(scenario, cfg)
    };
    let with = run(true);
    let without = run(false);
    assert!(with.jain() > 0.95, "with updateSIC: {}", with.jain());
    assert!(
        with.jain() > without.jain() + 0.03,
        "updateSIC must improve fairness: with {} vs without {}",
        with.jain(),
        without.jain()
    );
    assert_eq!(without.coordinator_messages, 0);
}

/// Single-node convergence (Figure 8's mechanism): equal-demand queries
/// converge to near-equal SIC values even under extreme overload.
#[test]
fn single_node_convergence_under_extreme_overload() {
    let profile = SourceProfile::steady(40, 4, Dataset::Exponential);
    let scenario = ScenarioBuilder::new("single-node", 4)
        .nodes(1)
        .capacity_tps(60) // 12 queries x 40 t/s = 480 t/s demand: 8x
        .duration(TimeDelta::from_secs(20))
        .warmup(TimeDelta::from_secs(8))
        .stw_window(TimeDelta::from_secs(5))
        .add_queries(Template::Avg, 6, profile)
        .add_queries(Template::Count, 6, profile)
        .build()
        .unwrap();
    let report = run_scenario(scenario, SimConfig::default());
    assert!(
        report.mean_sic() < 0.3,
        "extreme overload: {}",
        report.mean_sic()
    );
    assert!(report.mean_sic() > 0.03);
    assert!(report.jain() > 0.9, "jain {}", report.jain());
}

/// Heterogeneous node capacities: the shedders on the slow node shed more,
/// but fairness across queries survives (site autonomy, C3).
#[test]
fn heterogeneous_capacities_stay_fair() {
    let profile = SourceProfile::steady(20, 4, Dataset::Uniform);
    let scenario = ScenarioBuilder::new("hetero", 5)
        .nodes(3)
        .node_capacities(vec![80, 160, 320])
        .duration(TimeDelta::from_secs(20))
        .warmup(TimeDelta::from_secs(8))
        .stw_window(TimeDelta::from_secs(5))
        .add_queries(Template::Cov { fragments: 3 }, 6, profile)
        .build()
        .unwrap();
    let report = run_scenario(scenario, SimConfig::default());
    assert!(report.shed_fraction() > 0.1);
    assert!(report.jain() > 0.85, "jain {}", report.jain());
    // The slowest node shed the most.
    let shed: Vec<u64> = report.nodes.iter().map(|n| n.shed_tuples).collect();
    assert!(shed[0] > shed[2], "slow node sheds more: {shed:?}");
}

/// Bursty sources and WAN latency do not break fairness (§7.4).
#[test]
fn bursty_wan_deployment_stays_fair() {
    let profile =
        SourceProfile::steady(20, 4, Dataset::Uniform).with_pattern(RatePattern::PAPER_BURSTY);
    let scenario = ScenarioBuilder::new("bursty-wan", 6)
        .nodes(4)
        .capacity_tps(150)
        .link_latency(TimeDelta::from_millis(50))
        .duration(TimeDelta::from_secs(20))
        .warmup(TimeDelta::from_secs(8))
        .stw_window(TimeDelta::from_secs(5))
        .add_queries(Template::Cov { fragments: 2 }, 8, profile)
        .build()
        .unwrap();
    let report = run_scenario(scenario, SimConfig::default());
    assert!(
        report.mean_sic() > 0.1,
        "results flow: {}",
        report.mean_sic()
    );
    assert!(report.jain() > 0.8, "jain {}", report.jain());
}

/// Query churn (§5's "arrivals and departures"): when a cohort of queries
/// joins mid-run, BALANCE-SIC drains SIC from the residents and raises the
/// newcomers until the active queries are balanced again.
#[test]
fn churn_converges_to_fairness_after_arrival() {
    let profile = SourceProfile::steady(20, 4, Dataset::Uniform);
    let n = 4usize;
    let scenario = ScenarioBuilder::new("churn", 9)
        .nodes(2)
        .capacity_tps(110)
        .duration(TimeDelta::from_secs(24))
        .warmup(TimeDelta::from_secs(10))
        .stw_window(TimeDelta::from_secs(6))
        .add_queries(Template::Cov { fragments: 2 }, n, profile)
        .add_queries_with_lifetime(
            Template::Cov { fragments: 2 },
            n,
            profile,
            TimeDelta::from_secs(14),
            None,
        )
        .build()
        .unwrap();
    let cfg = SimConfig {
        record_series: true,
        ..Default::default()
    };
    let report = run_scenario(scenario, cfg);
    // Cohort means per sample. The windowed qSIC lags the shedder's
    // actions by up to one STW, so the cohorts oscillate around the fair
    // point rather than pinning to it — assert on time averages.
    let series_mean_at = |qs: std::ops::Range<u32>, i: usize| -> f64 {
        let vals: Vec<f64> = qs
            .filter_map(|q| report.sic_series[&QueryId(q)].get(i).map(|&(_, v)| v))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let samples = report.sic_series[&QueryId(0)].len();
    assert!(samples >= 12, "enough samples: {samples}");
    let gaps: Vec<f64> = (0..samples)
        .map(|i| (series_mean_at(0..n as u32, i) - series_mean_at(n as u32..2 * n as u32, i)).abs())
        .collect();
    // Newcomers get meaningful service at some point.
    let newcomer_peak = (0..samples)
        .map(|i| series_mean_at(n as u32..2 * n as u32, i))
        .fold(0.0f64, f64::max);
    assert!(
        newcomer_peak > 0.15,
        "newcomers served: peak {newcomer_peak}"
    );
    // The cohort gap shrinks on average after the initial shock.
    let third = samples / 3;
    let early: f64 = gaps[..third].iter().sum::<f64>() / third as f64;
    let late: f64 = gaps[samples - third..].iter().sum::<f64>() / third as f64;
    assert!(
        late < early,
        "gap shrinks on average: early {early:.3} vs late {late:.3} ({gaps:?})"
    );
}
