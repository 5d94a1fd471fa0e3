//! Integration: experiment-shape checks — miniature versions of the
//! figure sweeps assert the *shapes* the paper reports.

use themis::prelude::*;

fn profile(rate: u32) -> SourceProfile {
    SourceProfile::steady(rate, 4, Dataset::Uniform)
}

/// Figure 8's shape: with more queries on a fixed node, mean SIC falls
/// while Jain's index stays high.
#[test]
fn fig8_shape_mean_falls_jain_stays() {
    let run = |count: usize| -> (f64, f64) {
        let scenario = ScenarioBuilder::new("fig8-mini", 11)
            .nodes(1)
            .capacity_tps(160)
            .duration(TimeDelta::from_secs(16))
            .warmup(TimeDelta::from_secs(8))
            .stw_window(TimeDelta::from_secs(5))
            .add_queries(Template::Avg, count, profile(40))
            .build()
            .unwrap();
        let r = run_scenario(scenario, SimConfig::default());
        (r.mean_sic(), r.jain())
    };
    let (m4, j4) = run(4);
    let (m16, j16) = run(16);
    assert!(m4 > m16 + 0.2, "mean SIC falls with load: {m4} vs {m16}");
    assert!(j4 > 0.9 && j16 > 0.9, "jain stays high: {j4}, {j16}");
}

/// Figure 9's shape: the shedding interval barely affects fairness.
#[test]
fn fig9_shape_interval_insensitive() {
    let run = |ms: u64| -> f64 {
        let scenario = ScenarioBuilder::new("fig9-mini", 12)
            .nodes(2)
            .capacity_tps(150)
            .shedding_interval(TimeDelta::from_millis(ms))
            .duration(TimeDelta::from_secs(16))
            .warmup(TimeDelta::from_secs(8))
            .stw_window(TimeDelta::from_secs(5))
            .add_queries(Template::Cov { fragments: 2 }, 6, profile(40))
            .build()
            .unwrap();
        run_scenario(scenario, SimConfig::default()).jain()
    };
    let j50 = run(50);
    let j250 = run(250);
    assert!(j50 > 0.85 && j250 > 0.85, "fair at both: {j50}, {j250}");
    assert!((j50 - j250).abs() < 0.1, "insensitive: {j50} vs {j250}");
}

/// Figure 12's shape: more nodes (more capacity) raise the mean SIC.
#[test]
fn fig12_shape_more_nodes_more_sic() {
    let run = |nodes: usize| -> f64 {
        let scenario = ScenarioBuilder::new("fig12-mini", 13)
            .nodes(nodes)
            .capacity_tps(120)
            .placement(PlacementPolicy::Zipf { exponent: 1.0 })
            .duration(TimeDelta::from_secs(16))
            .warmup(TimeDelta::from_secs(8))
            .stw_window(TimeDelta::from_secs(5))
            .add_queries(Template::Cov { fragments: 2 }, 10, profile(40))
            .build()
            .unwrap();
        run_scenario(scenario, SimConfig::default()).mean_sic()
    };
    let m3 = run(3);
    let m8 = run(8);
    assert!(m8 > m3 + 0.05, "more nodes help: {m3} -> {m8}");
}

/// Figure 13's shape: more queries on fixed capacity lower the mean SIC
/// but keep shedding fair.
#[test]
fn fig13_shape_more_queries_less_sic() {
    let run = |count: usize| -> (f64, f64) {
        let scenario = ScenarioBuilder::new("fig13-mini", 14)
            .nodes(2)
            .capacity_tps(200)
            .duration(TimeDelta::from_secs(16))
            .warmup(TimeDelta::from_secs(8))
            .stw_window(TimeDelta::from_secs(5))
            .add_queries(Template::Cov { fragments: 2 }, count, profile(40))
            .build()
            .unwrap();
        let r = run_scenario(scenario, SimConfig::default());
        (r.mean_sic(), r.jain())
    };
    let (m4, _) = run(4);
    let (m12, j12) = run(12);
    assert!(m4 > m12, "{m4} vs {m12}");
    assert!(j12 > 0.85, "still fair: {j12}");
}

/// §7.1's mechanism: lower SIC means larger result error (COUNT is the
/// paper's strongest correlation).
#[test]
fn count_error_tracks_sic() {
    let run = |capacity: u32| -> (f64, f64) {
        let build = |cap: u32| {
            ScenarioBuilder::new("count-corr", 15)
                .nodes(1)
                .capacity_tps(cap)
                .duration(TimeDelta::from_secs(16))
                .warmup(TimeDelta::from_secs(8))
                .stw_window(TimeDelta::from_secs(5))
                .add_queries(Template::Count, 4, profile(40))
                .build()
                .unwrap()
        };
        let mut cfg = SimConfig::with_policy(lookup_policy("random").unwrap());
        cfg.record_results = true;
        let degraded = run_scenario(build(capacity), cfg.clone());
        let perfect = run_scenario(build(1_000_000), cfg);
        // Average counts across queries/windows.
        let avg_count = |r: &SimReport| -> f64 {
            let mut sum = 0.0;
            let mut n = 0;
            for records in r.results.values() {
                for (_, rows) in records {
                    sum += rows[0][0].as_f64();
                    n += 1;
                }
            }
            if n == 0 {
                0.0
            } else {
                sum / n as f64
            }
        };
        (
            degraded.mean_sic(),
            avg_count(&degraded) / avg_count(&perfect),
        )
    };
    let (sic_hi, frac_hi) = run(120); // ~75% capacity
    let (sic_lo, frac_lo) = run(40); // ~25% capacity
    assert!(sic_hi > sic_lo);
    assert!(
        frac_hi > frac_lo,
        "count fraction follows SIC: {frac_hi} vs {frac_lo}"
    );
    // The degraded COUNT is roughly proportional to the SIC value.
    assert!((frac_lo - sic_lo).abs() < 0.25, "{frac_lo} vs {sic_lo}");
}

/// Table 1's structural claims hold for every template.
#[test]
fn table1_structure() {
    let mut src = IdGen::new();
    for (t, ops, sources) in [
        (Template::AvgAll { fragments: 4 }, 13, 10),
        (Template::Top5 { fragments: 4 }, 29, 20),
        (Template::Cov { fragments: 4 }, 5, 2),
    ] {
        let q = t.build(QueryId(0), &mut src);
        q.validate().unwrap();
        for f in &q.fragments {
            assert_eq!(f.n_operators(), ops);
        }
        assert_eq!(q.n_sources(), sources * 4);
    }
}
