//! Regression: engine churn parity — the engine analogue of the
//! simulator's `figures/dynamics.rs` churn experiment.
//!
//! Under **every** shedding policy in the registry, a cohort of queries
//! attaches to a running engine mid-run and departs again. The run must
//! not panic any shard, the nodes that hosted only the cohort must be
//! torn down when it leaves (their shedding deadlines are abandoned — a
//! torn-down node never ticks again), and the resident queries' SIC
//! means must match a churn-free control run within tolerance.

use std::time::Duration;

use themis::prelude::*;

const INTERVAL_MS: u64 = 100;

fn scenario(policy_tag: u64) -> Scenario {
    // 4 resident AVG queries on nodes 0..4 (round-robin); nodes 4 and 5
    // stay empty until the churn cohort arrives. Residents run at 200 t/s
    // under a 400 t/s declared capacity: no resident shedding.
    ScenarioBuilder::new("churn-parity", 1000 + policy_tag)
        .nodes(6)
        .capacity_tps(400)
        .shedding_interval(TimeDelta::from_millis(INTERVAL_MS))
        .stw_window(TimeDelta::from_secs(1))
        .warmup(TimeDelta::from_millis(1000))
        .add_queries(
            Template::Avg,
            4,
            SourceProfile::steady(200, 5, Dataset::Uniform),
        )
        .build()
        .unwrap()
}

fn config(policy: &Policy) -> EngineConfig {
    EngineConfig {
        policy: policy.clone(),
        enforce_capacity: true,
        ..Default::default()
    }
}

/// Runs warm-up plus three phases; `churn` controls whether the cohort
/// actually attaches. Phase slicing is identical either way, so the two
/// runs differ only by the cohort's presence.
fn run(policy_tag: u64, policy: &Policy, churn: bool) -> (EngineReport, Vec<QueryId>) {
    let scn = scenario(policy_tag);
    let mut engine = Engine::start(&scn, config(policy));
    engine.run_for(Duration::from_millis(1700));
    // The cohort overloads its own dedicated nodes (4, 5): 700 t/s
    // against the declared 400 t/s capacity, so every policy's shedder
    // actually runs during the churn window. 25 batches/s keeps single
    // batches (28 tuples) under the 40-tuple interval capacity —
    // shedders admit whole batches, so some always survive.
    let cohort = if churn {
        engine.attach_queries(
            Template::Avg,
            2,
            SourceProfile::steady(700, 25, Dataset::Uniform),
        )
    } else {
        Vec::new()
    };
    engine.run_for(Duration::from_millis(1400));
    for &q in &cohort {
        assert!(engine.detach_query(q));
    }
    engine.run_for(Duration::from_millis(1100));
    (engine.finish(), cohort)
}

#[test]
fn churn_parity_under_every_policy() {
    for (tag, policy) in registered_policies().iter().enumerate() {
        let (churned, cohort) = run(tag as u64, policy, true);
        let (control, _) = run(tag as u64, policy, false);
        assert_eq!(cohort, vec![QueryId(4), QueryId(5)]);

        // The cohort landed on the empty nodes, was overloaded there
        // (this policy's shedder ran), and produced results.
        let cohort_shed: u64 = churned.nodes[4..6].iter().map(|n| n.shed_tuples).sum();
        assert!(cohort_shed > 0, "{policy:?}: cohort nodes never shed");
        for q in &cohort {
            assert!(
                churned.result_counts.contains_key(q),
                "{policy:?}: cohort query {q} produced no results"
            );
        }

        // No deadline-heap leak: the cohort nodes were torn down at
        // departure, so they tick for roughly the churn window only,
        // while resident nodes tick for the whole run.
        let resident_ticks = churned.nodes[..4].iter().map(|n| n.ticks).min().unwrap();
        for (i, n) in churned.nodes[4..6].iter().enumerate() {
            assert!(
                n.ticks > 0,
                "{policy:?}: cohort node {} never ticked",
                i + 4
            );
            assert!(
                n.ticks < resident_ticks * 2 / 3,
                "{policy:?}: detached node {} kept ticking ({} vs resident {})",
                i + 4,
                n.ticks,
                resident_ticks
            );
        }

        // Resident parity: churn on disjoint nodes must not disturb the
        // resident queries' SIC means beyond run-to-run wall noise.
        for &(q, sic) in &churned.per_query_sic {
            if cohort.contains(&q) {
                continue;
            }
            let control_sic = control
                .per_query_sic
                .iter()
                .find(|&&(cq, _)| cq == q)
                .map(|&(_, s)| s)
                .unwrap();
            assert!(sic > 0.2, "{policy:?}: resident {q} starved: {sic}");
            assert!(
                (sic - control_sic).abs() < 0.35,
                "{policy:?}: resident {q} diverged under churn: {sic:.3} vs {control_sic:.3}"
            );
        }
    }
}
