//! The unified shedding-policy registry: name round-trips, and sim↔engine
//! parity — every registered policy must run in both runtimes.

use themis::prelude::*;

#[test]
fn registry_round_trips_names() {
    // Registry keys are a policy's only name: every registered policy
    // looks itself up by it.
    for p in registered_policies() {
        assert_eq!(lookup_policy(p.name()).unwrap(), p);
    }
    assert_eq!(
        registered_policies(),
        ShedderRegistry::with_builtins().policies(),
        "the process registry starts as the six builtins"
    );
}

#[test]
fn registry_rejects_unknown_names() {
    // The registry error lists every registered policy by name.
    let err = lookup_policy("no-such-policy").unwrap_err().to_string();
    for p in registered_policies() {
        assert!(err.contains(p.name()), "{err} should list {p}");
    }
}

/// An overloaded two-node scenario for the simulator (simulated time, so
/// generous durations are cheap).
fn sim_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new("policy-parity-sim", seed)
        .nodes(2)
        .capacity_tps(120)
        .duration(TimeDelta::from_secs(12))
        .warmup(TimeDelta::from_secs(6))
        .stw_window(TimeDelta::from_secs(3))
        .add_queries(
            Template::Cov { fragments: 2 },
            6,
            SourceProfile::steady(40, 4, Dataset::Uniform),
        )
        .build()
        .unwrap()
}

/// A short wall-clock scenario for the engine (kept tight: this runs in
/// real time for each of the six policies). Overload margin matches the
/// pre-existing engine tests — 2 queries x 400 t/s = 800 t/s demand per
/// node vs 1/(2 ms) = 500 t/s capacity — so shedding is robust even on a
/// loaded CI runner.
fn engine_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new("policy-parity-engine", seed)
        .nodes(2)
        .capacity_tps(1_000_000)
        .duration(TimeDelta::from_millis(1500))
        .warmup(TimeDelta::from_millis(500))
        .stw_window(TimeDelta::from_secs(1))
        .add_queries(
            Template::Avg,
            4,
            SourceProfile::steady(400, 5, Dataset::Uniform),
        )
        .build()
        .unwrap()
}

/// Every registry policy runs to completion in the deterministic
/// simulator, sheds under overload, and reports its canonical name.
#[test]
fn every_policy_runs_in_the_simulator() {
    for p in registered_policies() {
        let report = run_scenario(sim_scenario(11), SimConfig::with_policy(p.clone()));
        assert_eq!(report.policy, p.name());
        assert_eq!(report.per_query.len(), 6, "{p}: all queries reported");
        assert!(
            report.shed_fraction() > 0.1,
            "{p}: overloaded run must shed (got {})",
            report.shed_fraction()
        );
    }
}

/// Every registry policy also runs in the multi-threaded engine — the
/// parity the unified registry exists to guarantee. A synthetic per-tuple
/// cost forces genuine overload so each shedder actually executes.
#[test]
fn every_policy_runs_in_the_engine() {
    for p in registered_policies() {
        let cfg = EngineConfig {
            policy: p.clone(),
            synthetic_cost: TimeDelta::from_micros(2000),
            ..Default::default()
        };
        let report = run_engine(&engine_scenario(13), cfg);
        assert_eq!(report.policy, p.name());
        assert!(
            report.nodes.iter().any(|n| n.arrived_tuples > 0),
            "{p}: tuples flowed"
        );
        // 800 t/s offered per node against 500 t/s sheds about 37%.
        assert!(
            report.shed_fraction() > 0.05,
            "{p}: synthetic cost must force shedding (got {})",
            report.shed_fraction()
        );
    }
}
