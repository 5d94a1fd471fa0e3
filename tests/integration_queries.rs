//! The declarative query frontend end to end: Table-1 parity through the
//! parser, actionable rejection messages, an externally registered
//! shedding policy driving the engine, and a `GROUP BY` query attached
//! at runtime dispatching the dictionary group-by kernel.

use themis::prelude::*;
use themis_bench::figures::queries::group_by_probe;

/// The Table-1 presets at their quoted fragment counts.
fn table1() -> Vec<Template> {
    vec![
        Template::Avg,
        Template::Max,
        Template::Count,
        Template::AvgAll { fragments: 3 },
        Template::Top5 { fragments: 2 },
        Template::Cov { fragments: 2 },
    ]
}

/// Every Table-1 template's canonical text re-parses and compiles into
/// the operator-for-operator identical graph the preset builds.
#[test]
fn template_text_compiles_to_identical_graphs() {
    for t in table1() {
        let mut parsed_ids = IdGen::new();
        let mut preset_ids = IdGen::new();
        let via_text = QueryDef::parse(&t.text())
            .expect("template text parses")
            .named(t.name())
            .validate()
            .expect("template text validates")
            .compile(QueryId(3), &mut parsed_ids)
            .into_spec();
        assert_eq!(
            via_text,
            t.build(QueryId(3), &mut preset_ids),
            "{}",
            t.name()
        );
    }
}

/// An overloaded scenario built from parsed query text simulates to
/// bitwise-identical fairness numbers as the preset path, under every
/// policy in the registry — behavioural parity, not just structural.
#[test]
fn parsed_queries_simulate_identically_under_every_policy() {
    let t = Template::AvgAll { fragments: 2 };
    let parsed = QueryDef::parse(&t.text())
        .unwrap()
        .named(t.name())
        .validate()
        .unwrap();
    let profile = SourceProfile::steady(40, 4, Dataset::Uniform);
    let base = |seed| {
        ScenarioBuilder::new("spec-parity", seed)
            .nodes(2)
            .capacity_tps(300)
            .stw_window(TimeDelta::from_secs(3))
            .duration(TimeDelta::from_secs(12))
            .warmup(TimeDelta::from_secs(6))
    };
    for policy in registered_policies() {
        let via_template = run_scenario(
            base(17).add_queries(t, 4, profile).build().unwrap(),
            SimConfig::with_policy(policy.clone()),
        );
        let via_spec = run_scenario(
            base(17)
                .add_query_defs(&parsed, 4, profile)
                .build()
                .unwrap(),
            SimConfig::with_policy(policy.clone()),
        );
        assert!(
            via_template.shed_fraction() > 0.0,
            "{}: parity must be measured under overload",
            policy.name()
        );
        assert_eq!(
            via_template.mean_sic().to_bits(),
            via_spec.mean_sic().to_bits(),
            "{}: mean SIC diverged",
            policy.name()
        );
        assert_eq!(
            via_template.jain().to_bits(),
            via_spec.jain().to_bits(),
            "{}: Jain diverged",
            policy.name()
        );
    }
}

/// Frontend rejections name the offender and suggest the fix.
#[test]
fn rejections_are_actionable() {
    let err = |text: &str| match QueryDef::parse(text).and_then(|d| d.validate()) {
        Ok(_) => panic!("`{text}` should be rejected"),
        Err(e) => e.to_string(),
    };

    let unknown = err("SELECT AVG(temp) FROM cpu[4]");
    assert!(unknown.contains("unknown column `temp`"), "{unknown}");
    assert!(unknown.contains("value"), "{unknown}");

    let on_tag = err("SELECT host, MAX(host) FROM cpu[4] GROUP BY host");
    assert!(on_tag.contains("MAX over tag column `host`"), "{on_tag}");
    assert!(on_tag.contains("GROUP BY host"), "{on_tag}");

    let numeric_group = err("SELECT SUM(value) FROM cpu[4] GROUP BY value");
    assert!(
        numeric_group.contains("cannot GROUP BY numeric column"),
        "{numeric_group}"
    );

    let bad_cmp = err("SELECT AVG(value) FROM cpu[4] WHERE value != 3");
    assert!(bad_cmp.contains("unsupported comparison"), "{bad_cmp}");
}

/// A policy registered by this test — no `themis-core` edit — runs the
/// threaded engine under overload and reports its own name.
#[test]
fn externally_registered_policy_drives_the_engine() {
    // Newest-first admission: a policy none of the builtins implement.
    struct KeepNewest;
    impl Shedder for KeepNewest {
        fn select_to_keep(
            &mut self,
            capacity_tuples: usize,
            queries: &[QueryBufferState],
        ) -> ShedDecision {
            let mut all: Vec<(u64, usize, usize)> = queries
                .iter()
                .flat_map(|q| {
                    q.batches
                        .iter()
                        .map(|b| (b.created.as_micros(), b.buffer_index, b.tuples))
                })
                .collect();
            all.sort_unstable_by(|a, b| b.cmp(a));
            let mut keep = Vec::new();
            let mut kept_tuples = 0;
            for (_, idx, tuples) in all {
                if kept_tuples + tuples <= capacity_tuples {
                    keep.push(idx);
                    kept_tuples += tuples;
                }
            }
            let total: usize = queries.iter().map(|q| q.buffered_tuples()).sum();
            let batches: usize = queries.iter().map(|q| q.batches.len()).sum();
            ShedDecision {
                shed_tuples: total - kept_tuples,
                shed_batches: batches - keep.len(),
                keep,
                kept_tuples,
            }
        }
    }

    register_shedder("keep-newest", |_seed| Box::new(KeepNewest)).unwrap();

    let scenario = ScenarioBuilder::new("custom-policy-engine", 23)
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
        &scenario,
        EngineConfig {
            policy: lookup_policy("keep-newest").unwrap(),
            synthetic_cost: TimeDelta::from_micros(2000),
            ..Default::default()
        },
    );
    assert_eq!(report.policy, "keep-newest");
    assert!(
        report.shed_fraction() > 0.0,
        "custom shedder must actually run"
    );
}

/// A declarative `GROUP BY` query attached to the live engine
/// ([`Engine::attach_spec`]) dispatches the typed dictionary group-by
/// kernel and produces grouped results. The run is the `experiments
/// queries` gate's own probe.
#[test]
fn attached_group_by_query_dispatches_the_kernel() {
    let probe = group_by_probe(3, 29);
    assert!(probe.kernel_calls > 0, "group kernel never fired");
    assert!(probe.results > 0, "GROUP BY query produced no results");
}
