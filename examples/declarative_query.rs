//! The declarative query frontend end to end.
//!
//! Queries arrive as text (or through the typed builder), are validated
//! into a [`ValidatedQuery`] — the staged pipeline makes invalid specs
//! unrepresentable past that point — and compile into exactly the graphs
//! the Table-1 presets build. The finale attaches a `GROUP BY` query to
//! the live engine and shows it dispatching the dictionary group-by
//! kernel.
//!
//! Run with: `cargo run --release --example declarative_query`

use themis::operators::kernels::group_kernel_invocations;
use themis::prelude::*;

fn main() {
    // 1. Text and builder are two doors into the same QueryDef.
    let text = "SELECT AVG(value) FROM cpu[10] WHERE value >= 20 WINDOW 1s";
    let parsed = QueryDef::parse(text).expect("parses");
    let built = QueryDef::aggregate(AggFunc::Avg, "value")
        .from_stream(StreamDef::new("cpu", 10))
        .filter("value", CmpOp::Ge, 20.0)
        .window(TimeDelta::from_secs(1));
    assert_eq!(parsed, built);
    println!("parsed + built agree: {}", parsed.text());

    // 2. Validation errors are actionable, not panics.
    println!("\nrejected queries:");
    for bad in [
        "SELECT AVG(temp) FROM cpu[4]",
        "SELECT host, AVG(host) FROM cpu[4] GROUP BY host",
        "SELECT SUM(value) FROM cpu[4] GROUP BY value",
    ] {
        match QueryDef::parse(bad).and_then(|d| d.validate()) {
            Ok(_) => unreachable!("{bad} should be rejected"),
            Err(e) => println!("  {bad}\n    -> {e}"),
        }
    }

    // 3. The Table-1 presets are canned QueryDefs now: their text
    //    round-trips through the parser into the identical graph.
    println!("\nTable-1 presets as query text:");
    for t in [
        Template::Avg,
        Template::Count,
        Template::AvgAll { fragments: 3 },
        Template::Top5 { fragments: 2 },
        Template::Cov { fragments: 2 },
    ] {
        println!("  {:8} = {}", t.name(), t.text());
        let mut parsed_ids = IdGen::new();
        let mut preset_ids = IdGen::new();
        let via_text = QueryDef::parse(&t.text())
            .unwrap()
            .named(t.name())
            .validate()
            .unwrap()
            .compile(QueryId(0), &mut parsed_ids);
        assert_eq!(via_text, t.build(QueryId(0), &mut preset_ids));
    }

    // 4. A GROUP BY-on-tag query on the live engine: each of the six
    //    sources is a dictionary-coded "host", and the per-window sums
    //    run through the typed group kernel.
    let query = "SELECT host, SUM(value) FROM racks[6] GROUP BY host";
    let validated = QueryDef::parse(query).unwrap().validate().unwrap();
    let scenario = ScenarioBuilder::new("declarative", 7)
        .nodes(2)
        .capacity_tps(1_000_000)
        .stw_window(TimeDelta::from_secs(1))
        .duration(TimeDelta::from_secs(3))
        .warmup(TimeDelta::from_millis(500))
        .add_query_defs(
            &validated,
            1,
            SourceProfile::steady(200, 5, Dataset::Uniform),
        )
        .build()
        .unwrap();
    println!("\nrunning on the engine (~3 s): {query}");
    let calls_before = group_kernel_invocations();
    let report = run_engine(&scenario, EngineConfig::default());
    let (id, _) = report.per_query_sic[0];
    println!(
        "  group kernel calls: {}, result windows: {}, mean SIC {:.3}",
        group_kernel_invocations() - calls_before,
        report.result_counts.get(&id).copied().unwrap_or(0),
        report.per_query_sic[0].1
    );
}
