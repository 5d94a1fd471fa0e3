//! Pins the operator graph every lowering builds, byte for byte.
//!
//! Each case renders its compiled [`QuerySpec`] canonically (every
//! `FragmentSpec` field through `Debug`; each source as id, key, kind
//! and, for tag sources, label, code and schema fields) and pins the
//! rendering's length and CRC-32. A change to operator order, edge
//! order, source-id draw order or grace schedule fails here, and so
//! does any change in what the runtimes are handed.
//!
//! The whole spec is not pinned through plain `{:?}`: a tag schema's
//! interner prints its `HashMap` index in a different order from run to
//! run.

use std::fmt::Write;

use themis_core::frame::crc32;
use themis_core::prelude::*;
use themis_query::graph::QuerySpec;
use themis_query::spec::QueryDef;
use themis_query::templates::Template;

/// Borrows a compiled query's operator graph.
trait AsGraph {
    fn spec(&self) -> &QuerySpec;
}

impl AsGraph for QuerySpec {
    fn spec(&self) -> &QuerySpec {
        self
    }
}

fn render(q: &QuerySpec) -> String {
    let mut out = format!(
        "id={:?} template={:?} result={}\n",
        q.id, q.template, q.result_fragment
    );
    for f in &q.fragments {
        writeln!(out, "{f:?}").unwrap();
    }
    for s in &q.sources {
        write!(out, "source {:?} key={:?} kind={:?}", s.id, s.key, s.kind).unwrap();
        if let Some(t) = &s.tag {
            let fields: Vec<_> = t.schema.fields().collect();
            write!(out, " tag={:?} code={} schema={fields:?}", t.label, t.code).unwrap();
        }
        out.push('\n');
    }
    out
}

/// The mismatch, if `q`'s rendering is not `(length, crc)`.
fn pin(name: &str, q: &QuerySpec, (len, crc): (usize, u32)) -> Option<String> {
    assert_eq!(q.validate(), Ok(()), "{name}");
    let text = render(q);
    let got = (text.len(), crc32(text.as_bytes()));
    (got != (len, crc)).then(|| format!("{name}: {} {:#010x}", got.0, got.1))
}

fn compile_text(text: &str) -> QuerySpec {
    // Earlier queries drew source ids too: start past zero so the pins
    // cover ids that are not the generator's first.
    let mut ids = IdGen::new();
    for _ in 0..3 {
        let _: SourceId = ids.next();
    }
    let compiled = QueryDef::parse(text)
        .unwrap_or_else(|e| panic!("{text}: {e}"))
        .validate()
        .unwrap_or_else(|e| panic!("{text}: {e}"))
        .compile(QueryId(11), &mut ids);
    compiled.spec().clone()
}

#[test]
fn table1_preset_graphs_are_pinned() {
    let cases: [(Template, usize, u32); 12] = [
        (Template::Avg, 562, 0x5dc3_67b4),
        (Template::Max, 562, 0xe298_e03e),
        (Template::Count, 618, 0x13ba_e2b7),
        (Template::AvgAll { fragments: 1 }, 2639, 0xae19_612e),
        (Template::AvgAll { fragments: 3 }, 7917, 0x04af_d670),
        (Template::AvgAll { fragments: 6 }, 15837, 0x7c43_cb66),
        (Template::Top5 { fragments: 1 }, 5848, 0xdb95_5dff),
        (Template::Top5 { fragments: 2 }, 11745, 0xbe32_c138),
        (Template::Top5 { fragments: 6 }, 35373, 0x9d5a_d872),
        (Template::Cov { fragments: 1 }, 924, 0x8028_a32f),
        (Template::Cov { fragments: 3 }, 2792, 0xc6ad_c0c4),
        (Template::Cov { fragments: 6 }, 5598, 0x18eb_286d),
    ];
    let failures: Vec<String> = cases
        .into_iter()
        .filter_map(|(t, len, crc)| {
            let q = t.build(QueryId(5), &mut IdGen::new());
            pin(&format!("{t:?}"), &q, (len, crc))
        })
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn declarative_graphs_are_pinned() {
    let cases: [(&str, usize, u32); 10] = [
        ("SELECT MIN(value) FROM src[3] WHERE value < 20", 1165, 0xd1fc_3dc8),
        ("SELECT SUM(value) FROM src[4]", 1218, 0x3f47_a417),
        ("SELECT MAX(value) FROM src[2] WINDOW 250ms", 785, 0x4304_054b),
        (
            "SELECT host, SUM(value) FROM sensors[8] GROUP BY host",
            2733,
            0x7c34_e72f,
        ),
        (
            "SELECT rack, COUNT(value) FROM racks[3] GROUP BY rack WINDOW 2s",
            1335,
            0xb311_cd27,
        ),
        (
            "SELECT TOP 3 key BY AVG(value) FROM cpu[4] JOIN mem[4] ON key WHERE mem.value >= 1",
            3180,
            0x2cdd_141b,
        ),
        (
            "SELECT TOP 2 key BY AVG(value) FROM cpu[3] JOIN mem[3] ON key WINDOW 500ms FRAGMENTS 3",
            7754,
            0xb47d_cade,
        ),
        ("SELECT AVG(value) FROM cpu[3] FRAGMENTS 4 MERGE TREE", 4512, 0xddb7_2749),
        ("SELECT COV(value) FROM cpu[2] FRAGMENTS 3", 2800, 0x4e74_5329),
        ("SELECT COUNT(value) FROM src[2] WHERE value >= 50", 842, 0xf97b_1a0a),
    ];
    let failures: Vec<String> = cases
        .into_iter()
        .filter_map(|(text, len, crc)| pin(text, &compile_text(text), (len, crc)))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
