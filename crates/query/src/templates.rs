//! The query workloads of Table 1, as presets over the declarative
//! [`spec`](crate::spec) layer.
//!
//! **Aggregate workload** (single source, 1 s windows): `AVG`, `MAX`,
//! `COUNT` (`Having t.v >= 50`).
//!
//! **Complex workload** (data-centre monitoring, multi-fragment):
//! * `AVG-all` — average CPU usage over all sources; fragments form a
//!   *tree*: every fragment computes a `[sum, count]` partial over its 10
//!   sources and the root fragment merges partials into the final average.
//!   13 operators per fragment.
//! * `TOP-5` — top 5 nodes by available CPU with free memory ≥ 100 MB;
//!   fragments form a *chain*, each merging its local top-5 candidates with
//!   the upstream partial list. 29 operators per fragment (10 CPU
//!   receivers, 10 memory receivers, 1 filter, 3 time windows, 2 averages,
//!   1 join, 1 top-k, 1 output).
//! * `COV` — covariance of the CPU usage of two nodes; fragments form a
//!   chain; the final value is the mean of the per-fragment covariances
//!   (each fragment reduces its own pair of streams, so no raw tuples
//!   cross fragments). 5 operators per fragment.
//!
//! Each template is a [`QueryDef`] draft ([`Template::def`]) pushed
//! through the staged `validate → compile` pipeline, so templates and
//! hand-written declarative queries share a single graph-construction
//! path; [`Template::text`] shows the equivalent surface syntax.

use themis_core::prelude::*;

use crate::graph::{keyed_measurement_schema, measurement_schema, QuerySpec};
use crate::spec::{AggFunc, CmpOp, MergeShape, QueryDef, StreamDef};

pub use crate::spec::{GRACE_BASE, GRACE_STEP};

/// The evaluation's window length: every Table-1 query reports once per
/// second.
pub const WINDOW: TimeDelta = TimeDelta(1_000_000);

/// A Table-1 query template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// `Select Avg(t.v) from Src[Range 1 sec]`
    Avg,
    /// `Select Max(t.v) from Src[Range 1 sec]`
    Max,
    /// `Select Count(t.v) ... Having t.v >= 50`
    Count,
    /// Average CPU usage over all sources (tree of fragments).
    AvgAll {
        /// Number of fragments (≥ 1).
        fragments: usize,
    },
    /// Top-5 nodes by CPU with memory filter (chain of fragments).
    Top5 {
        /// Number of fragments (≥ 1).
        fragments: usize,
    },
    /// Covariance of two CPU streams (chain of fragments).
    Cov {
        /// Number of fragments (≥ 1).
        fragments: usize,
    },
}

impl Template {
    /// Template name as in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Template::Avg => "AVG",
            Template::Max => "MAX",
            Template::Count => "COUNT",
            Template::AvgAll { .. } => "AVG-all",
            Template::Top5 { .. } => "TOP-5",
            Template::Cov { .. } => "COV",
        }
    }

    /// Operators per fragment, matching Table 1 for the complex workload.
    pub fn ops_per_fragment(&self) -> usize {
        match self {
            Template::Avg | Template::Max | Template::Count => 3,
            Template::AvgAll { .. } => 13,
            Template::Top5 { .. } => 29,
            Template::Cov { .. } => 5,
        }
    }

    /// Sources per fragment.
    pub fn sources_per_fragment(&self) -> usize {
        match self {
            Template::Avg | Template::Max | Template::Count => 1,
            Template::AvgAll { .. } => 10,
            Template::Top5 { .. } => 20,
            Template::Cov { .. } => 2,
        }
    }

    /// The per-query [`Schema`] its sources emit, declared by the
    /// template: TOP-5 sources tag each reading with a node id
    /// (`[key: i64, value: f64]`); every other workload streams plain
    /// measurements (`[value: f64]`). Sources build typed column batches
    /// against this declaration, which the window and operator path
    /// preserves end to end so the aggregate kernels read native slices.
    pub fn source_schema(&self) -> Schema {
        match self {
            Template::Top5 { .. } => keyed_measurement_schema(),
            _ => measurement_schema(),
        }
    }

    /// Number of fragments.
    pub fn fragments(&self) -> usize {
        match self {
            Template::Avg | Template::Max | Template::Count => 1,
            Template::AvgAll { fragments }
            | Template::Top5 { fragments }
            | Template::Cov { fragments } => (*fragments).max(1),
        }
    }

    /// The template as a declarative [`QueryDef`] draft — the single
    /// source of truth for what each Table-1 query *is*. [`Template::build`]
    /// pushes this draft through `validate → compile`.
    pub fn def(&self) -> QueryDef {
        let def = match self {
            Template::Avg => {
                QueryDef::aggregate(AggFunc::Avg, "value").from_stream(StreamDef::new("src", 1))
            }
            Template::Max => {
                QueryDef::aggregate(AggFunc::Max, "value").from_stream(StreamDef::new("src", 1))
            }
            Template::Count => QueryDef::aggregate(AggFunc::Count, "value")
                .from_stream(StreamDef::new("src", 1))
                .filter("value", CmpOp::Ge, 50.0),
            Template::AvgAll { .. } => QueryDef::aggregate(AggFunc::Avg, "value")
                .from_stream(StreamDef::new("cpu", 10))
                .fragments(self.fragments())
                .merge(MergeShape::Tree),
            Template::Top5 { .. } => QueryDef::top_k(5, "key", AggFunc::Avg, "value")
                .from_stream(StreamDef::new("cpu", 10))
                .join(StreamDef::new("mem", 10), "key")
                .filter("mem.value", CmpOp::Ge, 100_000.0)
                .fragments(self.fragments()),
            Template::Cov { .. } => QueryDef::aggregate(AggFunc::Cov, "value")
                .from_stream(StreamDef::new("cpu", 2))
                .fragments(self.fragments()),
        };
        def.named(self.name()).window(WINDOW)
    }

    /// The template in the declarative surface syntax
    /// (`QueryDef::parse(t.text())` reproduces [`Template::def`]).
    pub fn text(&self) -> String {
        self.def().text()
    }

    /// Builds the query, drawing fresh source ids from `sources`.
    pub fn build(&self, id: QueryId, sources: &mut IdGen) -> QuerySpec {
        self.def()
            .validate()
            .expect("Table-1 templates are valid by construction")
            .compile(id, sources)
            .into_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SourceKind;

    fn build(t: Template) -> QuerySpec {
        let mut gen = IdGen::new();
        t.build(QueryId(0), &mut gen)
    }

    #[test]
    fn table1_operator_counts() {
        // The paper's Table 1: 13, 29 and 5 operators per fragment.
        for (t, ops) in [
            (Template::AvgAll { fragments: 3 }, 13),
            (Template::Top5 { fragments: 2 }, 29),
            (Template::Cov { fragments: 2 }, 5),
        ] {
            let q = build(t);
            for f in &q.fragments {
                assert_eq!(f.n_operators(), ops, "{}", t.name());
            }
            assert_eq!(t.ops_per_fragment(), ops);
        }
    }

    #[test]
    fn table1_source_counts() {
        for (t, srcs) in [
            (Template::Avg, 1),
            (Template::AvgAll { fragments: 4 }, 40),
            (Template::Top5 { fragments: 2 }, 40),
            (Template::Cov { fragments: 3 }, 6),
        ] {
            let q = build(t);
            assert_eq!(q.n_sources(), srcs, "{}", t.name());
        }
    }

    #[test]
    fn all_templates_validate() {
        for t in [
            Template::Avg,
            Template::Max,
            Template::Count,
            Template::AvgAll { fragments: 1 },
            Template::AvgAll { fragments: 6 },
            Template::Top5 { fragments: 1 },
            Template::Top5 { fragments: 6 },
            Template::Cov { fragments: 1 },
            Template::Cov { fragments: 6 },
        ] {
            let q = build(t);
            assert_eq!(q.validate(), Ok(()), "{}", t.name());
        }
    }

    #[test]
    fn avg_all_is_a_tree() {
        let q = build(Template::AvgAll { fragments: 4 });
        // Root fragment 0 consumes all leaves.
        assert_eq!(q.fragments[0].upstreams.len(), 3);
        assert_eq!(q.result_fragment, 0);
        for f in 1..4 {
            assert_eq!(q.downstream_of(f), Some(0));
        }
    }

    #[test]
    fn top5_and_cov_are_chains() {
        for t in [
            Template::Top5 { fragments: 4 },
            Template::Cov { fragments: 4 },
        ] {
            let q = build(t);
            assert_eq!(q.result_fragment, 3);
            for f in 0..3 {
                assert_eq!(q.downstream_of(f), Some(f + 1), "{}", t.name());
            }
            assert_eq!(q.downstream_of(3), None);
        }
    }

    #[test]
    fn chain_grace_grows_downstream() {
        let q = build(Template::Top5 { fragments: 3 });
        let merge_grace = |f: usize| q.fragments[f].operators[26].grace.as_micros();
        assert!(merge_grace(0) < merge_grace(1));
        assert!(merge_grace(1) < merge_grace(2));
    }

    #[test]
    fn templates_declare_source_schemas() {
        assert_eq!(
            Template::Top5 { fragments: 2 }.source_schema(),
            keyed_measurement_schema()
        );
        for t in [
            Template::Avg,
            Template::Max,
            Template::Count,
            Template::AvgAll { fragments: 2 },
            Template::Cov { fragments: 2 },
        ] {
            assert_eq!(t.source_schema(), measurement_schema(), "{}", t.name());
        }
        // Every declared source's schema agrees with its template.
        for t in [
            Template::Avg,
            Template::Top5 { fragments: 2 },
            Template::Cov { fragments: 2 },
        ] {
            let q = build(t);
            for s in &q.sources {
                assert_eq!(s.schema(), t.source_schema(), "{}", t.name());
            }
        }
        // The declared field layout matches what sources emit.
        let keyed = keyed_measurement_schema();
        assert_eq!(keyed.index_of("key"), Some(0));
        assert_eq!(keyed.field_type(1), Some(FieldType::F64));
        assert_eq!(measurement_schema().len(), 1);
    }

    #[test]
    fn source_ids_are_unique_across_queries() {
        let mut gen = IdGen::new();
        let q1 = Template::Top5 { fragments: 2 }.build(QueryId(0), &mut gen);
        let q2 = Template::Cov { fragments: 2 }.build(QueryId(1), &mut gen);
        let mut all: Vec<u32> = q1
            .sources
            .iter()
            .chain(q2.sources.iter())
            .map(|s| s.id.0)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn top5_keys_pair_cpu_and_mem() {
        let q = build(Template::Top5 { fragments: 2 });
        // For each key there must be exactly one Cpu and one MemFree source.
        use std::collections::HashMap;
        let mut by_key: HashMap<i64, (u32, u32)> = HashMap::new();
        for s in &q.sources {
            let e = by_key.entry(s.key.unwrap()).or_insert((0, 0));
            match s.kind {
                SourceKind::Cpu => e.0 += 1,
                SourceKind::MemFree => e.1 += 1,
                SourceKind::Generic => {}
            }
        }
        assert_eq!(by_key.len(), 20);
        assert!(by_key.values().all(|&(c, m)| c == 1 && m == 1));
    }

    #[test]
    fn template_text_round_trips_through_the_parser() {
        for t in [
            Template::Avg,
            Template::Max,
            Template::Count,
            Template::AvgAll { fragments: 4 },
            Template::Top5 { fragments: 3 },
            Template::Cov { fragments: 2 },
        ] {
            let reparsed = QueryDef::parse(&t.text())
                .unwrap_or_else(|e| panic!("{}: {e}", t.name()))
                .named(t.name());
            assert_eq!(reparsed, t.def(), "{}", t.name());
            let mut a = IdGen::new();
            let mut b = IdGen::new();
            let via_text = reparsed
                .validate()
                .unwrap()
                .compile(QueryId(0), &mut a)
                .into_spec();
            assert_eq!(via_text, t.build(QueryId(0), &mut b), "{}", t.name());
        }
    }

    #[test]
    fn template_streams_declare_their_kinds() {
        let d = Template::Top5 { fragments: 2 }.def();
        assert_eq!(d.streams[0].kind, SourceKind::Cpu);
        assert_eq!(d.streams[1].kind, SourceKind::MemFree);
        assert_eq!(Template::Avg.def().streams[0].kind, SourceKind::Generic);
        assert_eq!(
            Template::Cov { fragments: 2 }.def().streams[0].kind,
            SourceKind::Cpu
        );
    }
}
