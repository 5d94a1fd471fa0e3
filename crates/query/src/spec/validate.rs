//! The *Validated* stage: semantic checking of a draft.
//!
//! [`validate`] resolves every column reference against the schema the
//! query's streams will emit, checks the aggregate/grouping/fragment
//! combination against the shapes the runtime supports, and records the
//! chosen lowering as a private [`Plan`]. A [`ValidatedQuery`] can only
//! be built here, so [`compile`](super::compile) never sees an invalid
//! query — the invalid states are unrepresentable past this point.

use std::fmt;

use themis_core::prelude::{IdGen, QueryId, TimeDelta};
use themis_operators::prelude::Predicate;

use super::def::{AggFunc, FilterDef, MergeShape, QueryDef, Select};
use crate::graph::QuerySpec;

/// Everything that can go wrong turning text or a draft into a query
/// graph.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text did not match the grammar.
    Parse {
        /// Byte offset of the offending token.
        pos: usize,
        /// What was expected / found.
        message: String,
    },
    /// A column reference does not exist in the stream schema.
    UnknownColumn {
        /// The unresolved column.
        column: String,
        /// Columns the schema does declare.
        available: Vec<String>,
    },
    /// An aggregate targets a tag (string) column.
    AggregateOnTag {
        /// The aggregate.
        func: AggFunc,
        /// The tag column.
        column: String,
    },
    /// `GROUP BY` targets the numeric measurement column.
    GroupByNotTag {
        /// The numeric column.
        column: String,
    },
    /// The combination is well-formed but outside the supported shapes.
    Unsupported {
        /// Why, and what to use instead.
        message: String,
    },
    /// A structurally invalid draft (zero sources, zero window, ...).
    Invalid {
        /// What is wrong.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { pos, message } => {
                write!(f, "parse error at byte {pos}: {message}")
            }
            SpecError::UnknownColumn { column, available } => {
                write!(
                    f,
                    "unknown column `{column}` (available columns: {})",
                    available.join(", ")
                )
            }
            SpecError::AggregateOnTag { func, column } => write!(
                f,
                "cannot compute {func} over tag column `{column}`; aggregates need a \
                 numeric column (did you mean `GROUP BY {column}`?)"
            ),
            SpecError::GroupByNotTag { column } => write!(
                f,
                "cannot GROUP BY numeric column `{column}`; grouping needs a tag \
                 column — the numeric measurement stays the aggregate input"
            ),
            SpecError::Unsupported { message } | SpecError::Invalid { message } => {
                f.write_str(message)
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn unsupported(message: impl Into<String>) -> SpecError {
    SpecError::Unsupported {
        message: message.into(),
    }
}

fn invalid(message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        message: message.into(),
    }
}

/// The lowering chosen for a validated query. Private to the spec
/// module: external code only observes the compiled [`QuerySpec`].
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Plan {
    /// Single-fragment windowed aggregate (Table 1's `AVG`/`MAX`/`COUNT`
    /// shape, plus `MIN`/`SUM` and optional `WHERE`).
    Simple {
        func: AggFunc,
        predicate: Option<Predicate>,
    },
    /// Multi-fragment partial-average tree (`AVG-all`).
    Tree,
    /// Keyed two-stream join chain ranking the top `k` keys (`TOP-5`).
    TopK {
        k: usize,
        threshold: Option<Predicate>,
    },
    /// Chained two-source covariance (`COV`).
    CovChain,
    /// Single-fragment tag group-by dispatching to the columnar
    /// group-aggregate kernel.
    GroupBy { group: String },
}

/// A semantically checked query — the *Validated* stage.
///
/// Only [`QueryDef::validate`] constructs one; both fields stay private
/// so a `ValidatedQuery` always holds a draft that passed every check,
/// together with its lowering plan. Compilation cannot fail from here.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedQuery {
    def: QueryDef,
    plan: Plan,
}

impl ValidatedQuery {
    /// The underlying (validated) draft.
    pub fn def(&self) -> &QueryDef {
        &self.def
    }

    pub(super) fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Lowers the query to its [`QuerySpec`] graph, drawing fresh
    /// source ids from `sources` — the *Compiled* stage. This is
    /// infallible: every failure mode was ruled out by validation.
    pub fn compile(&self, id: QueryId, sources: &mut IdGen) -> QuerySpec {
        super::compile::compile(self, id, sources)
    }
}

/// Column names of the plain measurement schema (`[value: f64]`).
const VALUE: &str = "value";
/// Key column of the keyed measurement schema (`[key: i64, value: f64]`).
const KEY: &str = "key";

/// Most sources one query may declare (stream counts × fragments).
const MAX_SOURCES: usize = 65_536;
/// Most fragments one query may declare: each is deployed on its own
/// node, and the largest deployment the experiments run (the scale
/// smoke) has 1 024 nodes.
const MAX_FRAGMENTS: usize = 1_024;
/// Longest window a query may declare.
const MAX_WINDOW: TimeDelta = TimeDelta(86_400_000_000);

pub(super) fn validate(def: QueryDef) -> Result<ValidatedQuery, SpecError> {
    if def.streams.is_empty() {
        return Err(invalid("the query declares no input stream"));
    }
    for s in &def.streams {
        if s.count == 0 {
            return Err(invalid(format!(
                "stream `{}` declares zero sources; use `{}[n]` with n >= 1",
                s.name, s.name
            )));
        }
    }
    if def.fragments == 0 {
        return Err(invalid("FRAGMENTS must be at least 1"));
    }
    if def.fragments > MAX_FRAGMENTS {
        return Err(invalid(format!(
            "FRAGMENTS {} exceeds the limit of {MAX_FRAGMENTS} (one node per fragment)",
            def.fragments
        )));
    }
    let per_fragment = def
        .streams
        .iter()
        .fold(0usize, |n, s| n.saturating_add(s.count));
    let sources = per_fragment.saturating_mul(def.fragments);
    if sources > MAX_SOURCES {
        return Err(invalid(format!(
            "the query declares {sources} sources (stream counts × fragments), \
             over the limit of {MAX_SOURCES}"
        )));
    }
    if def.window.is_zero() {
        return Err(invalid("WINDOW must be positive"));
    }
    if def.window > MAX_WINDOW {
        return Err(invalid(format!(
            "WINDOW {} s exceeds the limit of one day ({} s)",
            def.window.as_micros() / 1_000_000,
            MAX_WINDOW.as_micros() / 1_000_000
        )));
    }

    let plan = match &def.select {
        Select::TopK {
            k,
            key,
            func,
            column,
        } => plan_top_k(&def, *k, key, *func, column)?,
        Select::Agg { func, column } => match &def.group_by {
            Some(group) => plan_group_by(&def, *func, column, group)?,
            None => plan_aggregate(&def, *func, column)?,
        },
    };

    Ok(ValidatedQuery { def, plan })
}

fn plan_top_k(
    def: &QueryDef,
    k: usize,
    key: &str,
    func: AggFunc,
    column: &str,
) -> Result<Plan, SpecError> {
    if k == 0 {
        return Err(invalid("TOP 0 selects nothing; use TOP k with k >= 1"));
    }
    if def.group_by.is_some() {
        return Err(unsupported(
            "TOP k .. BY already groups by its key column; drop the GROUP BY clause",
        ));
    }
    if def.merge == MergeShape::Tree {
        return Err(unsupported(
            "TOP k fragments form a chain; drop `MERGE TREE`",
        ));
    }
    if def.join_on.is_none() || def.streams.len() != 2 {
        return Err(unsupported(
            "TOP k ranks entities across two keyed streams; join one, e.g. \
             `FROM cpu[10] JOIN mem[10] ON key`",
        ));
    }
    // Joined streams emit the keyed measurement schema [key, value].
    let keyed = || vec![KEY.to_string(), VALUE.to_string()];
    for col in [key, def.join_on.as_deref().unwrap_or_default()] {
        if col != KEY {
            return Err(SpecError::UnknownColumn {
                column: col.to_string(),
                available: keyed(),
            });
        }
    }
    if column != VALUE {
        return Err(SpecError::UnknownColumn {
            column: column.to_string(),
            available: keyed(),
        });
    }
    if func != AggFunc::Avg {
        return Err(unsupported(format!(
            "TOP k ranks by the per-key window average; use AVG instead of {func}"
        )));
    }
    let (a, b) = (&def.streams[0], &def.streams[1]);
    if a.count != b.count {
        return Err(invalid(format!(
            "TOP k pairs sources one-to-one per key, so both streams need the \
             same source count (got {}[{}] and {}[{}])",
            a.name, a.count, b.name, b.count
        )));
    }
    let threshold = match &def.filter {
        None => None,
        Some(f) => {
            match f.stream.as_deref() {
                None => {
                    return Err(unsupported(format!(
                        "a WHERE over joined streams is ambiguous; qualify the \
                         column, e.g. `{}.{}`",
                        b.name, f.column
                    )))
                }
                Some(s) if s == a.name => {
                    return Err(unsupported(format!(
                        "filters on the first (ranked) stream `{}` are not \
                         supported; TOP k filters the joined stream `{}`",
                        a.name, b.name
                    )))
                }
                Some(s) if s == b.name => {}
                Some(s) => {
                    return Err(invalid(format!(
                        "unknown stream `{s}` in WHERE (declared streams: {}, {})",
                        a.name, b.name
                    )))
                }
            }
            if f.column != VALUE {
                return Err(SpecError::UnknownColumn {
                    column: f.column.clone(),
                    available: keyed(),
                });
            }
            Some(Predicate::new(1, f.op, f.value))
        }
    };
    Ok(Plan::TopK { k, threshold })
}

fn plan_group_by(
    def: &QueryDef,
    func: AggFunc,
    column: &str,
    group: &str,
) -> Result<Plan, SpecError> {
    if def.join_on.is_some() || def.streams.len() != 1 {
        return Err(unsupported("GROUP BY queries read a single stream"));
    }
    if def.fragments != 1 || def.merge == MergeShape::Tree {
        return Err(unsupported(
            "GROUP BY queries are single-fragment; drop FRAGMENTS/MERGE",
        ));
    }
    if group == VALUE {
        return Err(SpecError::GroupByNotTag {
            column: group.to_string(),
        });
    }
    // The stream emits [group: tag, value: f64].
    if column == group {
        return Err(SpecError::AggregateOnTag {
            func,
            column: column.to_string(),
        });
    }
    if column != VALUE {
        return Err(SpecError::UnknownColumn {
            column: column.to_string(),
            available: vec![group.to_string(), VALUE.to_string()],
        });
    }
    if !matches!(func, AggFunc::Sum | AggFunc::Avg | AggFunc::Count) {
        return Err(unsupported(format!(
            "GROUP BY supports SUM, AVG and COUNT (the grouped sum/count \
             kernel); got {func}"
        )));
    }
    if let Some(f) = &def.filter {
        if f.column != VALUE {
            return Err(SpecError::UnknownColumn {
                column: f.column.clone(),
                available: vec![group.to_string(), VALUE.to_string()],
            });
        }
        return Err(unsupported(
            "WHERE is not yet supported with GROUP BY; drop the predicate",
        ));
    }
    Ok(Plan::GroupBy {
        group: group.to_string(),
    })
}

fn plan_aggregate(def: &QueryDef, func: AggFunc, column: &str) -> Result<Plan, SpecError> {
    if def.join_on.is_some() || def.streams.len() != 1 {
        return Err(unsupported(
            "JOIN is only supported with `TOP k .. BY`; plain aggregates read \
             a single stream",
        ));
    }
    let stream = &def.streams[0];
    // The stream emits the plain measurement schema [value].
    if column != VALUE {
        return Err(SpecError::UnknownColumn {
            column: column.to_string(),
            available: vec![VALUE.to_string()],
        });
    }
    let predicate = match &def.filter {
        None => None,
        Some(FilterDef {
            stream: qual,
            column,
            op,
            value,
        }) => {
            if let Some(q) = qual {
                if *q != stream.name {
                    return Err(invalid(format!(
                        "unknown stream `{q}` in WHERE (declared stream: {})",
                        stream.name
                    )));
                }
            }
            if column != VALUE {
                return Err(SpecError::UnknownColumn {
                    column: column.clone(),
                    available: vec![VALUE.to_string()],
                });
            }
            Some(Predicate::new(0, *op, *value))
        }
    };
    if func == AggFunc::Cov {
        if stream.count != 2 {
            return Err(invalid(format!(
                "COV correlates exactly two sources per fragment; declare \
                 `{}[2]` (got {})",
                stream.name, stream.count
            )));
        }
        if predicate.is_some() {
            return Err(unsupported("WHERE is not supported with COV"));
        }
        if def.merge == MergeShape::Tree {
            return Err(unsupported("COV fragments form a chain; drop `MERGE TREE`"));
        }
        return Ok(Plan::CovChain);
    }
    if def.merge == MergeShape::Tree {
        if func != AggFunc::Avg {
            return Err(unsupported(format!(
                "MERGE TREE merges [sum, count] partials into an average and \
                 only supports AVG; got {func}"
            )));
        }
        if predicate.is_some() {
            return Err(unsupported(
                "WHERE is not supported with multi-fragment AVG",
            ));
        }
        return Ok(Plan::Tree);
    }
    if def.fragments > 1 {
        return Err(unsupported(format!(
            "multi-fragment {func} has no merge rule; use `MERGE TREE` with \
             AVG, or COV / TOP k chains"
        )));
    }
    Ok(Plan::Simple { func, predicate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SourceKind;
    use crate::spec::StreamDef;
    use themis_operators::prelude::CmpOp;

    #[test]
    fn validates_the_table1_shapes() {
        for text in [
            "SELECT AVG(value) FROM src WINDOW 1s",
            "SELECT MAX(value) FROM src WINDOW 1s",
            "SELECT MIN(value) FROM src WINDOW 1s",
            "SELECT SUM(value) FROM src WINDOW 1s",
            "SELECT COUNT(value) FROM src WHERE value >= 50 WINDOW 1s",
            "SELECT AVG(value) FROM cpu[10] WINDOW 1s FRAGMENTS 4 MERGE TREE",
            "SELECT TOP 5 key BY AVG(value) FROM cpu[10] JOIN mem[10] ON key \
             WHERE mem.value >= 100000 WINDOW 1s FRAGMENTS 2",
            "SELECT COV(value) FROM cpu[2] WINDOW 1s FRAGMENTS 3",
            "SELECT host, SUM(value) FROM sensors[8] GROUP BY host WINDOW 1s",
        ] {
            QueryDef::parse(text)
                .and_then(QueryDef::validate)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn unknown_column_lists_available_ones() {
        let e = QueryDef::parse("SELECT AVG(volts) FROM src")
            .unwrap()
            .validate()
            .unwrap_err();
        assert_eq!(
            e,
            SpecError::UnknownColumn {
                column: "volts".into(),
                available: vec!["value".into()]
            }
        );
        assert!(e.to_string().contains("available columns: value"), "{e}");
    }

    #[test]
    fn aggregate_on_tag_is_rejected() {
        let e = QueryDef::parse("SELECT host, SUM(host) FROM sensors[4] GROUP BY host")
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(
            matches!(&e, SpecError::AggregateOnTag { column, .. } if column == "host"),
            "{e:?}"
        );
        assert!(e.to_string().contains("GROUP BY host"), "{e}");
    }

    #[test]
    fn group_by_on_numeric_column_is_rejected() {
        let e = QueryDef::parse("SELECT SUM(value) FROM sensors[4] GROUP BY value")
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(
            matches!(&e, SpecError::GroupByNotTag { column } if column == "value"),
            "{e:?}"
        );
    }

    #[test]
    fn top_k_requires_a_keyed_join() {
        let e = QueryDef::parse("SELECT TOP 5 key BY AVG(value) FROM cpu[10]")
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("JOIN"), "{e}");

        let e =
            QueryDef::parse("SELECT TOP 5 node BY AVG(value) FROM cpu[10] JOIN mem[10] ON node")
                .unwrap()
                .validate()
                .unwrap_err();
        assert!(
            matches!(&e, SpecError::UnknownColumn { column, .. } if column == "node"),
            "{e:?}"
        );
    }

    #[test]
    fn join_filters_must_be_qualified_with_the_joined_stream() {
        let base = "SELECT TOP 5 key BY AVG(value) FROM cpu[10] JOIN mem[10] ON key";
        for (clause, needle) in [
            (" WHERE value >= 1", "ambiguous"),
            (" WHERE cpu.value >= 1", "first (ranked) stream"),
            (" WHERE disk.value >= 1", "unknown stream `disk`"),
        ] {
            let e = QueryDef::parse(&format!("{base}{clause}"))
                .unwrap()
                .validate()
                .unwrap_err();
            assert!(e.to_string().contains(needle), "{clause}: {e}");
        }
    }

    #[test]
    fn shape_mismatches_are_actionable() {
        for (text, needle) in [
            ("SELECT MAX(value) FROM s FRAGMENTS 3", "MERGE TREE"),
            (
                "SELECT MAX(value) FROM s FRAGMENTS 3 MERGE TREE",
                "only supports AVG",
            ),
            ("SELECT COV(value) FROM s[3]", "exactly two sources"),
            ("SELECT SUM(value) FROM s[0]", "zero sources"),
            ("SELECT SUM(value) FROM s FRAGMENTS 0", "at least 1"),
            ("SELECT SUM(value) FROM s WINDOW 0s", "positive"),
            (
                "SELECT TOP 0 key BY AVG(value) FROM cpu[2] JOIN mem[2] ON key",
                "TOP 0",
            ),
            (
                "SELECT TOP 5 key BY AVG(value) FROM cpu[10] JOIN mem[4] ON key",
                "same source count",
            ),
            (
                "SELECT host, MAX(value) FROM s[4] GROUP BY host",
                "SUM, AVG and COUNT",
            ),
            (
                "SELECT host, SUM(value) FROM s[4] GROUP BY host FRAGMENTS 2",
                "single-fragment",
            ),
        ] {
            let e = QueryDef::parse(text).unwrap().validate().unwrap_err();
            assert!(e.to_string().contains(needle), "{text}: {e}");
        }
    }

    /// Asserts `text` validates when `ok`, and otherwise fails with a
    /// [`SpecError::Invalid`] naming `limit`.
    fn bounded(text: &str, ok: bool, limit: &str) {
        match QueryDef::parse(text).unwrap().validate() {
            Ok(_) => assert!(ok, "{text}: accepted past the limit"),
            Err(e) => {
                assert!(!ok, "{text}: {e}");
                assert!(matches!(e, SpecError::Invalid { .. }), "{text}: {e:?}");
                assert!(e.to_string().contains(limit), "{text}: {e}");
            }
        }
    }

    #[test]
    fn source_count_is_bounded() {
        for (text, ok) in [
            ("SELECT AVG(value) FROM src[65536]", true),
            ("SELECT AVG(value) FROM src[65537]", false),
            ("SELECT AVG(value) FROM src[100000000000]", false),
            (
                "SELECT TOP 5 key BY AVG(value) FROM cpu[16384] JOIN mem[16384] ON key \
                 FRAGMENTS 2",
                true,
            ),
            (
                "SELECT TOP 5 key BY AVG(value) FROM cpu[16384] JOIN mem[16385] ON key \
                 FRAGMENTS 2",
                false,
            ),
        ] {
            bounded(text, ok, "limit of 65536");
        }
    }

    #[test]
    fn fragment_count_is_bounded() {
        for (text, ok) in [
            ("SELECT COV(value) FROM cpu[2] FRAGMENTS 1024", true),
            ("SELECT COV(value) FROM cpu[2] FRAGMENTS 1025", false),
            (
                "SELECT AVG(value) FROM src FRAGMENTS 100000000000 MERGE TREE",
                false,
            ),
        ] {
            bounded(text, ok, "limit of 1024");
        }
    }

    #[test]
    fn window_length_is_bounded() {
        for (text, ok) in [
            ("SELECT AVG(value) FROM src WINDOW 86400s", true),
            ("SELECT AVG(value) FROM src WINDOW 86400000001us", false),
            (
                "SELECT AVG(value) FROM src WINDOW 100000000000000000000000s",
                false,
            ),
        ] {
            bounded(text, ok, "limit of one day");
        }
    }

    #[test]
    fn validated_query_exposes_its_def() {
        let v = QueryDef::aggregate(AggFunc::Avg, "value")
            .from_stream(StreamDef::new("cpu", 1).with_kind(SourceKind::Generic))
            .validate()
            .unwrap();
        assert_eq!(v.def().streams[0].kind, SourceKind::Generic);
    }

    #[test]
    fn builder_filter_parses_qualified_columns() {
        let d = QueryDef::aggregate(AggFunc::Count, "value").filter("src.value", CmpOp::Ge, 50.0);
        let f = d.filter.as_ref().unwrap();
        assert_eq!(f.stream.as_deref(), Some("src"));
        assert_eq!(f.column, "value");
        d.validate().unwrap();
    }
}
