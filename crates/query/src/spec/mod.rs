//! Declarative query frontend: text or builder → staged compilation
//! into the [`QuerySpec`](crate::graph::QuerySpec) operator graph.
//!
//! Queries move through three stages. Validation is the only way to
//! obtain a [`ValidatedQuery`], so compilation never sees an invalid
//! draft and cannot fail:
//!
//! ```text
//! text ── QueryDef::parse ──┐
//!                           ├─ QueryDef (Draft)
//! builder API ──────────────┘      │ .validate()      — all semantic checks
//!                                  ▼
//!                           ValidatedQuery            — plan chosen, no public constructor
//!                                  │ .compile(id, &mut IdGen)   — infallible
//!                                  ▼
//!                           QuerySpec                 — the operator graph
//! ```
//!
//! # Surface syntax
//!
//! ```text
//! SELECT <select> FROM <stream>
//!     [JOIN <stream> ON <column>]
//!     [WHERE [<stream>.]<column> (< | <= | > | >= | ==) <number>]
//!     [GROUP BY <column>]
//!     [WINDOW <number>(s | ms | us)]
//!     [FRAGMENTS <n>]
//!     [MERGE (CHAIN | TREE)]
//!
//! <select> := AGG(<column>)                  plain aggregate
//!           | <column>, AGG(<column>)        grouped aggregate
//!           | TOP <k> <column> BY AGG(<column>)   ranking
//! <agg>    := AVG | MAX | MIN | SUM | COUNT | COV
//! <stream> := <name>[<n sources>]            count defaults to 1
//! ```
//!
//! Keywords are case-insensitive and clauses appear in the order above.
//! Stream names choose the workload generator (`cpu*` → CPU usage,
//! `mem*` → free memory, else generic measurements). Plain streams emit
//! `[value: f64]` rows; joined streams emit `[key: i64, value: f64]`;
//! `GROUP BY g` streams emit `[g: tag, value: f64]` where every source
//! is labelled `<stream>-<i>` in one shared tag dictionary, so the
//! grouped aggregate runs on the columnar grouped sum/count kernel.
//!
//! The six Table-1 templates are thin presets over this layer — see
//! [`Template`](crate::templates::Template) — so declarative queries and
//! template-built queries share one graph-construction path:
//!
//! ```
//! use themis_core::prelude::*;
//! use themis_query::spec::QueryDef;
//! use themis_query::templates::Template;
//!
//! let mut a = IdGen::new();
//! let mut b = IdGen::new();
//! let parsed = QueryDef::parse(
//!     "SELECT AVG(value) FROM cpu[10] WINDOW 1s FRAGMENTS 4 MERGE TREE",
//! )
//! .unwrap()
//! .named("AVG-all")
//! .validate()
//! .unwrap()
//! .compile(QueryId(7), &mut a);
//! assert_eq!(parsed, Template::AvgAll { fragments: 4 }.build(QueryId(7), &mut b));
//! ```

mod compile;
mod def;
mod parse;
mod validate;

pub use compile::{GRACE_BASE, GRACE_STEP};
pub use def::{AggFunc, FilterDef, MergeShape, QueryDef, Select, StreamDef};
pub use validate::{SpecError, ValidatedQuery};

// Builder-API conveniences so `spec` users don't need a separate
// operators import for predicates.
pub use themis_operators::prelude::CmpOp;
