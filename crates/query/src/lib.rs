//! # themis-query
//!
//! Query graphs, fragments and deployments for THEMIS (§3 of the paper),
//! the Table-1 evaluation workloads, and the fragment runtime shared by the
//! simulator and the prototype engine.
//!
//! * [`graph`] — [`graph::QuerySpec`] / [`graph::FragmentSpec`]: operator
//!   DAGs partitioned into fragments, with validation;
//! * [`spec`] — the declarative frontend: a SQL-ish text parser and a
//!   typed builder, staged `Draft → Validated → Compiled` into
//!   [`graph::QuerySpec`];
//! * [`templates`] — the aggregate (`AVG`, `MAX`, `COUNT`) and complex
//!   (`AVG-all`, `TOP-5`, `COV`) workloads of Table 1, as presets over
//!   [`spec`];
//! * [`placement`] — round-robin and Zipf fragment placement under the
//!   "one node per fragment of a query" constraint;
//! * [`runtime`] — [`runtime::FragmentRuntime`], which executes a
//!   fragment's operators with SIC propagation;
//! * [`node`] — [`node::Node`], the one Figure-5 node (input buffer,
//!   overload detector, shedder, hosted fragments) that the simulator and
//!   the prototype engine both drive.
//!
//! ```
//! use themis_core::prelude::*;
//! use themis_query::prelude::*;
//!
//! let mut sources = IdGen::new();
//! let q = Template::Top5 { fragments: 2 }.build(QueryId(0), &mut sources);
//! assert_eq!(q.n_fragments(), 2);
//! assert_eq!(q.fragments[0].n_operators(), 29); // Table 1
//! q.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod node;
pub mod placement;
pub mod runtime;
pub mod spec;
pub mod templates;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::graph::{
        keyed_measurement_schema, measurement_schema, FragmentSpec, LocalEdge, QueryError,
        QuerySpec, SourceBinding, SourceKind, SourceSpec, TagSource, UpstreamBinding,
    };
    pub use crate::node::{Node, NodeReport, RoutedBatch};
    pub use crate::placement::{place, Deployment, PlacementError, PlacementPolicy};
    pub use crate::runtime::{FragmentRuntime, Ingress};
    pub use crate::spec::{
        AggFunc, CompiledQuery, MergeShape, QueryDef, Select, SpecError, StreamDef, ValidatedQuery,
    };
    pub use crate::templates::Template;
}
