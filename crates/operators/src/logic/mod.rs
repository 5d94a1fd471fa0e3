//! Pane-atomic operator logic.
//!
//! THEMIS treats operators as black boxes (§4); here a [`PaneLogic`] maps the
//! atomic input groups of one pane (one group per input port) to one output
//! batch. The surrounding [`crate::op::WindowedOperator`] handles windowing
//! and SIC propagation, so logic implementations never touch SIC values.
//!
//! [`LogicSpec`] is the declarative, cloneable description used by query
//! templates; [`LogicSpec::build`] instantiates fresh stateful logic.

mod aggregates;
mod cov;
mod filter;
mod group;
mod join;
mod topk;

pub use aggregates::{
    AvgLogic, CountLogic, MaxLogic, MergeAvgLogic, MinLogic, PartialAvgLogic, SumLogic,
};
pub use cov::CovLogic;
pub use filter::{CmpOp, FilterLogic, IdentityLogic, Predicate, ProjectLogic};
pub use group::GroupAggregateLogic;
pub use join::JoinLogic;
pub use topk::{GroupAvgLogic, GroupMaxLogic, TopKLogic};

use std::sync::Arc;

use themis_core::prelude::*;

/// Black-box operator logic: maps one pane's atomic input groups to the
/// pane's output batch. `panes[p]` holds the columnar tuple batch of input
/// port `p`.
///
/// An empty output batch means the pane emits nothing (its SIC mass is
/// lost — the paper's model). Row-preserving logic (identity, filter,
/// project) keeps each input row's timestamp, so downstream event-time
/// windows keep grouping correctly; all other logic stamps its rows with
/// `at`, the pane's window timestamp. The operator wrapper overwrites
/// every output row's SIC with its Eq.-3 share.
pub trait PaneLogic: Send {
    /// Computes the output batch of one atomic processing step.
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch;

    /// Display name for diagnostics.
    fn name(&self) -> &'static str;

    /// True when [`PaneLogic::apply`] returns its input's live rows
    /// unchanged (identity). The operator then hands a pane's single
    /// drop-free input batch on by move instead of calling `apply`.
    fn forwards_input(&self) -> bool {
        false
    }
}

/// The output of logic whose rows are computed rather than copied from
/// input rows: one row per item of `rows` under `schema`, each stamped
/// `at` (SIC left for the wrapper). No rows yield the allocation-free
/// empty batch.
fn emit<const N: usize>(
    schema: &Schema,
    at: Timestamp,
    rows: impl ExactSizeIterator<Item = [Value; N]>,
) -> TupleBatch {
    if rows.len() == 0 {
        return TupleBatch::new();
    }
    let mut out = TupleBatch::with_schema_capacity(schema.clone(), rows.len());
    for row in rows {
        out.push_row(at, Sic::ZERO, &row);
    }
    out
}

/// A derived schema whose tag fields share `dict` — the input's
/// dictionary, so copied tag codes keep resolving downstream — or a fresh
/// dictionary when the input has none.
fn derived_schema(fields: Vec<(String, FieldType)>, dict: Option<&Arc<TagInterner>>) -> Schema {
    match dict {
        Some(d) => Schema::with_interner(fields, Arc::clone(d)),
        None => Schema::new(fields),
    }
}

/// Declarative description of operator logic, used by query templates.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicSpec {
    /// Pass tuples through unchanged (receivers, forwarders, output ops).
    Identity,
    /// Keep rows matching a predicate; the pane's SIC mass redistributes
    /// over the survivors per Eq. 3.
    Filter(Predicate),
    /// Project a subset of fields.
    Project(Vec<usize>),
    /// Average of a field over the pane (emits `[avg]`).
    Avg {
        /// Field index to average.
        field: usize,
    },
    /// Partial average for incremental trees (emits `[sum, count]`).
    PartialAvg {
        /// Field index to sum.
        field: usize,
    },
    /// Merges `[sum, count]` partials into a final `[avg]`.
    MergeAvg,
    /// Sum of a field (emits `[sum]`).
    Sum {
        /// Field index to sum.
        field: usize,
    },
    /// Count of rows matching an optional predicate (emits `[count]`).
    Count {
        /// Optional HAVING-style predicate.
        predicate: Option<Predicate>,
    },
    /// Maximum of a field (emits `[max]`).
    Max {
        /// Field index.
        field: usize,
    },
    /// Minimum of a field (emits `[min]`).
    Min {
        /// Field index.
        field: usize,
    },
    /// Top-k rows by value (emits k rows `[id, value]`).
    TopK {
        /// How many rows to keep.
        k: usize,
        /// Field holding the row identifier.
        id_field: usize,
        /// Field holding the ranking value.
        value_field: usize,
    },
    /// Per-key maximum (group-by; emits `[key, max]` rows).
    GroupMax {
        /// Field holding the grouping key.
        key_field: usize,
        /// Field holding the value.
        value_field: usize,
    },
    /// Per-key average (group-by; emits `[key, avg]` rows).
    GroupAvg {
        /// Field holding the grouping key.
        key_field: usize,
        /// Field holding the value.
        value_field: usize,
    },
    /// Per-tag sum/count over a dictionary-coded key column (emits
    /// `[tag, sum, count]` rows in ascending code order), running the
    /// [`crate::kernels::group_sum_count_f64`] kernel on the raw code
    /// slice.
    GroupAggregate {
        /// Field holding the dictionary-coded grouping tag.
        key_field: usize,
        /// Field holding the value.
        value_field: usize,
    },
    /// Sample covariance between port-0 and port-1 values
    /// (emits `[cov]`).
    Cov {
        /// Field index on both ports.
        field: usize,
    },
    /// Equi-join of port 0 and port 1 on key fields; emits concatenated
    /// rows.
    Join {
        /// Key field on port 0.
        left_key: usize,
        /// Key field on port 1.
        right_key: usize,
    },
}

impl LogicSpec {
    /// Instantiates fresh stateful logic for this spec.
    pub fn build(&self) -> Box<dyn PaneLogic> {
        match self {
            LogicSpec::Identity => Box::new(IdentityLogic),
            LogicSpec::Filter(p) => Box::new(FilterLogic::new(*p)),
            LogicSpec::Project(fields) => Box::new(ProjectLogic::new(fields.clone())),
            LogicSpec::Avg { field } => Box::new(AvgLogic::new(*field)),
            LogicSpec::PartialAvg { field } => Box::new(PartialAvgLogic::new(*field)),
            LogicSpec::MergeAvg => Box::new(MergeAvgLogic::default()),
            LogicSpec::Sum { field } => Box::new(SumLogic::new(*field)),
            LogicSpec::Count { predicate } => Box::new(CountLogic::new(*predicate)),
            LogicSpec::Max { field } => Box::new(MaxLogic::new(*field)),
            LogicSpec::Min { field } => Box::new(MinLogic::new(*field)),
            LogicSpec::TopK {
                k,
                id_field,
                value_field,
            } => Box::new(TopKLogic::new(*k, *id_field, *value_field)),
            LogicSpec::GroupMax {
                key_field,
                value_field,
            } => Box::new(GroupMaxLogic::new(*key_field, *value_field)),
            LogicSpec::GroupAvg {
                key_field,
                value_field,
            } => Box::new(GroupAvgLogic::new(*key_field, *value_field)),
            LogicSpec::GroupAggregate {
                key_field,
                value_field,
            } => Box::new(GroupAggregateLogic::new(*key_field, *value_field)),
            LogicSpec::Cov { field } => Box::new(CovLogic::new(*field)),
            LogicSpec::Join {
                left_key,
                right_key,
            } => Box::new(JoinLogic::new(*left_key, *right_key)),
        }
    }

    /// Number of input ports the logic consumes.
    pub fn ports(&self) -> usize {
        match self {
            LogicSpec::Cov { .. } | LogicSpec::Join { .. } => 2,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build_and_report_ports() {
        let specs = [
            (LogicSpec::Identity, 1),
            (LogicSpec::Filter(Predicate::new(0, CmpOp::Ge, 50.0)), 1),
            (LogicSpec::Avg { field: 0 }, 1),
            (LogicSpec::Cov { field: 0 }, 2),
            (
                LogicSpec::Join {
                    left_key: 0,
                    right_key: 0,
                },
                2,
            ),
            (
                LogicSpec::TopK {
                    k: 5,
                    id_field: 0,
                    value_field: 1,
                },
                1,
            ),
        ];
        for (spec, ports) in specs {
            assert_eq!(spec.ports(), ports, "{spec:?}");
            let logic = spec.build();
            assert!(!logic.name().is_empty());
        }
    }
}
