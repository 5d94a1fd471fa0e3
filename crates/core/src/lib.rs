//! # themis-core
//!
//! The core model of **THEMIS: Fairness in Federated Stream Processing under
//! Overload** (Kalyvianaki, Fiscato, Salonidis & Pietzuch, SIGMOD 2016):
//!
//! * the **SIC** (source information content) metric — a query-independent
//!   measure of processing quality based on how much source data contributed
//!   to a result ([`sic`], [`stw`]);
//! * **BALANCE-SIC fairness** — load shedding that equalises per-query SIC
//!   values, Algorithm 1 of the paper ([`shedder`]);
//! * the supporting machinery of the THEMIS prototype: online capacity
//!   estimation ([`capacity`]), the per-query coordinator disseminating
//!   result SIC values ([`coordinator`]), and the fairness / result-quality
//!   metrics used throughout the evaluation ([`fairness`], [`metrics`]);
//! * the **columnar hot-path representation** ([`batch`]): tuple batches
//!   stored as contiguous timestamp/SIC columns plus one *native* column
//!   per field of a [`schema::Schema`] (`Vec<f64>` / `Vec<i64>` / bitset /
//!   dictionary codes) with a drop bitmap, so shedding marks bits, window
//!   panes copy columns instead of re-allocating per tuple, and aggregate
//!   kernels read plain slices.
//!
//! Everything in this crate is pure and deterministic: no I/O, no threads,
//! no wall-clock time. The [`themis-sim`](../themis_sim/index.html) and
//! [`themis-engine`](../themis_engine/index.html) crates host these pieces
//! inside a discrete-event simulator and a multi-threaded prototype engine
//! respectively.
//!
//! ## Quick tour
//!
//! ```
//! use themis_core::prelude::*;
//!
//! // Eq. 1: a source emitting 4 tuples per STW in a 2-source query.
//! let sic = Sic::source_tuple(4, 2);
//! assert_eq!(sic, Sic(0.125));
//!
//! // Algorithm 1 on a node with capacity for 10 tuples.
//! let mut shedder = BalanceSicShedder::new(42);
//! let decision = shedder.select_to_keep(10, &[]);
//! assert!(decision.keep.is_empty());
//!
//! // Jain's fairness index over per-query SIC values.
//! assert!((jain_index(&[0.3, 0.3, 0.3]) - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod bits;
pub mod capacity;
pub mod coordinator;
pub mod fairness;
pub mod frame;
pub mod ids;
pub mod metrics;
pub mod schema;
pub mod shedder;
pub mod sic;
pub mod stw;
pub mod time;
pub mod tuple;
pub mod value;
pub mod wal;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use crate::batch::{
        batch_allocs, BatchPool, DropBitmap, PoolStats, RowValues, TupleBatch, TupleRef,
    };
    pub use crate::bits::BitVec;
    pub use crate::capacity::{CostModel, OverloadDetector};
    pub use crate::coordinator::{
        Coordinator, CoordinatorReport, QueryCoordinator, SicTable, SicUpdate,
    };
    pub use crate::fairness::{jain_index, jain_index_sic, FairnessSummary};
    pub use crate::ids::{FragmentId, IdGen, NodeId, OperatorId, QueryId, SourceId};
    pub use crate::schema::{BoolColumn, Column, FieldType, Schema, TagColumn, TagInterner};
    pub use crate::shedder::{
        build_buffer_states, lookup_policy, register_shedder, registered_policies,
        BalanceSicShedder, BatchOrder, CandidateBatch, DuplicatePolicyError, FifoShedder, Policy,
        PriorityShedder, QueryBufferState, RandomShedder, ShedDecision, Shedder, ShedderFactory,
        ShedderRegistry, UnknownPolicyError,
    };
    pub use crate::sic::Sic;
    pub use crate::stw::{ResultSicTracker, SourceSicAssigner, StwConfig};
    pub use crate::time::{TimeDelta, Timestamp};
    pub use crate::tuple::{Batch, BatchHeader, Tuple};
    pub use crate::value::{Row, Value};
    pub use crate::wal::{
        NodeSnapshot, PaneKey, PaneRecord, ShardLog, ShardRestore, SicDelta, WalError, WalRecord,
    };
}
