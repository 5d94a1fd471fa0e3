//! Tuple shedders (§5 Algorithm 1, §6 "Tuple shedder").
//!
//! A shedder is invoked once per shedding interval with a snapshot of the
//! node's input buffer grouped by query, plus each query's *projected* result
//! SIC (the coordinator-reported value minus the SIC mass of all locally
//! buffered batches — the paper's "assume all batches are discarded"
//! heuristic that compensates for dissemination delays). It returns the set
//! of batches to keep; everything else is shed.
//!
//! Implementations:
//! * [`BalanceSicShedder`] — the paper's Algorithm 1 (BALANCE-SIC fairness);
//! * [`RandomShedder`] — the random-shedding baseline of §7.2;
//! * [`FifoShedder`] — drop-from-tail baseline (keep oldest batches);
//! * batch-order ablations of line 16's `max(xSIC)` rule via
//!   [`BatchOrder`].
//!
//! Every policy lives in the open [`ShedderRegistry`] — a name → factory
//! table through which the simulator, the prototype engine, the benchmark
//! and the `experiments` CLI all build their shedders. The six paper
//! policies are registered by default; external crates add their own
//! with [`register_shedder`] and every runtime picks them up by name
//! ([`lookup_policy`]). A policy's registry key is its only name.

mod balance_sic;
mod policy;
mod random;
mod registry;
mod variants;

pub use balance_sic::{BalanceSicShedder, BatchOrder};
pub use policy::{Policy, ShedderFactory};
pub use random::RandomShedder;
pub use registry::{
    lookup_policy, register_shedder, registered_policies, DuplicatePolicyError, ShedderRegistry,
    UnknownPolicyError,
};
pub use variants::{FifoShedder, PriorityShedder};

use crate::batch::DropBitmap;
use crate::bits::BitVec;
use crate::ids::QueryId;
use crate::sic::Sic;
use crate::time::Timestamp;
use crate::tuple::Batch;

/// One shed-candidate batch inside the input buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateBatch {
    /// Index of the batch in the node's input buffer.
    pub buffer_index: usize,
    /// Aggregate SIC value of the batch (header field).
    pub sic: Sic,
    /// Number of tuples in the batch; capacity is counted in tuples.
    pub tuples: usize,
    /// Batch creation time (header field), for FIFO baselines.
    pub created: Timestamp,
}

/// Snapshot of one query's buffered batches at shedding time.
#[derive(Debug, Clone)]
pub struct QueryBufferState {
    /// The query.
    pub query: QueryId,
    /// Projected result SIC assuming every buffered batch is dropped (§6).
    pub base_sic: Sic,
    /// Buffered batches of this query.
    pub batches: Vec<CandidateBatch>,
}

impl QueryBufferState {
    /// Total buffered tuples of this query.
    pub fn buffered_tuples(&self) -> usize {
        self.batches.iter().map(|b| b.tuples).sum()
    }

    /// Total buffered SIC mass of this query.
    pub fn buffered_sic(&self) -> Sic {
        self.batches.iter().map(|b| b.sic).sum()
    }
}

/// Outcome of one shedder invocation.
#[derive(Debug, Clone, Default)]
pub struct ShedDecision {
    /// Input-buffer indices of the batches to keep, in admission order.
    pub keep: Vec<usize>,
    /// Tuples admitted.
    pub kept_tuples: usize,
    /// Tuples shed.
    pub shed_tuples: usize,
    /// Batches shed.
    pub shed_batches: usize,
}

impl ShedDecision {
    /// Builds the decision record from the keep set and the full snapshot,
    /// testing each candidate against a bit vector of the kept indices.
    fn from_keep(keep: Vec<usize>, queries: &[QueryBufferState]) -> Self {
        let kept = kept_bits(&keep, keep.iter().max().map_or(0, |&i| i + 1));
        let mut kept_tuples = 0;
        let mut shed_tuples = 0;
        let mut shed_batches = 0;
        for q in queries {
            for b in &q.batches {
                if kept.get(b.buffer_index) {
                    kept_tuples += b.tuples;
                } else {
                    shed_tuples += b.tuples;
                    shed_batches += 1;
                }
            }
        }
        ShedDecision {
            keep,
            kept_tuples,
            shed_tuples,
            shed_batches,
        }
    }

    /// Renders the decision as a [`DropBitmap`] over the `n_batches`
    /// input-buffer slots: shed batches have their bit set. Node hot loops
    /// test bits instead of scanning a sorted keep list, and whole-batch
    /// sheds become bitmap marks rather than `Vec<Tuple>` splices. The
    /// bitmap is pre-sized to `n_batches` so marking bits never grows the
    /// word vector one resize at a time.
    pub fn shed_bitmap(&self, n_batches: usize) -> DropBitmap {
        let kept = kept_bits(&self.keep, n_batches);
        let mut bm = DropBitmap::with_rows(n_batches);
        for i in (0..n_batches).filter(|&i| !kept.get(i)) {
            bm.drop_row(i);
        }
        bm
    }
}

/// The kept buffer indices below `bits` as a bit vector sized for them.
fn kept_bits(keep: &[usize], bits: usize) -> BitVec {
    let mut kept = BitVec::with_bits(bits);
    for &i in keep.iter().filter(|&&i| i < bits) {
        kept.set(i);
    }
    kept
}

/// A load-shedding policy: selects which buffered batches to keep, given the
/// node's capacity in tuples for the coming interval.
pub trait Shedder: Send {
    /// Implements `selectTuplesToKeep(c, Q)` of Algorithm 1 (or a baseline).
    fn select_to_keep(
        &mut self,
        capacity_tuples: usize,
        queries: &[QueryBufferState],
    ) -> ShedDecision;
}

/// Builds the per-query buffer snapshot for a shedder invocation from the
/// input buffer's batches, in buffer order (`buffer_index` is the position
/// in that order).
///
/// `reported_sic` is the latest coordinator-disseminated result SIC per query
/// (`updateSIC`, Algorithm 1 line 20). The projection heuristic of §6
/// subtracts the SIC mass of all buffered batches, clamped at zero.
///
/// The snapshot lists queries in id order and each query's batches in
/// buffer order. Each batch finds its query's entry by binary search in
/// that order, so grouping hashes nothing and holds no copy of the
/// buffer.
pub fn build_buffer_states<'a>(
    buffer: impl IntoIterator<Item = &'a Batch>,
    reported_sic: impl Fn(QueryId) -> Sic,
) -> Vec<QueryBufferState> {
    let mut states: Vec<QueryBufferState> = Vec::new();
    for (idx, b) in buffer.into_iter().enumerate() {
        let query = b.query();
        let at = match states.binary_search_by_key(&query, |s| s.query) {
            Ok(at) => at,
            Err(at) => {
                let state = QueryBufferState {
                    query,
                    base_sic: Sic::ZERO,
                    batches: Vec::new(),
                };
                states.insert(at, state);
                at
            }
        };
        states[at].batches.push(CandidateBatch {
            buffer_index: idx,
            sic: b.sic(),
            tuples: b.len(),
            created: b.created(),
        });
    }
    for state in &mut states {
        let buffered: Sic = state.batches.iter().map(|b| b.sic).sum();
        let reported = reported_sic(state.query).value();
        state.base_sic = Sic((reported - buffered.value()).max(0.0));
    }
    states
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Builds a query state with uniform batches: `n_batches` batches of
    /// `tuples_per_batch` tuples, each worth `sic_per_batch`.
    pub fn uniform_query(
        query: u32,
        base_sic: f64,
        n_batches: usize,
        tuples_per_batch: usize,
        sic_per_batch: f64,
        first_index: usize,
    ) -> QueryBufferState {
        QueryBufferState {
            query: QueryId(query),
            base_sic: Sic(base_sic),
            batches: (0..n_batches)
                .map(|i| CandidateBatch {
                    buffer_index: first_index + i,
                    sic: Sic(sic_per_batch),
                    tuples: tuples_per_batch,
                    created: Timestamp(i as u64),
                })
                .collect(),
        }
    }

    /// Sum of kept SIC per query id, from a decision and snapshot.
    pub fn kept_sic_by_query(
        decision: &ShedDecision,
        queries: &[QueryBufferState],
    ) -> std::collections::HashMap<QueryId, f64> {
        use std::collections::{HashMap, HashSet};
        let kept: HashSet<usize> = decision.keep.iter().copied().collect();
        let mut out: HashMap<QueryId, f64> = HashMap::new();
        for q in queries {
            let s: f64 = q
                .batches
                .iter()
                .filter(|b| kept.contains(&b.buffer_index))
                .map(|b| b.sic.value())
                .sum();
            out.insert(q.query, q.base_sic.value() + s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    #[test]
    fn build_states_groups_and_projects() {
        let mk = |q: u32, sic: f64| {
            Batch::new(
                QueryId(q),
                Timestamp(0),
                vec![Tuple::measurement(Timestamp(0), Sic(sic), 1.0)],
            )
        };
        let buffer = vec![mk(0, 0.1), mk(1, 0.2), mk(0, 0.3)];
        let states =
            build_buffer_states(
                &buffer,
                |q| {
                    if q == QueryId(0) {
                        Sic(0.5)
                    } else {
                        Sic(0.1)
                    }
                },
            );
        assert_eq!(states.len(), 2);
        let q0 = &states[0];
        assert_eq!(q0.query, QueryId(0));
        assert_eq!(q0.batches.len(), 2);
        // base = 0.5 - (0.1 + 0.3) = 0.1
        assert!((q0.base_sic.value() - 0.1).abs() < 1e-12);
        // q1: 0.1 - 0.2 clamps to 0.
        assert_eq!(states[1].base_sic, Sic::ZERO);
    }

    #[test]
    fn decision_statistics() {
        let q = testutil::uniform_query(0, 0.0, 3, 10, 0.1, 0);
        let d = ShedDecision::from_keep(vec![0, 2], &[q]);
        assert_eq!(d.kept_tuples, 20);
        assert_eq!(d.shed_tuples, 10);
        assert_eq!(d.shed_batches, 1);
    }

    #[test]
    fn shed_bitmap_inverts_keep_set() {
        let d = ShedDecision {
            keep: vec![4, 0, 2],
            ..Default::default()
        };
        let bm = d.shed_bitmap(5);
        assert_eq!(bm.dropped(), 2);
        for i in [0usize, 2, 4] {
            assert!(!bm.is_dropped(i), "kept batch {i} marked shed");
        }
        for i in [1usize, 3] {
            assert!(bm.is_dropped(i), "shed batch {i} not marked");
        }
    }

    #[test]
    fn buffer_state_totals() {
        let q = testutil::uniform_query(0, 0.05, 4, 5, 0.01, 0);
        assert_eq!(q.buffered_tuples(), 20);
        assert!((q.buffered_sic().value() - 0.04).abs() < 1e-12);
    }
}
