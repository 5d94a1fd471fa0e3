//! The BALANCE-SIC fair shedder — Algorithm 1 of the paper.
//!
//! Per invocation (one shedding interval), `selectTuplesToKeep` iteratively:
//!
//! 1. picks the query `q'` with the minimum current SIC value among queries
//!    that still have admissible batches (line 12; ties broken randomly);
//! 2. finds the runner-up SIC value `q''` — the smallest *strictly larger*
//!    SIC among all queries (line 14);
//! 3. admits batches from `q'` — highest SIC first, line 16's `max(xSIC)` —
//!    until `q'` reaches `q''`'s value, always admitting at least one batch
//!    so the loop makes progress (this matches the worked example of Fig. 3,
//!    where ties still admit one tuple batch);
//! 4. updates `q'`'s SIC (line 20, `updateSIC`) and repeats until the
//!    capacity `c` (in tuples) is spent or no batch fits.
//!
//! The admitted set maximises node utilisation with the most valuable tuples;
//! everything else is shed by the caller.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{QueryBufferState, ShedDecision, Shedder};

/// Order in which batches of the selected query are admitted. The paper
/// mandates highest-SIC-first (line 16); the other orders are ablations
/// showing why that choice matters (see `bench ablation_batch_order`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchOrder {
    /// Keep the most valuable batches first (the paper's `max(xSIC)`).
    #[default]
    HighestSicFirst,
    /// Keep the least valuable batches first (anti-optimal ablation).
    LowestSicFirst,
    /// Keep batches in arrival order (order-oblivious ablation).
    Fifo,
}

/// Algorithm 1: BALANCE-SIC stream-processing fairness.
#[derive(Debug)]
pub struct BalanceSicShedder {
    rng: SmallRng,
    order: BatchOrder,
}

/// Relative tolerance when comparing SIC levels; SIC values are tiny
/// fractions, so comparisons are made with a relative epsilon.
const REL_EPS: f64 = 1e-9;

impl BalanceSicShedder {
    /// Creates the shedder with a deterministic tie-breaking seed.
    pub fn new(seed: u64) -> Self {
        BalanceSicShedder {
            rng: SmallRng::seed_from_u64(seed),
            order: BatchOrder::HighestSicFirst,
        }
    }

    /// Creates the shedder with an explicit batch-admission order (ablation).
    pub fn with_order(seed: u64, order: BatchOrder) -> Self {
        BalanceSicShedder {
            rng: SmallRng::seed_from_u64(seed),
            order,
        }
    }
}

/// Per-query working state during one `selectTuplesToKeep` run.
struct WorkState {
    /// Current (projected) SIC value; starts at `base_sic` and grows as
    /// batches are admitted — the in-loop `updateSIC` of line 20.
    cur: f64,
    /// Remaining candidate batches, pre-sorted by the admission order.
    /// Entries are `(buffer_index, sic, tuples)`.
    remaining: Vec<(usize, f64, usize)>,
    /// Cursor into `remaining`.
    next: usize,
}

impl WorkState {
    /// Advances the cursor to the first batch fitting into `capacity`.
    ///
    /// Node capacity only shrinks during a run, so batches skipped for
    /// being too large can be discarded permanently — this keeps the whole
    /// run linear in the number of candidate batches.
    fn advance_to_fitting(&mut self, capacity: usize) -> Option<(usize, f64, usize)> {
        while let Some(&entry) = self.remaining.get(self.next) {
            if entry.2 <= capacity {
                return Some(entry);
            }
            self.next += 1;
        }
        None
    }
}

/// Min-heap entry: queries ordered by current SIC, with a random jitter so
/// ties break randomly (line 12: "selects one randomly").
struct HeapEntry {
    cur: f64,
    jitter: u32,
    q: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so that BinaryHeap (a max-heap) pops the minimum SIC.
        other
            .cur
            .total_cmp(&self.cur)
            .then(other.jitter.cmp(&self.jitter))
            .then(other.q.cmp(&self.q))
    }
}

impl Shedder for BalanceSicShedder {
    fn select_to_keep(
        &mut self,
        capacity_tuples: usize,
        queries: &[QueryBufferState],
    ) -> ShedDecision {
        let mut states: Vec<WorkState> = queries
            .iter()
            .map(|q| {
                let mut remaining: Vec<(usize, f64, usize)> = q
                    .batches
                    .iter()
                    .map(|b| (b.buffer_index, b.sic.value(), b.tuples))
                    .collect();
                match self.order {
                    BatchOrder::HighestSicFirst => {
                        // Shuffle first so that equal-SIC batches are kept
                        // in random order: the stable sort preserves the
                        // shuffle among ties. Without this, a multi-input
                        // query whose sources emit equal-SIC batches would
                        // deterministically keep only one input stream and
                        // never produce a joined/covariance result.
                        remaining.shuffle(&mut self.rng);
                        remaining.sort_by(|a, b| b.1.total_cmp(&a.1));
                    }
                    BatchOrder::LowestSicFirst => {
                        remaining.shuffle(&mut self.rng);
                        remaining.sort_by(|a, b| a.1.total_cmp(&b.1));
                    }
                    BatchOrder::Fifo => {
                        // Arrival order == buffer order.
                        remaining.sort_by_key(|e| e.0);
                    }
                }
                WorkState {
                    cur: q.base_sic.value(),
                    remaining,
                    next: 0,
                }
            })
            .collect();

        let mut capacity = capacity_tuples;
        let mut keep: Vec<usize> = Vec::new();

        // Min-heap over queries' current SIC values: line 12's argmin in
        // O(log Q) per admitted batch instead of an O(Q) scan. Entries are
        // lazily refreshed: a popped entry whose `cur` is stale is dropped
        // (its owner was re-pushed with the updated value).
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<HeapEntry> = (0..states.len())
            .filter(|&q| !states[q].remaining.is_empty())
            .map(|q| HeapEntry {
                cur: states[q].cur,
                jitter: self.rng.gen(),
                q,
            })
            .collect();

        while capacity > 0 {
            // Line 12: q' = argmin qSIC; random jitter breaks ties.
            let Some(entry) = heap.pop() else {
                break;
            };
            let qp = entry.q;
            if entry.cur != states[qp].cur {
                continue; // stale: re-pushed with a newer value below
            }
            if states[qp].advance_to_fitting(capacity).is_none() {
                continue; // nothing fits any more; drop the query
            }
            // Line 14: q'' = the next-lowest SIC level — the heap top.
            // (Queries without admissible batches no longer participate;
            // they only staged intermediate climbs and do not change the
            // final allocation.)
            let target = heap
                .peek()
                .map(|e| states[e.q].cur.max(e.cur))
                .unwrap_or(states[qp].cur);

            // Lines 15-17: admit batches from q' until it reaches the
            // target, at least one batch per iteration for progress.
            let mut admitted_any = false;
            while let Some((buf_idx, sic, tuples)) = states[qp].advance_to_fitting(capacity) {
                let reaches_past =
                    states[qp].cur + sic > target * (1.0 + REL_EPS) + f64::MIN_POSITIVE;
                if admitted_any && reaches_past {
                    break;
                }
                states[qp].next += 1;
                states[qp].cur += sic;
                capacity -= tuples;
                keep.push(buf_idx);
                admitted_any = true;
                if reaches_past || states[qp].cur >= target - f64::MIN_POSITIVE {
                    break;
                }
            }
            if states[qp].next < states[qp].remaining.len() {
                heap.push(HeapEntry {
                    cur: states[qp].cur,
                    jitter: self.rng.gen(),
                    q: qp,
                });
            }
        }

        ShedDecision::from_keep(keep, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{kept_sic_by_query, uniform_query};
    use super::*;
    use crate::fairness::jain_index;
    use crate::ids::QueryId;
    use crate::shedder::{CandidateBatch, QueryBufferState};
    use crate::sic::Sic;
    use crate::time::Timestamp;

    /// Reproduces the Figure-3 example: one node, capacity 10 tuples, four
    /// queries with source rates 20, 30, 10, (10+20) t/s. Batches are single
    /// tuples so the algorithm can hit the paper's exact outcome.
    #[test]
    fn figure3_single_node_example() {
        // tSIC values from the figure: 1/20, 1/30, 1/10, {1/20, 1/40}.
        let per_tuple = [1.0 / 20.0, 1.0 / 30.0, 1.0 / 10.0];
        let mut queries: Vec<QueryBufferState> = Vec::new();
        let mut idx = 0;
        for (q, &sic) in per_tuple.iter().enumerate() {
            let n = [20usize, 30, 10][q];
            queries.push(uniform_query(q as u32, 0.0, n, 1, sic, idx));
            idx += n;
        }
        // q4: two sources, 10 t/s (sic 1/20) and 20 t/s (sic 1/40);
        // normalised by |S|=2.
        let mut batches = Vec::new();
        for i in 0..10 {
            batches.push(CandidateBatch {
                buffer_index: idx + i,
                sic: Sic(1.0 / 20.0),
                tuples: 1,
                created: Timestamp(0),
            });
        }
        for i in 0..20 {
            batches.push(CandidateBatch {
                buffer_index: idx + 10 + i,
                sic: Sic(1.0 / 40.0),
                tuples: 1,
                created: Timestamp(0),
            });
        }
        queries.push(QueryBufferState {
            query: QueryId(3),
            base_sic: Sic::ZERO,
            batches,
        });

        let mut shedder = BalanceSicShedder::new(42);
        let decision = shedder.select_to_keep(10, &queries);
        assert_eq!(decision.kept_tuples, 10, "node capacity fully used");

        let sics = kept_sic_by_query(&decision, &queries);
        // All queries converge to 0.1; leftover capacity is then spread one
        // batch at a time over random minimum queries (the paper's
        // iteration 5), so some queries end slightly above 0.1. The worked
        // example reaches {0.1, 0.1, 0.1, 0.133}; with `max(xSIC)` admission
        // the exact leftover split depends on the tie-break, but every query
        // reaches at least 0.1 and none exceeds 0.1 by more than one tuple.
        let mut values: Vec<f64> = (0..4).map(|q| sics[&QueryId(q)]).collect();
        values.sort_by(f64::total_cmp);
        assert!(
            (values[0] - 0.1).abs() < 1e-9,
            "every query reaches 0.1: {values:?}"
        );
        assert!(
            (values[1] - 0.1).abs() < 1e-9,
            "at least two queries at exactly 0.1: {values:?}"
        );
        // No query exceeds 0.1 by more than its single largest tuple (0.1).
        assert!(values[3] <= 0.2 + 1e-9, "leftover bounded: {values:?}");
        assert!(jain_index(&values) > 0.9, "jain {}", jain_index(&values));
    }

    #[test]
    fn raises_minimum_query_first() {
        // q0 already has SIC 0.5 (from elsewhere), q1 has 0. Capacity for
        // only part of the buffer: q1 must receive everything first.
        let q0 = uniform_query(0, 0.5, 5, 10, 0.02, 0);
        let q1 = uniform_query(1, 0.0, 5, 10, 0.02, 5);
        let mut shedder = BalanceSicShedder::new(1);
        let d = shedder.select_to_keep(30, &[q0.clone(), q1.clone()]);
        let sics = kept_sic_by_query(&d, &[q0, q1]);
        // 3 batches admitted; all must go to q1 (0.06 still < 0.5).
        assert!((sics[&QueryId(1)] - 0.06).abs() < 1e-12);
        assert!((sics[&QueryId(0)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_exceeds_capacity() {
        let q0 = uniform_query(0, 0.0, 100, 7, 0.001, 0);
        let q1 = uniform_query(1, 0.0, 100, 13, 0.002, 100);
        let mut shedder = BalanceSicShedder::new(7);
        for cap in [0usize, 1, 10, 50, 123, 1000, 5000] {
            let d = shedder.select_to_keep(cap, &[q0.clone(), q1.clone()]);
            assert!(d.kept_tuples <= cap, "cap {cap}: kept {}", d.kept_tuples);
        }
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q0 = uniform_query(0, 0.0, 4, 10, 0.1, 0);
        let mut shedder = BalanceSicShedder::new(7);
        let d = shedder.select_to_keep(0, &[q0]);
        assert!(d.keep.is_empty());
        assert_eq!(d.shed_batches, 4);
        assert_eq!(d.shed_tuples, 40);
    }

    #[test]
    fn abundant_capacity_keeps_everything() {
        let q0 = uniform_query(0, 0.0, 4, 10, 0.1, 0);
        let q1 = uniform_query(1, 0.3, 2, 10, 0.2, 4);
        let mut shedder = BalanceSicShedder::new(7);
        let d = shedder.select_to_keep(1000, &[q0, q1]);
        assert_eq!(d.kept_tuples, 60);
        assert_eq!(d.shed_batches, 0);
    }

    #[test]
    fn highest_sic_batches_preferred_within_query() {
        // One query, batches with different SIC; capacity for 2 of 4.
        let q = QueryBufferState {
            query: QueryId(0),
            base_sic: Sic::ZERO,
            batches: vec![
                CandidateBatch {
                    buffer_index: 0,
                    sic: Sic(0.1),
                    tuples: 10,
                    created: Timestamp(0),
                },
                CandidateBatch {
                    buffer_index: 1,
                    sic: Sic(0.4),
                    tuples: 10,
                    created: Timestamp(1),
                },
                CandidateBatch {
                    buffer_index: 2,
                    sic: Sic(0.2),
                    tuples: 10,
                    created: Timestamp(2),
                },
                CandidateBatch {
                    buffer_index: 3,
                    sic: Sic(0.3),
                    tuples: 10,
                    created: Timestamp(3),
                },
            ],
        };
        let mut shedder = BalanceSicShedder::new(7);
        let d = shedder.select_to_keep(20, &[q]);
        let mut kept = d.keep.clone();
        kept.sort_unstable();
        assert_eq!(kept, vec![1, 3], "keeps the two highest-SIC batches");
    }

    #[test]
    fn lowest_first_ablation_inverts_preference() {
        let q = uniform_query(0, 0.0, 1, 10, 0.5, 0);
        let mut batches = q.batches.clone();
        batches.push(CandidateBatch {
            buffer_index: 1,
            sic: Sic(0.05),
            tuples: 10,
            created: Timestamp(1),
        });
        let q = QueryBufferState {
            batches,
            ..q.clone()
        };
        let mut shedder = BalanceSicShedder::with_order(7, BatchOrder::LowestSicFirst);
        let d = shedder.select_to_keep(10, &[q]);
        assert_eq!(d.keep, vec![1], "lowest-SIC batch admitted first");
    }

    #[test]
    fn converges_with_heterogeneous_rates() {
        // 8 queries with different per-batch SIC values; generous-but-
        // insufficient capacity. After shedding, Jain's index of the kept
        // SIC should be near 1.
        let mut queries = Vec::new();
        let mut idx = 0;
        for q in 0..8u32 {
            let sic = 0.002 * (1.0 + q as f64);
            queries.push(uniform_query(q, 0.0, 60, 5, sic, idx));
            idx += 60;
        }
        let mut shedder = BalanceSicShedder::new(99);
        let d = shedder.select_to_keep(600, &queries);
        let sics = kept_sic_by_query(&d, &queries);
        let values: Vec<f64> = sics.values().copied().collect();
        assert!(
            jain_index(&values) > 0.97,
            "jain {} values {values:?}",
            jain_index(&values)
        );
        assert_eq!(d.kept_tuples, 600);
    }

    #[test]
    fn deterministic_given_seed() {
        let q0 = uniform_query(0, 0.0, 50, 3, 0.01, 0);
        let q1 = uniform_query(1, 0.0, 50, 3, 0.01, 50);
        let d1 = BalanceSicShedder::new(5).select_to_keep(60, &[q0.clone(), q1.clone()]);
        let d2 = BalanceSicShedder::new(5).select_to_keep(60, &[q0, q1]);
        assert_eq!(d1.keep, d2.keep);
    }

    #[test]
    fn empty_input() {
        let mut shedder = BalanceSicShedder::new(0);
        let d = shedder.select_to_keep(100, &[]);
        assert!(d.keep.is_empty());
        assert_eq!(d.shed_tuples, 0);
    }

    #[test]
    fn skips_oversized_batches_but_fills_with_smaller() {
        // q0's batches are too big for the capacity; q1's fit.
        let q0 = uniform_query(0, 0.0, 3, 100, 0.3, 0);
        let q1 = uniform_query(1, 0.0, 5, 10, 0.01, 3);
        let mut shedder = BalanceSicShedder::new(3);
        let d = shedder.select_to_keep(50, &[q0, q1]);
        assert_eq!(d.kept_tuples, 50, "five 10-tuple batches from q1");
        assert!(d.keep.iter().all(|&i| i >= 3));
    }
}
