//! Additional baseline shedders beyond the paper's random baseline, used by
//! the ablation experiments:
//!
//! * [`FifoShedder`] — drop-from-tail, what a bounded queue does with no
//!   shedding policy at all;
//! * [`PriorityShedder`] — admission-control-like: a fixed query priority
//!   order is served to saturation. This is the node-local analogue of the
//!   throughput-maximising FIT LP of §7.5, whose optimal vertex solutions
//!   serve a few queries fully and starve the rest.

use super::{QueryBufferState, ShedDecision, Shedder};

/// Drop-from-tail: keeps the oldest batches (by creation time, then buffer
/// order) until capacity is filled. Models a bounded input queue that simply
/// rejects new arrivals under overload.
#[derive(Debug, Default)]
pub struct FifoShedder;

impl FifoShedder {
    /// Creates the shedder.
    pub fn new() -> Self {
        FifoShedder
    }
}

impl Shedder for FifoShedder {
    fn select_to_keep(
        &mut self,
        capacity_tuples: usize,
        queries: &[QueryBufferState],
    ) -> ShedDecision {
        let mut all: Vec<(u64, usize, usize)> = queries
            .iter()
            .flat_map(|q| {
                q.batches
                    .iter()
                    .map(|b| (b.created.as_micros(), b.buffer_index, b.tuples))
            })
            .collect();
        all.sort_unstable();
        let mut capacity = capacity_tuples;
        let mut keep = Vec::new();
        for (_, idx, tuples) in all {
            if tuples <= capacity {
                capacity -= tuples;
                keep.push(idx);
            } else {
                // Strict FIFO: once the head doesn't fit, stop.
                break;
            }
        }
        ShedDecision::from_keep(keep, queries)
    }
}

/// Admission-control baseline: queries are served in ascending `QueryId`
/// order, each to saturation, until capacity runs out. Mirrors what a
/// throughput-maximising or admission-based scheme does under overload:
/// a few queries get perfect results, the rest get nothing.
#[derive(Debug, Default)]
pub struct PriorityShedder;

impl PriorityShedder {
    /// Creates the shedder.
    pub fn new() -> Self {
        PriorityShedder
    }
}

impl Shedder for PriorityShedder {
    fn select_to_keep(
        &mut self,
        capacity_tuples: usize,
        queries: &[QueryBufferState],
    ) -> ShedDecision {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| queries[i].query);
        let mut capacity = capacity_tuples;
        let mut keep = Vec::new();
        'outer: for i in order {
            for b in &queries[i].batches {
                if b.tuples <= capacity {
                    capacity -= b.tuples;
                    keep.push(b.buffer_index);
                }
                if capacity == 0 {
                    break 'outer;
                }
            }
        }
        ShedDecision::from_keep(keep, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::uniform_query;
    use super::*;
    use crate::ids::QueryId;
    use crate::shedder::CandidateBatch;
    use crate::sic::Sic;
    use crate::time::Timestamp;

    #[test]
    fn keeps_oldest_first() {
        let q = QueryBufferState {
            query: QueryId(0),
            base_sic: Sic::ZERO,
            batches: vec![
                CandidateBatch {
                    buffer_index: 0,
                    sic: Sic(0.1),
                    tuples: 10,
                    created: Timestamp(300),
                },
                CandidateBatch {
                    buffer_index: 1,
                    sic: Sic(0.1),
                    tuples: 10,
                    created: Timestamp(100),
                },
                CandidateBatch {
                    buffer_index: 2,
                    sic: Sic(0.1),
                    tuples: 10,
                    created: Timestamp(200),
                },
            ],
        };
        let mut s = FifoShedder::new();
        let d = s.select_to_keep(20, &[q]);
        let mut kept = d.keep.clone();
        kept.sort_unstable();
        assert_eq!(kept, vec![1, 2], "two oldest batches kept");
    }

    #[test]
    fn stops_at_first_non_fitting_batch() {
        let q0 = uniform_query(0, 0.0, 3, 10, 0.1, 0);
        let mut s = FifoShedder::new();
        let d = s.select_to_keep(25, &[q0]);
        assert_eq!(d.kept_tuples, 20, "third batch does not fit");
    }

    #[test]
    fn respects_capacity_zero() {
        let q0 = uniform_query(0, 0.0, 3, 10, 0.1, 0);
        let mut s = FifoShedder::new();
        let d = s.select_to_keep(0, &[q0]);
        assert!(d.keep.is_empty());
    }
    #[test]
    fn priority_serves_lowest_query_ids_first() {
        let q0 = uniform_query(0, 0.0, 3, 10, 0.1, 0);
        let q1 = uniform_query(1, 0.0, 3, 10, 0.1, 3);
        let mut s = PriorityShedder::new();
        // Input order is irrelevant: service follows QueryId order.
        let d = s.select_to_keep(40, &[q1.clone(), q0.clone()]);
        // q0 (buffer indices 0..3) fully served, q1 gets the leftover 10.
        let kept0 = d.keep.iter().filter(|&&i| i < 3).count();
        let kept1 = d.keep.iter().filter(|&&i| i >= 3).count();
        assert_eq!(kept0, 3, "q0 fully served");
        assert_eq!(kept1, 1);
        assert_eq!(d.kept_tuples, 40);
    }

    #[test]
    fn priority_starves_tail_queries() {
        let queries: Vec<_> = (0..5)
            .map(|q| uniform_query(q, 0.0, 2, 10, 0.1, (q as usize) * 2))
            .collect();
        let mut s = PriorityShedder::new();
        let d = s.select_to_keep(40, &queries);
        // Capacity for exactly two queries: q0 and q1 served, q2-q4 starved.
        assert!(d.keep.iter().all(|&i| i < 4), "{:?}", d.keep);
        assert_eq!(d.kept_tuples, 40);
    }

    #[test]
    fn priority_respects_capacity() {
        let q0 = uniform_query(0, 0.0, 10, 7, 0.1, 0);
        let mut s = PriorityShedder::new();
        for cap in [0usize, 5, 7, 20, 100] {
            let d = s.select_to_keep(cap, std::slice::from_ref(&q0));
            assert!(d.kept_tuples <= cap);
        }
    }
}
