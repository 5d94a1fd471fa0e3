//! Random shedding — the baseline THEMIS is compared against in §7.2:
//! "we compare against random shedding as a practical baseline". Batches are
//! admitted in a uniformly random order until the capacity is filled,
//! regardless of query or SIC value.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{QueryBufferState, ShedDecision, Shedder};

/// The random-shedding baseline (seeded for reproducibility).
#[derive(Debug)]
pub struct RandomShedder {
    rng: SmallRng,
}

impl RandomShedder {
    /// Creates the shedder with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomShedder {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Shedder for RandomShedder {
    fn select_to_keep(
        &mut self,
        capacity_tuples: usize,
        queries: &[QueryBufferState],
    ) -> ShedDecision {
        let mut all: Vec<(usize, usize)> = queries
            .iter()
            .flat_map(|q| q.batches.iter().map(|b| (b.buffer_index, b.tuples)))
            .collect();
        all.shuffle(&mut self.rng);
        let mut capacity = capacity_tuples;
        let mut keep = Vec::new();
        for (idx, tuples) in all {
            if tuples <= capacity {
                capacity -= tuples;
                keep.push(idx);
            }
            if capacity == 0 {
                break;
            }
        }
        ShedDecision::from_keep(keep, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::uniform_query;
    use super::*;

    #[test]
    fn respects_capacity() {
        let q0 = uniform_query(0, 0.0, 100, 7, 0.01, 0);
        let mut s = RandomShedder::new(1);
        for cap in [0usize, 13, 70, 699, 700, 10_000] {
            let d = s.select_to_keep(cap, std::slice::from_ref(&q0));
            assert!(d.kept_tuples <= cap);
        }
    }

    #[test]
    fn keeps_all_when_capacity_abounds() {
        let q0 = uniform_query(0, 0.0, 10, 5, 0.01, 0);
        let mut s = RandomShedder::new(2);
        let d = s.select_to_keep(1000, &[q0]);
        assert_eq!(d.kept_tuples, 50);
        assert_eq!(d.shed_batches, 0);
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let q0 = uniform_query(0, 0.0, 50, 2, 0.01, 0);
        let d1 = RandomShedder::new(9).select_to_keep(40, std::slice::from_ref(&q0));
        let d2 = RandomShedder::new(9).select_to_keep(40, std::slice::from_ref(&q0));
        assert_eq!(d1.keep, d2.keep);
        let d3 = RandomShedder::new(10).select_to_keep(40, std::slice::from_ref(&q0));
        assert_ne!(d1.keep, d3.keep, "different seed should reshuffle");
    }

    #[test]
    fn is_query_oblivious_on_average() {
        // Two queries with equal buffered mass: over many runs the kept
        // tuples should split roughly evenly.
        let q0 = uniform_query(0, 0.0, 100, 1, 0.01, 0);
        let q1 = uniform_query(1, 0.0, 100, 1, 0.01, 100);
        let mut kept0 = 0usize;
        for seed in 0..50 {
            let mut s = RandomShedder::new(seed);
            let d = s.select_to_keep(100, &[q0.clone(), q1.clone()]);
            kept0 += d.keep.iter().filter(|&&i| i < 100).count();
        }
        let frac = kept0 as f64 / (50.0 * 100.0);
        assert!((0.4..=0.6).contains(&frac), "split {frac}");
    }
}
