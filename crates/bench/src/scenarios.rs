//! Shared scenario constructors for the evaluation experiments.
//!
//! The simulator reproduces the paper's *shapes*, not its absolute tuple
//! volumes: source rates and query counts are scaled down so every figure
//! regenerates in minutes on a laptop, while overload factors (demand over
//! capacity) match the paper's operating points. `Scale` controls the
//! knob: `default` for the experiments binary, `quick` for smoke runs and
//! integration tests.

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_workloads::prelude::*;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Per-source steady rate (the paper's Emulab profile: 150 t/s).
    pub tuples_per_sec: u32,
    /// Batches per second per source (paper: 3).
    pub batches_per_sec: u32,
    /// Measured duration.
    pub duration: TimeDelta,
    /// Warm-up excluded from metrics (must exceed the 10 s STW).
    pub warmup: TimeDelta,
    /// Multiplier on query counts (1.0 = the scaled-down defaults).
    pub query_factor: f64,
}

impl Scale {
    /// Default scale used by the `experiments` binary.
    pub fn default_scale() -> Self {
        Scale {
            tuples_per_sec: 10,
            batches_per_sec: 2,
            duration: TimeDelta::from_secs(40),
            warmup: TimeDelta::from_secs(14),
            query_factor: 1.0,
        }
    }

    /// Reduced scale for smoke runs and integration tests.
    pub fn quick() -> Self {
        Scale {
            tuples_per_sec: 8,
            batches_per_sec: 2,
            duration: TimeDelta::from_secs(16),
            warmup: TimeDelta::from_secs(11),
            query_factor: 0.34,
        }
    }

    /// Scales a query count.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.query_factor).round() as usize).max(1)
    }

    /// The source profile at this scale.
    pub fn profile(&self, dataset: Dataset) -> SourceProfile {
        SourceProfile::steady(self.tuples_per_sec, self.batches_per_sec, dataset)
    }
}

/// The complex-workload template rotation used across §7.2-§7.4: equal
/// parts AVG-all, TOP-5 and COV, with the given fragment count.
pub fn complex_mix(fragments: usize, index: usize) -> Template {
    match index % 3 {
        0 => Template::AvgAll { fragments },
        1 => Template::Top5 { fragments },
        _ => Template::Cov { fragments },
    }
}

/// Average sources per query of the complex mix.
pub fn mix_sources_per_fragment() -> f64 {
    (10.0 + 20.0 + 2.0) / 3.0
}

/// Adds `count` complex-mix queries with `fragments` fragments each.
pub fn add_complex_mix(
    mut b: ScenarioBuilder,
    count: usize,
    fragments: usize,
    profile: SourceProfile,
) -> ScenarioBuilder {
    for i in 0..count {
        b = b.add_queries(complex_mix(fragments, i), 1, profile);
    }
    b
}

/// Adds complex-mix queries with fragment counts cycling over `frag_choices`.
pub fn add_complex_mix_varied(
    mut b: ScenarioBuilder,
    count: usize,
    frag_choices: &[usize],
    profile: SourceProfile,
) -> ScenarioBuilder {
    for i in 0..count {
        let f = frag_choices[i % frag_choices.len()];
        b = b.add_queries(complex_mix(f, i), 1, profile);
    }
    b
}

/// Picks a node capacity that yields the target mean overload factor for
/// the given per-node demand.
pub fn capacity_for_overload(demand_per_node_tps: f64, overload: f64) -> u32 {
    ((demand_per_node_tps / overload.max(0.01)).round() as u32).max(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_math() {
        let s = Scale::default_scale();
        assert_eq!(s.n(90), 90);
        let q = Scale::quick();
        assert_eq!(q.n(90), 31);
        assert!(q.n(1) >= 1);
    }

    #[test]
    fn mix_rotates_templates() {
        assert_eq!(complex_mix(2, 0).name(), "AVG-all");
        assert_eq!(complex_mix(2, 1).name(), "TOP-5");
        assert_eq!(complex_mix(2, 2).name(), "COV");
        assert_eq!(complex_mix(2, 3).name(), "AVG-all");
    }

    #[test]
    fn mix_builder_produces_uniform_fragments() {
        let s = add_complex_mix(
            ScenarioBuilder::new("t", 0).nodes(6),
            6,
            3,
            Scale::quick().profile(Dataset::Uniform),
        )
        .build()
        .unwrap();
        assert_eq!(s.queries.len(), 6);
        assert!(s.queries.iter().all(|q| q.n_fragments() == 3));
        // 2 x AVG-all, 2 x TOP-5, 2 x COV.
        let names: Vec<&str> = s.queries.iter().map(|q| q.template.as_str()).collect();
        assert_eq!(names.iter().filter(|n| **n == "TOP-5").count(), 2);
    }

    #[test]
    fn varied_builder_cycles_fragments() {
        let s = add_complex_mix_varied(
            ScenarioBuilder::new("t", 0).nodes(6),
            6,
            &[1, 2, 3],
            Scale::quick().profile(Dataset::Uniform),
        )
        .build()
        .unwrap();
        let frags: Vec<usize> = s.queries.iter().map(|q| q.n_fragments()).collect();
        assert_eq!(frags, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn capacity_helper() {
        assert_eq!(capacity_for_overload(3000.0, 3.0), 1000);
        assert!(capacity_for_overload(10.0, 100.0) >= 10);
    }
}
