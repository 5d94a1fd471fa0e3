//! Scenario assembly: queries + placement + source profiles + node
//! capacities, ready for the simulator.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use themis_core::prelude::*;
use themis_query::prelude::*;

use crate::sources::{RatePattern, SourceProfile};

/// A complete experiment configuration consumed by `themis-sim`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (used in reports).
    pub name: String,
    /// All queries.
    pub queries: Vec<QuerySpec>,
    /// Number of processing nodes.
    pub n_nodes: usize,
    /// Fragment placement.
    pub deployment: Deployment,
    /// Per-source emission profile.
    pub profiles: HashMap<SourceId, SourceProfile>,
    /// One-way link latency between distinct nodes (and sources to nodes).
    pub link_latency: TimeDelta,
    /// True processing capacity of each node, in tuples/second.
    pub node_capacity_tps: Vec<u32>,
    /// Shedding interval (the paper's default: 250 ms).
    pub shedding_interval: TimeDelta,
    /// Source time window configuration (the paper's default: 10 s / 250 ms).
    pub stw: StwConfig,
    /// Simulated run length (measurement phase, after warm-up).
    pub duration: TimeDelta,
    /// Warm-up period excluded from metrics.
    pub warmup: TimeDelta,
    /// Master seed.
    pub seed: u64,
    /// Query lifetimes: `(arrival, departure)` relative to simulation
    /// start. Queries without an entry run for the whole experiment.
    /// Models the paper's "queries' arrivals and departures" dynamics.
    pub lifetimes: HashMap<QueryId, (Timestamp, Option<Timestamp>)>,
}

impl Scenario {
    /// The arrival time of `query` (simulation start when unset).
    pub fn arrival_of(&self, query: QueryId) -> Timestamp {
        self.lifetimes
            .get(&query)
            .map(|&(s, _)| s)
            .unwrap_or(Timestamp::ZERO)
    }

    /// The departure time of `query`, if bounded.
    pub fn departure_of(&self, query: QueryId) -> Option<Timestamp> {
        self.lifetimes.get(&query).and_then(|&(_, e)| e)
    }

    /// The node hosting each of `query`'s fragments, by fragment index.
    pub fn nodes_of(&self, query: &QuerySpec) -> Vec<usize> {
        (0..query.n_fragments())
            .map(|fi| {
                self.deployment
                    .node_of(query.id, fi)
                    .expect("validated deployment")
                    .index()
            })
            .collect()
    }

    /// Total long-run source demand in tuples/second (each source's
    /// declared mean rate: base rate × pattern mean factor × shared-load
    /// mean factor).
    pub fn total_demand_tps(&self) -> f64 {
        self.profiles.values().map(|p| p.mean_rate_tps()).sum()
    }

    /// Long-run demand per node in tuples/second: each source's tuples
    /// arrive at the node hosting the fragment that binds it.
    pub fn demand_per_node_tps(&self) -> Vec<f64> {
        let mut demand = vec![0.0; self.n_nodes];
        for q in &self.queries {
            for (fi, frag) in q.fragments.iter().enumerate() {
                let Some(node) = self.deployment.node_of(q.id, fi) else {
                    continue;
                };
                for b in &frag.sources {
                    if let Some(p) = self.profiles.get(&b.source) {
                        demand[node.index()] += p.mean_rate_tps();
                    }
                }
            }
        }
        demand
    }

    /// Mean overload factor: demand over capacity, averaged over nodes with
    /// any demand. Values above 1 mean permanent overload (characteristic
    /// C2 of §2.1).
    pub fn overload_factor(&self) -> f64 {
        let demand = self.demand_per_node_tps();
        let mut total = 0.0;
        let mut n = 0usize;
        for (i, d) in demand.iter().enumerate() {
            if *d > 0.0 {
                total += d / self.node_capacity_tps[i].max(1) as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// Fluent builder for [`Scenario`].
#[derive(Debug)]
pub struct ScenarioBuilder {
    name: String,
    seed: u64,
    n_nodes: usize,
    capacity_tps: Vec<u32>,
    link_latency: TimeDelta,
    shedding_interval: TimeDelta,
    stw: StwConfig,
    duration: TimeDelta,
    warmup: TimeDelta,
    placement: PlacementPolicy,
    queries: Vec<QuerySpec>,
    profiles: HashMap<SourceId, SourceProfile>,
    lifetimes: HashMap<QueryId, (Timestamp, Option<Timestamp>)>,
    correlated: Option<(RatePattern, u64)>,
    sources: IdGen,
    query_ids: IdGen,
}

impl ScenarioBuilder {
    /// Starts a scenario with the paper's defaults: 250 ms shedding
    /// interval, 10 s STW, 5 ms LAN, round-robin placement, 60 s measured
    /// after a 15 s warm-up.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        ScenarioBuilder {
            name: name.into(),
            seed,
            n_nodes: 1,
            capacity_tps: Vec::new(),
            link_latency: TimeDelta::from_millis(5),
            shedding_interval: TimeDelta::from_millis(250),
            stw: StwConfig::PAPER_DEFAULT,
            duration: TimeDelta::from_secs(60),
            warmup: TimeDelta::from_secs(15),
            placement: PlacementPolicy::RoundRobin,
            queries: Vec::new(),
            profiles: HashMap::new(),
            lifetimes: HashMap::new(),
            correlated: None,
            sources: IdGen::new(),
            query_ids: IdGen::new(),
        }
    }

    /// Sets the number of processing nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.n_nodes = n.max(1);
        self
    }

    /// Sets a uniform node capacity in tuples/second.
    pub fn capacity_tps(mut self, tps: u32) -> Self {
        self.capacity_tps = vec![tps];
        self
    }

    /// Sets per-node capacities (heterogeneous sites).
    pub fn node_capacities(mut self, tps: Vec<u32>) -> Self {
        self.capacity_tps = tps;
        self
    }

    /// Sets the one-way link latency.
    pub fn link_latency(mut self, d: TimeDelta) -> Self {
        self.link_latency = d;
        self
    }

    /// Sets the shedding interval (also the STW slide and coordinator
    /// update period).
    pub fn shedding_interval(mut self, d: TimeDelta) -> Self {
        self.shedding_interval = d;
        self.stw = StwConfig::new(self.stw.window, d);
        self
    }

    /// Sets the STW length, keeping the slide.
    pub fn stw_window(mut self, d: TimeDelta) -> Self {
        self.stw = StwConfig::new(d, self.stw.slide);
        self
    }

    /// Sets the measured duration.
    pub fn duration(mut self, d: TimeDelta) -> Self {
        self.duration = d;
        self
    }

    /// Sets the warm-up period.
    pub fn warmup(mut self, d: TimeDelta) -> Self {
        self.warmup = d;
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Adds `count` queries from `template`, all of whose sources emit with
    /// `profile`.
    pub fn add_queries(mut self, template: Template, count: usize, profile: SourceProfile) -> Self {
        for _ in 0..count {
            let id: QueryId = self.query_ids.next();
            let q = template.build(id, &mut self.sources);
            for s in &q.sources {
                self.profiles.insert(s.id, profile);
            }
            self.queries.push(q);
        }
        self
    }

    /// Adds `count` instances of a validated declarative query (the
    /// spec-layer analogue of [`ScenarioBuilder::add_queries`]): each
    /// instance is compiled against this builder's id generators, so
    /// declarative and template workloads mix freely in one scenario.
    pub fn add_query_defs(
        mut self,
        query: &ValidatedQuery,
        count: usize,
        profile: SourceProfile,
    ) -> Self {
        for _ in 0..count {
            let id: QueryId = self.query_ids.next();
            let q = query.compile(id, &mut self.sources);
            for s in &q.sources {
                self.profiles.insert(s.id, profile);
            }
            self.queries.push(q);
        }
        self
    }

    /// Adds `count` queries that arrive at `start` and (optionally) depart
    /// at `end`, both relative to simulation start — the paper's query
    /// arrival/departure dynamics.
    pub fn add_queries_with_lifetime(
        mut self,
        template: Template,
        count: usize,
        profile: SourceProfile,
        start: TimeDelta,
        end: Option<TimeDelta>,
    ) -> Self {
        for _ in 0..count {
            let id: QueryId = self.query_ids.next();
            let q = template.build(id, &mut self.sources);
            for s in &q.sources {
                self.profiles.insert(s.id, profile);
            }
            self.lifetimes.insert(
                id,
                (Timestamp::ZERO + start, end.map(|e| Timestamp::ZERO + e)),
            );
            self.queries.push(q);
        }
        self
    }

    /// Modulates **every** source in the scenario (including ones added
    /// after this call) by one hidden shared load process: the seeded
    /// `pattern` is evaluated statelessly per emission instant, so its
    /// bursts hit all sources simultaneously — correlated overload, the
    /// regime where per-source independence would otherwise let bursts
    /// average out across a node ([`SourceProfile::with_shared_load`]).
    pub fn with_correlated_load(mut self, pattern: RatePattern, seed: u64) -> Self {
        self.correlated = Some((pattern, seed));
        self
    }

    /// Finalises the scenario, computing the placement.
    pub fn build(self) -> Result<Scenario, PlacementError> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9_1ace);
        let deployment = place(&self.queries, self.n_nodes, self.placement, &mut rng)?;
        let capacities = match self.capacity_tps.len() {
            0 => vec![10_000; self.n_nodes],
            1 => vec![self.capacity_tps[0]; self.n_nodes],
            _ => {
                let mut c = self.capacity_tps.clone();
                c.resize(self.n_nodes, *c.last().unwrap());
                c
            }
        };
        let mut profiles = self.profiles;
        if let Some((pattern, seed)) = self.correlated {
            for p in profiles.values_mut() {
                *p = p.with_shared_load(pattern, seed);
            }
        }
        Ok(Scenario {
            name: self.name,
            queries: self.queries,
            n_nodes: self.n_nodes,
            deployment,
            profiles,
            link_latency: self.link_latency,
            node_capacity_tps: capacities,
            shedding_interval: self.shedding_interval,
            stw: self.stw,
            duration: self.duration,
            warmup: self.warmup,
            seed: self.seed,
            lifetimes: self.lifetimes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    fn profile() -> SourceProfile {
        SourceProfile::emulab(Dataset::Uniform)
    }

    #[test]
    fn builder_assembles_scenario() {
        let s = ScenarioBuilder::new("test", 1)
            .nodes(4)
            .capacity_tps(2000)
            .add_queries(Template::Cov { fragments: 2 }, 10, profile())
            .build()
            .unwrap();
        assert_eq!(s.queries.len(), 10);
        assert_eq!(s.n_nodes, 4);
        assert_eq!(s.node_capacity_tps, vec![2000; 4]);
        assert_eq!(s.profiles.len(), 40, "2 sources x 2 fragments x 10");
        s.deployment.validate(&s.queries).unwrap();
    }

    #[test]
    fn demand_accounting() {
        let s = ScenarioBuilder::new("demand", 2)
            .nodes(2)
            .capacity_tps(1000)
            .add_queries(Template::Cov { fragments: 1 }, 4, profile())
            .build()
            .unwrap();
        // 4 queries x 2 sources x 150 t/s = 1200 t/s total.
        assert_eq!(s.total_demand_tps(), 1200.0);
        let per_node: f64 = s.demand_per_node_tps().iter().sum();
        assert_eq!(per_node, 1200.0);
        // Each node has 600 t/s demand over 1000 t/s capacity.
        assert!((s.overload_factor() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_capacities_extend() {
        let s = ScenarioBuilder::new("hetero", 3)
            .nodes(3)
            .node_capacities(vec![1000, 2000])
            .add_queries(Template::Avg, 3, profile())
            .build()
            .unwrap();
        assert_eq!(s.node_capacity_tps, vec![1000, 2000, 2000]);
    }

    #[test]
    fn query_ids_are_sequential_and_sources_unique() {
        let s = ScenarioBuilder::new("ids", 3)
            .nodes(2)
            .add_queries(Template::Avg, 2, profile())
            .add_queries(Template::Cov { fragments: 2 }, 2, profile())
            .build()
            .unwrap();
        let ids: Vec<u32> = s.queries.iter().map(|q| q.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let mut srcs: Vec<u32> = s
            .queries
            .iter()
            .flat_map(|q| q.sources.iter().map(|x| x.id.0))
            .collect();
        let n = srcs.len();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), n);
    }

    #[test]
    fn correlated_load_modulates_every_profile() {
        let pattern = RatePattern::FlashCrowd {
            every: TimeDelta::from_secs(5),
            width: TimeDelta::from_secs(1),
            magnitude: 6.0,
        };
        let s = ScenarioBuilder::new("corr", 7)
            .nodes(2)
            .add_queries(Template::Avg, 2, profile())
            .with_correlated_load(pattern, 99)
            .add_queries(Template::Avg, 1, profile())
            .build()
            .unwrap();
        for p in s.profiles.values() {
            let shared = p.shared.expect("every source carries the shared load");
            assert_eq!(shared.seed, 99);
            assert_eq!(shared.pattern, pattern);
        }
        // Demand accounting includes the shared mean (factor 2.0 here).
        let expected = s.profiles.len() as f64 * 150.0 * 2.0;
        assert!((s.total_demand_tps() - expected).abs() < 1e-9);
    }

    #[test]
    fn placement_error_propagates() {
        let r = ScenarioBuilder::new("bad", 0)
            .nodes(2)
            .add_queries(Template::Cov { fragments: 3 }, 1, profile())
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn shedding_interval_sets_stw_slide() {
        let s = ScenarioBuilder::new("slide", 0)
            .nodes(1)
            .shedding_interval(TimeDelta::from_millis(100))
            .add_queries(Template::Avg, 1, profile())
            .build()
            .unwrap();
        assert_eq!(s.stw.slide, TimeDelta::from_millis(100));
        assert_eq!(s.stw.window, TimeDelta::from_secs(10));
    }
}
