//! The discrete-event FSPS simulation: sources, links, nodes, coordinators.
//!
//! This is the repo's substitute for the paper's Emulab deployment
//! (Table 2). Every evaluation metric — per-query SIC values, Jain's
//! index, shed fractions, coordinator traffic — is a function of *which
//! tuples are shed where and when*, which the event-driven model captures:
//! sources emit batches on their schedule, links delay them, nodes run the
//! overload detector + shedder every shedding interval, and per-query
//! coordinators disseminate result SIC values (`updateSIC`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_workloads::prelude::*;
use themis_workloads::pump::source_seed;

use crate::config::SimConfig;
use crate::node::{NodeOutput, SimNode};
use crate::report::{NodeStats, QueryStats, SimReport};

/// Simulator events.
enum Event {
    /// A source's next batch is due.
    SourceEmit { driver: usize },
    /// A batch reaches a node.
    BatchArrival { node: usize, rb: RoutedBatch },
    /// A node's shedding interval fires.
    NodeTick { node: usize },
    /// All query coordinators disseminate result SIC values.
    CoordTick,
    /// A coordinator update reaches a node.
    SicArrival { node: usize, update: SicUpdate },
    /// Periodic metric sampling.
    Sample,
}

struct Queued {
    at: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A fully wired simulation, ready to run.
pub struct Simulation {
    scenario: Scenario,
    config: SimConfig,
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    nodes: Vec<SimNode>,
    drivers: Vec<SourceDriver>,
    /// source id -> (node, query, fragment).
    source_route: HashMap<SourceId, (usize, QueryId, usize)>,
    /// (query, fragment) -> the `(node, fragment)` its output feeds, or
    /// `None` when it emits the query result.
    frag_route: HashMap<(QueryId, usize), Option<(usize, usize)>>,
    coordinators: Vec<QueryCoordinator>,
    tracker: ResultSicTracker,
    /// Per-query running `(sum, count)` of post-warm-up SIC samples — only
    /// their mean is reported, so the samples themselves are not kept.
    sic_samples: HashMap<QueryId, (f64, usize)>,
    sic_series: HashMap<QueryId, Vec<(Timestamp, f64)>>,
    results: HashMap<QueryId, Vec<(Timestamp, Vec<Row>)>>,
    end: Timestamp,
}

impl Simulation {
    /// Wires up the scenario.
    pub fn new(scenario: Scenario, config: SimConfig) -> Self {
        let end = Timestamp::ZERO + scenario.warmup + scenario.duration;
        let mut nodes: Vec<SimNode> = (0..scenario.n_nodes)
            .map(|i| {
                SimNode::new(
                    NodeId(i as u32),
                    scenario.node_capacity_tps[i],
                    scenario.shedding_interval,
                    scenario.stw,
                    &config,
                    scenario.seed ^ (0xA5A5_0000 + i as u64),
                )
            })
            .collect();

        let mut source_route = HashMap::new();
        let mut frag_route = HashMap::new();
        let mut drivers = Vec::new();
        let mut coordinators = Vec::new();
        for q in &scenario.queries {
            let node_of = |fi: usize| {
                scenario
                    .deployment
                    .node_of(q.id, fi)
                    .expect("validated deployment")
                    .index()
            };
            for (fi, frag) in q.fragments.iter().enumerate() {
                let node = node_of(fi);
                nodes[node].deploy(q, fi);
                for b in &frag.sources {
                    source_route.insert(b.source, (node, q.id, fi));
                }
                let route = match q.downstream_of(fi) {
                    Some(down) if fi != q.result_fragment => Some((node_of(down), down)),
                    // The result fragment, or a dangling one, reports results.
                    _ => None,
                };
                frag_route.insert((q.id, fi), route);
            }
            for s in &q.sources {
                let profile = scenario.profiles[&s.id];
                drivers.push(SourceDriver::new(
                    q.id,
                    s,
                    profile,
                    source_seed(scenario.seed, s.id),
                ));
            }
            coordinators.push(QueryCoordinator::new(
                q.id,
                scenario.deployment.hosts_of(q.id),
                scenario.shedding_interval,
            ));
        }

        let tracker = ResultSicTracker::new(scenario.stw);
        let mut sim = Simulation {
            config,
            queue: BinaryHeap::new(),
            seq: 0,
            nodes,
            drivers,
            source_route,
            frag_route,
            coordinators,
            tracker,
            sic_samples: scenario.queries.iter().map(|q| (q.id, (0.0, 0))).collect(),
            sic_series: HashMap::new(),
            results: HashMap::new(),
            end,
            scenario,
        };

        // Seed the event queue; sources of late-arriving queries start
        // emitting at the query's arrival time.
        for d in 0..sim.drivers.len() {
            let arrival = sim.scenario.arrival_of(sim.drivers[d].query);
            sim.drivers[d].start_at(arrival);
            let at = sim.drivers[d].next_time();
            sim.push(at, Event::SourceEmit { driver: d });
        }
        let interval = sim.scenario.shedding_interval;
        for n in 0..sim.nodes.len() {
            sim.push(Timestamp::ZERO + interval, Event::NodeTick { node: n });
        }
        if sim.config.coordinator {
            sim.push(Timestamp::ZERO + interval, Event::CoordTick);
        }
        // Samples are de-phased off the node-tick grid so they do not alias
        // with the 1 Hz result emissions: results are recorded at node
        // ticks (multiples of the shedding interval, offset by window
        // grace), so sampling exactly on those instants would consistently
        // miss the newest record while the oldest just left the STW ring.
        let sample_at = Timestamp::ZERO
            + sim.scenario.warmup
            + TimeDelta::from_micros(
                sim.config.sample_interval.as_micros() / 2
                    + sim.scenario.shedding_interval.as_micros() / 2
                    + 1_000,
            );
        sim.push(sample_at, Event::Sample);
        sim
    }

    fn push(&mut self, at: Timestamp, ev: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Queued {
            at: at.as_micros(),
            seq: self.seq,
            ev,
        }));
    }

    /// Runs to completion and produces the report.
    pub fn run(mut self) -> SimReport {
        let latency = self.scenario.link_latency;
        let interval = self.scenario.shedding_interval;
        while let Some(Reverse(q)) = self.queue.pop() {
            let now = Timestamp(q.at);
            if now > self.end {
                break;
            }
            match q.ev {
                Event::SourceEmit { driver } => {
                    let batch = self.drivers[driver].emit();
                    let src = self.drivers[driver].source;
                    // Quiet rate-pattern batches can be empty: nothing to
                    // route (the engine's pump skips these too).
                    if batch.is_empty() {
                        // fall through to reschedule below
                    } else if let Some(&(node, query, fragment)) = self.source_route.get(&src) {
                        let rb = RoutedBatch {
                            query,
                            fragment,
                            ingress: Ingress::Source(src),
                            batch,
                        };
                        self.push(now + latency, Event::BatchArrival { node, rb });
                    }
                    let next = self.drivers[driver].next_time();
                    let departed = self
                        .scenario
                        .departure_of(self.drivers[driver].query)
                        .map(|d| next >= d)
                        .unwrap_or(false);
                    if next <= self.end && !departed {
                        self.push(next, Event::SourceEmit { driver });
                    }
                }
                Event::BatchArrival { node, rb } => {
                    self.nodes[node].on_arrival(now, rb);
                }
                Event::NodeTick { node } => {
                    let outputs = self.nodes[node].tick(now);
                    for out in outputs {
                        self.route_output(now, out);
                    }
                    let next = now + interval;
                    if next <= self.end {
                        self.push(next, Event::NodeTick { node });
                    }
                }
                Event::CoordTick => {
                    for c in 0..self.coordinators.len() {
                        let query = self.coordinators[c].query();
                        let sic = self.tracker.query_sic(now, query);
                        self.coordinators[c].on_result_sic(sic);
                        for update in self.coordinators[c].tick(now) {
                            self.push(
                                now + latency,
                                Event::SicArrival {
                                    node: update.node.index(),
                                    update,
                                },
                            );
                        }
                    }
                    let next = now + interval;
                    if next <= self.end {
                        self.push(next, Event::CoordTick);
                    }
                }
                Event::SicArrival { node, update } => {
                    self.nodes[node].on_sic_update(&update);
                }
                Event::Sample => {
                    if now >= Timestamp::ZERO + self.scenario.warmup {
                        for (q, (sum, count)) in self.sic_samples.iter_mut() {
                            // Mean statistics only cover a query's active,
                            // converged life: from one STW after arrival to
                            // its departure.
                            let settled = self.scenario.arrival_of(*q) + self.scenario.stw.window;
                            let active = now >= settled
                                && self
                                    .scenario
                                    .departure_of(*q)
                                    .map(|d| now < d)
                                    .unwrap_or(true);
                            if active {
                                *sum += self.tracker.query_sic(now, *q).value();
                                *count += 1;
                            }
                        }
                    }
                    if self.config.record_series {
                        for q in self.scenario.queries.iter().map(|q| q.id) {
                            let v = self.tracker.query_sic(now, q).value();
                            self.sic_series.entry(q).or_default().push((now, v));
                        }
                    }
                    let next = now + self.config.sample_interval;
                    if next <= self.end {
                        self.push(next, Event::Sample);
                    }
                }
            }
        }
        self.finish()
    }

    fn route_output(&mut self, now: Timestamp, out: NodeOutput) {
        let NodeOutput::FragmentOutput {
            query,
            fragment,
            at,
            batch,
        } = out;
        match self.frag_route.get(&(query, fragment)) {
            Some(None) => {
                self.tracker.record(now, query, batch.sic_total());
                if self.config.record_results {
                    // Result rows materialise at the edge only.
                    self.results
                        .entry(query)
                        .or_default()
                        .push((at, batch.to_rows()));
                }
            }
            Some(&Some((node, df))) => {
                let rb = RoutedBatch {
                    query,
                    fragment: df,
                    ingress: Ingress::Upstream(fragment),
                    // Wrap the emission's columns directly — no re-copy.
                    batch: Batch::from_data(query, at, batch),
                };
                self.push(
                    now + self.scenario.link_latency,
                    Event::BatchArrival { node, rb },
                );
            }
            None => {}
        }
    }

    fn finish(self) -> SimReport {
        let mut per_query: Vec<QueryStats> = self
            .scenario
            .queries
            .iter()
            .map(|q| {
                let (sum, samples) = self.sic_samples[&q.id];
                let mean = if samples == 0 {
                    0.0
                } else {
                    sum / samples as f64
                };
                QueryStats {
                    query: q.id,
                    template: q.template.clone(),
                    fragments: q.n_fragments(),
                    mean_sic: mean,
                    samples,
                }
            })
            .collect();
        per_query.sort_by_key(|s| s.query);
        let sics: Vec<Sic> = per_query.iter().map(|s| Sic(s.mean_sic)).collect();
        let fairness = FairnessSummary::from_sics(&sics);
        let nodes: Vec<NodeStats> = self.nodes.iter().map(|n| n.stats.clone()).collect();
        let coordinator_messages = self.coordinators.iter().map(|c| c.messages_sent()).sum();
        SimReport {
            scenario: self.scenario.name.clone(),
            policy: self.config.policy.name().to_string(),
            per_query,
            fairness,
            nodes,
            coordinator_messages,
            results: self.results,
            sic_series: self.sic_series,
        }
    }
}

/// Convenience: wires and runs in one call.
pub fn run_scenario(scenario: Scenario, config: SimConfig) -> SimReport {
    Simulation::new(scenario, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario(capacity_tps: u32, seed: u64) -> Scenario {
        ScenarioBuilder::new("tiny", seed)
            .nodes(2)
            .capacity_tps(capacity_tps)
            .duration(TimeDelta::from_secs(20))
            .warmup(TimeDelta::from_secs(8))
            .stw_window(TimeDelta::from_secs(4))
            .add_queries(
                Template::Cov { fragments: 2 },
                6,
                SourceProfile::steady(40, 4, Dataset::Uniform),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn underloaded_run_reaches_perfect_sic() {
        // Capacity far above demand: every query should sit near SIC = 1.
        let report = run_scenario(tiny_scenario(100_000, 1), SimConfig::default());
        assert_eq!(report.per_query.len(), 6);
        for q in &report.per_query {
            assert!(
                q.mean_sic > 0.9,
                "query {} SIC {} (expected ~1)",
                q.query,
                q.mean_sic
            );
            assert!(q.samples > 5);
        }
        assert!(report.jain() > 0.99);
        assert_eq!(report.shed_fraction(), 0.0);
    }

    #[test]
    fn overloaded_run_sheds_and_stays_fair() {
        // Demand per node: 6 queries x 2 sources x 40 t/s / 2 nodes
        // = 240 t/s; capacity 120 t/s -> 2x overload.
        let report = run_scenario(tiny_scenario(120, 2), SimConfig::default());
        assert!(
            report.shed_fraction() > 0.2,
            "shed {}",
            report.shed_fraction()
        );
        let mean = report.mean_sic();
        assert!(
            mean > 0.2 && mean < 0.95,
            "mean SIC should be degraded: {mean}"
        );
        assert!(report.jain() > 0.85, "jain {}", report.jain());
        assert!(report.coordinator_messages > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_scenario(tiny_scenario(120, 3), SimConfig::default());
        let b = run_scenario(tiny_scenario(120, 3), SimConfig::default());
        let sa: Vec<f64> = a.per_query.iter().map(|q| q.mean_sic).collect();
        let sb: Vec<f64> = b.per_query.iter().map(|q| q.mean_sic).collect();
        assert_eq!(sa, sb, "same seed must reproduce exactly");
        assert_eq!(a.nodes[0].shed_tuples, b.nodes[0].shed_tuples);
    }

    #[test]
    fn seeds_change_outcomes() {
        let a = run_scenario(tiny_scenario(120, 4), SimConfig::default());
        let b = run_scenario(tiny_scenario(120, 5), SimConfig::default());
        let sa: Vec<f64> = a.per_query.iter().map(|q| q.mean_sic).collect();
        let sb: Vec<f64> = b.per_query.iter().map(|q| q.mean_sic).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn balance_sic_fairer_than_random_under_overload() {
        let balance = run_scenario(tiny_scenario(120, 6), SimConfig::default());
        let random = run_scenario(
            tiny_scenario(120, 6),
            SimConfig::with_policy(lookup_policy("random").unwrap()),
        );
        assert!(
            balance.jain() >= random.jain() - 0.02,
            "balance {} vs random {}",
            balance.jain(),
            random.jain()
        );
    }

    #[test]
    fn record_results_collects_rows() {
        let cfg = SimConfig {
            record_results: true,
            ..Default::default()
        };
        let report = run_scenario(tiny_scenario(100_000, 7), cfg);
        assert!(!report.results.is_empty());
        let any = report.results.values().next().unwrap();
        assert!(!any.is_empty());
        // COV emits single-value rows.
        assert_eq!(any[0].1[0].len(), 1);
    }

    #[test]
    fn coordinator_traffic_accounted() {
        let report = run_scenario(tiny_scenario(120, 8), SimConfig::default());
        assert_eq!(report.coordinator_bytes(), report.coordinator_messages * 30);
        // 6 queries x 2 hosts each, one update per interval.
        assert!(report.coordinator_messages > 100);
    }
}
