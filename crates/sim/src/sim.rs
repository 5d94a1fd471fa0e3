//! The discrete-event FSPS simulation: sources, links, nodes, coordinator.
//!
//! This is the repo's substitute for the paper's Emulab deployment
//! (Table 2). Every evaluation metric — per-query SIC values, Jain's
//! index, shed fractions, coordinator traffic — is a function of *which
//! tuples are shed where and when*, which the event-driven model captures:
//! links delay batches, nodes run the overload detector + shedder every
//! shedding interval, and the coordinator disseminates result SIC values
//! (`updateSIC`).
//!
//! The event loop only schedules. Sources are paced by the one
//! [`SourcePump`] the engine's shards and the remote generator also
//! step; as in the engine, the pump acquires its batches from one
//! [`BatchPool`] that every node recycles spent and shed batches into.
//! Every `updateSIC` round and SIC sample runs in the one
//! [`Coordinator`] the engine also drives, on the coordinator's own
//! schedule: a `CoordTick` event fires at its `next_round()`, a `Sample`
//! event at its `next_sample()` (once per simulated second). The
//! simulator supplies their clock and delivers what they emit after the
//! link latency. A node's first tick that runs its shedder marks it for
//! the coordinator, which feeds only marked nodes; node ticks are queued
//! ahead of a round at the same instant, so that round already feeds it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_workloads::prelude::*;
use themis_workloads::pump::{query_bindings, SourcePump};

use crate::config::SimConfig;
use crate::node::{NodeOutput, SimNode};
use crate::report::{NodeStats, QueryStats, SimReport};

/// Simulator events.
enum Event {
    /// The source pump's next batch is due.
    PumpStep,
    /// A query departs: its sources stop emitting.
    Depart { query: QueryId },
    /// A batch reaches a node.
    BatchArrival { node: usize, rb: RoutedBatch },
    /// A node's shedding interval fires.
    NodeTick { node: usize },
    /// The coordinator disseminates result SIC values.
    CoordTick,
    /// A coordinator update reaches a node.
    SicArrival { node: usize, update: SicUpdate },
    /// The coordinator's next SIC sample is due.
    Sample,
}

struct Queued {
    at: Timestamp,
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

/// The pending events up to the end of the run, ordered by time and then
/// by push order.
struct Agenda {
    queue: BinaryHeap<Reverse<Queued>>,
    seq: u64,
    end: Timestamp,
}

impl Agenda {
    /// Schedules `ev` at `at`; an event past the end never happens.
    fn push(&mut self, at: Timestamp, ev: Event) {
        if at > self.end {
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        self.queue.push(Reverse(Queued { at, seq, ev }));
    }
}

/// A fully wired simulation, ready to run.
pub struct Simulation {
    scenario: Scenario,
    config: SimConfig,
    agenda: Agenda,
    nodes: Vec<SimNode>,
    pump: SourcePump,
    /// The one batch pool the pump acquires from and every node recycles
    /// into, as in the engine.
    pool: BatchPool,
    /// (query, fragment) -> the `(node, fragment)` its output feeds, or
    /// `None` when it emits the query result.
    frag_route: HashMap<(QueryId, usize), Option<(usize, usize)>>,
    coordinator: Coordinator,
    results: HashMap<QueryId, Vec<(Timestamp, Vec<Row>)>>,
}

impl Simulation {
    /// Wires up the scenario.
    pub fn new(scenario: Scenario, config: SimConfig) -> Self {
        let end = Timestamp::ZERO + scenario.warmup + scenario.duration;
        let pool = BatchPool::new();
        let mut nodes: Vec<SimNode> = (0..scenario.n_nodes)
            .map(|i| {
                let mut node = SimNode::new(
                    NodeId(i as u32),
                    scenario.node_capacity_tps[i],
                    scenario.shedding_interval,
                    scenario.stw,
                    &config,
                    scenario.seed ^ (0xA5A5_0000 + i as u64),
                );
                node.set_pool(pool.clone());
                node
            })
            .collect();

        let mut agenda = Agenda {
            queue: BinaryHeap::new(),
            seq: 0,
            end,
        };
        let mut pump = SourcePump::with_pool(pool.clone());
        let mut frag_route = HashMap::new();
        let interval = scenario.shedding_interval;
        let second = TimeDelta::from_secs(1);
        let mut coordinator = Coordinator::new(scenario.stw, interval, second, scenario.warmup)
            .with_series(config.record_series);
        for q in &scenario.queries {
            let placed = scenario.nodes_of(q);
            for (fi, &node) in placed.iter().enumerate() {
                nodes[node].deploy(q, fi);
                frag_route.insert((q.id, fi), q.downstream_route(fi, &placed));
            }
            // A late-arriving query's sources start emitting at its
            // arrival. Departures are queued ahead of every pump step, so
            // an emission due at the departure instant never happens.
            let arrival = scenario.arrival_of(q.id);
            let departure = scenario.departure_of(q.id);
            let profile_of = |s: SourceId| scenario.profiles[&s];
            let bindings = query_bindings(q, &placed, profile_of, scenario.seed);
            pump.add(arrival, bindings);
            if let Some(at) = departure {
                agenda.push(at, Event::Depart { query: q.id });
            }
            // Mean statistics only cover a query's active, converged
            // life, up to its departure.
            let hosts = placed.iter().map(|&n| NodeId(n as u32)).collect();
            coordinator.attach(q.id, hosts, arrival, departure);
        }

        agenda.push(Timestamp::ZERO, Event::PumpStep);
        for n in 0..nodes.len() {
            agenda.push(Timestamp::ZERO + interval, Event::NodeTick { node: n });
        }
        if config.coordinator {
            agenda.push(coordinator.next_round(), Event::CoordTick);
        }
        if let Some(at) = coordinator.next_sample() {
            agenda.push(at, Event::Sample);
        }
        Simulation {
            scenario,
            config,
            agenda,
            nodes,
            pump,
            pool,
            frag_route,
            coordinator,
            results: HashMap::new(),
        }
    }

    /// The simulation's batch pool (its [`BatchPool::stats`] show how
    /// much of the run's batch traffic reused pooled batches).
    pub fn batch_pool(&self) -> &BatchPool {
        &self.pool
    }

    /// Runs to completion and produces the report.
    pub fn run(mut self) -> SimReport {
        let latency = self.scenario.link_latency;
        let interval = self.scenario.shedding_interval;
        while let Some(Reverse(Queued { at: now, ev, .. })) = self.agenda.queue.pop() {
            match ev {
                Event::PumpStep => {
                    let agenda = &mut self.agenda;
                    let next = self.pump.step(now, |node, rb| {
                        agenda.push(now + latency, Event::BatchArrival { node, rb });
                    });
                    if let Some(next) = next {
                        agenda.push(next, Event::PumpStep);
                    }
                }
                Event::Depart { query } => self.pump.remove(query),
                Event::BatchArrival { node, rb } => {
                    self.nodes[node].on_arrival(now, rb);
                }
                Event::NodeTick { node } => {
                    let outputs = self.nodes[node].tick(now);
                    if self.nodes[node].first_shed() {
                        self.coordinator.overloaded(NodeId(node as u32));
                    }
                    for out in outputs {
                        self.route_output(now, out);
                    }
                    self.agenda.push(now + interval, Event::NodeTick { node });
                }
                Event::CoordTick => {
                    let agenda = &mut self.agenda;
                    self.coordinator.round(now, |update| {
                        let node = update.node.index();
                        agenda.push(now + latency, Event::SicArrival { node, update });
                    });
                    agenda.push(self.coordinator.next_round(), Event::CoordTick);
                }
                Event::SicArrival { node, update } => {
                    self.nodes[node].on_sic_update(&update);
                }
                Event::Sample => {
                    self.coordinator.sample(now);
                    if let Some(at) = self.coordinator.next_sample() {
                        self.agenda.push(at, Event::Sample);
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
                self.coordinator.record(now, query, batch.sic_total());
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
                self.agenda.push(
                    now + self.scenario.link_latency,
                    Event::BatchArrival { node, rb },
                );
            }
            None => {}
        }
    }

    fn finish(self) -> SimReport {
        let coordinated = self.coordinator.finish();
        let specs: HashMap<QueryId, &QuerySpec> =
            self.scenario.queries.iter().map(|q| (q.id, q)).collect();
        let per_query: Vec<QueryStats> = coordinated
            .per_query
            .iter()
            .map(|&(query, mean_sic, samples)| QueryStats {
                query,
                template: specs[&query].template.clone(),
                fragments: specs[&query].n_fragments(),
                mean_sic,
                samples,
            })
            .collect();
        let nodes: Vec<NodeStats> = self.nodes.iter().map(|n| n.stats.clone()).collect();
        SimReport {
            scenario: self.scenario.name.clone(),
            policy: self.config.policy.name().to_string(),
            per_query,
            fairness: coordinated.fairness,
            nodes,
            coordinator_messages: coordinated.messages,
            sic_overshoot: coordinated.sic_overshoot,
            results: self.results,
            sic_series: coordinated.sic_series,
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

    /// A query living `[2 s, 5 s)` alone on its node delivers exactly its
    /// rate × 3 s there: its sources start at the arrival and stop at the
    /// departure, while a resident query keeps the run going on the other
    /// node until 8 s.
    #[test]
    fn a_query_emits_only_during_its_lifetime() {
        let profile = SourceProfile::steady(40, 4, Dataset::Uniform);
        let scenario = ScenarioBuilder::new("lifetime", 9)
            .nodes(2)
            .capacity_tps(100_000)
            .duration(TimeDelta::from_secs(6))
            .warmup(TimeDelta::from_secs(2))
            .add_queries(Template::Avg, 1, profile)
            .add_queries_with_lifetime(
                Template::Avg,
                1,
                profile,
                TimeDelta::from_secs(2),
                Some(TimeDelta::from_secs(5)),
            )
            .build()
            .unwrap();
        let resident = scenario.nodes_of(&scenario.queries[0])[0];
        let visitor = scenario.nodes_of(&scenario.queries[1])[0];
        assert_ne!(resident, visitor, "each query alone on its node");
        let report = run_scenario(scenario, SimConfig::default());
        assert_eq!(report.nodes[visitor].arrived_tuples, 40 * 3);
        assert!(report.nodes[resident].arrived_tuples > 40 * 7);
    }

    #[test]
    fn coordinator_traffic_accounted() {
        let report = run_scenario(tiny_scenario(120, 8), SimConfig::default());
        assert_eq!(report.coordinator_bytes(), report.coordinator_messages * 30);
        // 6 queries x 2 hosts each, one update per interval.
        assert!(report.coordinator_messages > 100);
    }
}
