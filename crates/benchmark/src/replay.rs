//! The layer replay: one thread drives the public layer calls in pipeline
//! order over a workload's scenario on a *virtual* schedule, recording a
//! span around each call. No threads, channels under contention, wake-ups
//! or sleeps take part, so what the replay costs per tuple is what the
//! layers cost; the rest of the engine's CPU per tuple is the
//! `replay.unattributed_share`.
//!
//! Pipeline, per source batch: `SourceDriver::emit` → (`encode_msg` /
//! `Decoder::next` when federated) → a `ShardMsg` send + receive on the
//! vendored channel → `NodeState::enqueue`. Per node tick:
//! `NodeState::tick` with harness-owned channels behind `ShardRouting`,
//! then the emissions it routed are drained (downstream batches enqueued,
//! results recorded in the `ResultSicTracker`). Per shedding interval: one
//! coordinator round (`query_sic` + `QueryCoordinator::tick` →
//! `NodeState::apply_sic`, → `ShardLog::append` when durable). On
//! `federated-durable`, `NodeState::checkpoint` + `ShardLog::checkpoint`
//! at the engine's cadence and divergence bound. `sim-paper` drives
//! `SimNode` through the same schedule instead of `NodeState`.
//!
//! Work inside `tick` (shedder, fragment runtime, windows, kernels) is
//! not visible from outside, so a second *probe* pass replays the batches
//! of a sample of nodes through harness-owned instances of those layers
//! and times them directly. Probe time is not part of the replay total.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use themis_core::prelude::*;
use themis_core::wal::restore_shard;
use themis_engine::prelude::*;
use themis_net::codec::{encode_msg, Decoder, NetMsg, WireBatch};
use themis_net::listener::IngestServer;
use themis_net::transport::{NetConfig, PeerSender};
use themis_operators::kernels::sum_count_f64;
use themis_operators::op::DEFAULT_GRACE;
use themis_operators::prelude::{WindowBuffer, WindowSpec};
use themis_query::prelude::{FragmentRuntime, Ingress, QuerySpec};
use themis_sim::prelude::{NodeOutput, SimConfig, SimNode};
use themis_workloads::prelude::{Scenario, SourceDriver};

use crate::trace::Tracer;
use crate::workloads::{Workload, CHECKPOINT_EVERY, SIC_DIVERGENCE_BOUND};

/// Span names. Roots group the calls one event causes; the rest are the
/// layer calls themselves.
pub mod span {
    /// Root: one source batch through emit → enqueue.
    pub const INGEST: &str = "replay.ingest";
    /// Root: one node tick and the routing of what it emitted.
    pub const TICK: &str = "replay.tick";
    /// Root: one coordinator round over every query.
    pub const COORDINATOR: &str = "replay.coordinator";
    /// Root: one checkpoint of every node.
    pub const CHECKPOINT: &str = "replay.checkpoint";
    /// `SourceDriver::emit` (items: tuples).
    pub const EMIT: &str = "workloads.sources.emit";
    /// `encode_msg` of a batch frame (items: tuples).
    pub const ENCODE: &str = "net.codec.encode";
    /// `Decoder::next` of that frame (items: tuples).
    pub const DECODE: &str = "net.codec.decode";
    /// `ShardMsg` send + receive (items: messages).
    pub const MAILBOX: &str = "engine.shard.mailbox";
    /// `NodeState::enqueue` / `SimNode::on_arrival` (items: batches).
    pub const ENQUEUE: &str = "engine.node_state.enqueue";
    /// `NodeState::tick` (items: tuples buffered).
    pub const NODE_TICK: &str = "engine.node_state.tick";
    /// `SimNode::tick` (items: tuples buffered).
    pub const SIM_TICK: &str = "sim.node.tick";
    /// `ResultSicTracker::record` (items: results).
    pub const RECORD: &str = "core.stw.record";
    /// `query_sic` + `QueryCoordinator::tick` (items: queries).
    pub const COORD_TICK: &str = "core.coordinator.tick";
    /// `NodeState::apply_sic` / `SimNode::on_sic_update` (items: updates).
    pub const APPLY_SIC: &str = "engine.node_state.apply_sic";
    /// `ShardLog::append` (items: deltas).
    pub const WAL_APPEND: &str = "core.wal.append";
    /// `NodeState::checkpoint` (items: nodes).
    pub const SNAPSHOT: &str = "engine.node_state.checkpoint";
    /// `ShardLog::checkpoint` (items: snapshots).
    pub const WAL_CHECKPOINT: &str = "core.wal.checkpoint";
}

const ROOTS: [&str; 4] = [
    span::INGEST,
    span::TICK,
    span::COORDINATOR,
    span::CHECKPOINT,
];

/// Nanoseconds and work items of one directly timed probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Nanoseconds inside the timed calls.
    pub ns: u64,
    /// Work items they processed.
    pub items: u64,
}

impl Acc {
    fn add(&mut self, since: Instant, items: usize) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.items += items as u64;
    }

    /// Nanoseconds per item (0 when nothing was timed).
    pub fn per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }
}

/// Directly timed layer calls of the probe pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `SourceSicAssigner::stamp` (items: batches).
    pub stamp: Acc,
    /// `build_buffer_states` + `select_to_keep` (items: candidates).
    pub select: Acc,
    /// `FragmentRuntime::ingest` (items: tuples).
    pub ingest: Acc,
    /// `WindowBuffer::push` (items: tuples).
    pub window_push: Acc,
    /// `WindowBuffer::close_up_to` (items: panes closed).
    pub pane_close: Acc,
    /// `kernels::sum_count_f64` over closed panes (items: rows).
    pub kernel: Acc,
    /// `PeerSender::send_batch` (items: batches; federated only).
    pub send: Acc,
}

/// What a replay yields.
pub struct Replay {
    /// Every span of the pipeline pass.
    pub tracer: Tracer,
    /// Source batches emitted.
    pub batches: u64,
    /// Tuples arrived at nodes (source and derived).
    pub tuples: u64,
    /// Tuples shed.
    pub shed_tuples: u64,
    /// Process-wide batch constructions during the pipeline pass.
    pub batch_allocs: u64,
    /// Bytes of the encoded batch frames.
    pub wire_bytes: u64,
    /// Checkpoints written and their total size on disk.
    pub checkpoints: u64,
    /// Bytes of all checkpoints written.
    pub checkpoint_bytes: u64,
    /// Wall milliseconds of the final `restore_shard`.
    pub restore_ms: f64,
    /// The probe pass's timings.
    pub probes: Probes,
}

impl Replay {
    /// Nanoseconds of all layer spans (roots excluded) per arrived tuple.
    pub fn ns_per_tuple(&self) -> f64 {
        let layers: u64 = self
            .tracer
            .layers()
            .iter()
            .filter(|(name, _)| !ROOTS.contains(name))
            .map(|(_, l)| l.total_ns)
            .sum();
        layers as f64 / self.tuples.max(1) as f64
    }
}

/// Virtual seconds a replay covers.
pub fn replay_length(quick: bool) -> Duration {
    Duration::from_secs(if quick { 2 } else { 4 })
}

/// Where a fragment's emissions go: `(node, fragment)` downstream, or the
/// query result.
type Route = Option<(usize, usize)>;

/// A batch a node tick sent onward, or a result it emitted.
enum Routed {
    Downstream {
        node: usize,
        query: QueryId,
        fragment: usize,
        ingress: Ingress,
        batch: Batch,
    },
    Result(QueryId, Sic),
}

/// The nodes under replay: the engine's `NodeState` behind harness-owned
/// channels, or the simulator's `SimNode`.
enum Nodes {
    Engine {
        states: Vec<NodeState>,
        routing: ShardRouting,
        rx: Receiver<ShardMsg>,
        results_rx: Receiver<ResultEvent>,
        base: Instant,
    },
    Sim {
        nodes: Vec<SimNode>,
        routes: HashMap<(QueryId, usize), Route>,
    },
}

/// Node `n`'s enforced capacity in tuples per shedding interval, as the
/// engine derives it from the scenario's declared tuples per second.
fn capacity_per_interval(scenario: &Scenario, n: usize) -> usize {
    let interval_us = scenario.shedding_interval.as_micros();
    ((scenario.node_capacity_tps[n] as u64 * interval_us / 1_000_000) as usize).max(1)
}

/// First shedding deadline of node `n`, staggered like the shard's.
fn first_tick_us(n: usize, interval_us: u64) -> u64 {
    interval_us + interval_us * (n as u64 % 32) / 32
}

impl Nodes {
    fn new(workload: Workload, scenario: &Scenario, pool: &BatchPool) -> Self {
        let interval_us = scenario.shedding_interval.as_micros();
        if workload == Workload::SimPaper {
            let config = SimConfig::default();
            let nodes = (0..scenario.n_nodes)
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
            return Nodes::Sim {
                nodes,
                routes: HashMap::new(),
            };
        }
        let (tx, rx) = unbounded();
        let (results_tx, results_rx) = unbounded();
        let base = Instant::now();
        let enforce = workload.overload().is_some();
        let states = (0..scenario.n_nodes)
            .map(|n| {
                let fixed_capacity = enforce.then(|| capacity_per_interval(scenario, n));
                let config = NodeConfig {
                    id: NodeId(n as u32),
                    interval: scenario.shedding_interval,
                    stw: scenario.stw,
                    shedder: Policy::default().build(scenario.seed ^ (0xE0_0000 + n as u64)),
                    synthetic_cost: TimeDelta::ZERO,
                    initial_capacity: usize::MAX / 2,
                    fixed_capacity,
                    pool: Some(pool.clone()),
                };
                let first = base + Duration::from_micros(first_tick_us(n, interval_us));
                NodeState::new(config, n, first)
            })
            .collect();
        Nodes::Engine {
            states,
            routing: ShardRouting {
                node_txs: vec![tx; scenario.n_nodes],
                results_tx,
            },
            rx,
            results_rx,
            base,
        }
    }

    fn deploy(&mut self, query: &QuerySpec, fragment: usize, node: usize, route: Route) {
        match self {
            Nodes::Engine { states, .. } => states[node].attach_fragment(query, fragment, route),
            Nodes::Sim { nodes, routes } => {
                nodes[node].deploy(query, fragment);
                routes.insert((query.id, fragment), route);
            }
        }
    }

    fn enqueue(
        &mut self,
        node: usize,
        t: Timestamp,
        query: QueryId,
        fragment: usize,
        ingress: Ingress,
        batch: Batch,
    ) {
        match self {
            Nodes::Engine { states, .. } => states[node].enqueue(
                RoutedBatch {
                    query,
                    fragment,
                    ingress,
                    batch,
                },
                t,
            ),
            Nodes::Sim { nodes, .. } => nodes[node].on_arrival(
                t,
                themis_sim::prelude::RoutedBatch {
                    query,
                    fragment,
                    ingress,
                    batch,
                },
            ),
        }
    }

    /// Fires node `node`'s tick at virtual time `t` and collects what it
    /// routed onward.
    fn tick(&mut self, node: usize, t: Timestamp, out: &mut Vec<Routed>) {
        match self {
            Nodes::Engine {
                states,
                routing,
                rx,
                results_rx,
                base,
            } => {
                let virtual_now = Duration::from_micros(t.as_micros());
                // `tick` derives the fragments' logical clock from
                // `epoch.elapsed()`: hand it an epoch exactly `t` ago.
                let epoch = Instant::now()
                    .checked_sub(virtual_now)
                    .expect("host has been up longer than the replay's virtual time");
                states[node].tick(*base + virtual_now, epoch, routing);
                while let Ok(msg) = rx.try_recv() {
                    if let EngineMsg::Batch(rb) = msg.msg {
                        out.push(Routed::Downstream {
                            node: msg.node,
                            query: rb.query,
                            fragment: rb.fragment,
                            ingress: rb.ingress,
                            batch: rb.batch,
                        });
                    }
                }
                while let Ok(ev) = results_rx.try_recv() {
                    out.push(Routed::Result(ev.query, ev.sic));
                }
            }
            Nodes::Sim { nodes, routes } => {
                for output in nodes[node].tick(t) {
                    let NodeOutput::FragmentOutput {
                        query,
                        fragment,
                        at,
                        batch,
                    } = output;
                    out.push(match routes.get(&(query, fragment)).copied().flatten() {
                        Some((node, df)) => Routed::Downstream {
                            node,
                            query,
                            fragment: df,
                            ingress: Ingress::Upstream(fragment),
                            batch: Batch::from_data(query, at, batch),
                        },
                        None => Routed::Result(query, batch.sic_total()),
                    });
                }
            }
        }
    }

    fn apply_sic(&mut self, update: &SicUpdate) {
        match self {
            Nodes::Engine { states, .. } => states[update.node.index()].apply_sic(update),
            Nodes::Sim { nodes, .. } => nodes[update.node.index()].on_sic_update(update),
        }
    }

    /// `(arrived, shed)` tuples over all nodes.
    fn totals(&self) -> (u64, u64) {
        match self {
            Nodes::Engine { states, .. } => states.iter().fold((0, 0), |(a, s), n| {
                (a + n.report().arrived_tuples, s + n.report().shed_tuples)
            }),
            Nodes::Sim { nodes, .. } => nodes.iter().fold((0, 0), |(a, s), n| {
                (a + n.stats.arrived_tuples, s + n.stats.shed_tuples)
            }),
        }
    }
}

/// One source under replay.
struct Source {
    driver: SourceDriver,
    node: usize,
    fragment: usize,
}

/// A source batch kept for the probe pass.
struct ProbeRecord {
    at: Timestamp,
    node: usize,
    fragment: usize,
    batch: Batch,
}

/// Event kinds, in firing order within one virtual instant.
const EV_EMIT: u8 = 0;
const EV_TICK: u8 = 1;
const EV_COORDINATOR: u8 = 2;
const EV_CHECKPOINT: u8 = 3;

/// The durable side of a federated replay.
struct Durable {
    log: ShardLog,
    checkpoints: u64,
    bytes: u64,
}

impl Durable {
    fn checkpoint(&mut self, states: &mut [NodeState], tracer: &mut Tracer) {
        let root = tracer.begin(span::CHECKPOINT, u32::MAX);
        let s = tracer.begin(span::SNAPSHOT, u32::MAX);
        let snapshots: Vec<NodeSnapshot> = states.iter_mut().map(NodeState::checkpoint).collect();
        tracer.end(s, snapshots.len());
        let s = tracer.begin(span::WAL_CHECKPOINT, u32::MAX);
        self.log
            .checkpoint(&snapshots)
            .expect("checkpoint into the benchmark's own directory");
        tracer.end(s, snapshots.len());
        tracer.end(root, 1);
        self.checkpoints += 1;
        // Older checkpoints are pruned by the log: what is on disk now is
        // this one.
        self.bytes += std::fs::read_dir(self.log.dir())
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum::<u64>();
    }
}

/// Replays `workload` over `length` of virtual time. `wal_dir` is where a
/// durable workload logs (must be given for `federated-durable`).
pub fn replay(
    workload: Workload,
    seed: u64,
    quick: bool,
    length: Duration,
    wal_dir: Option<&Path>,
) -> Replay {
    let scenario = workload.scenario(seed, quick, length);
    let end_us = length.as_micros() as u64;
    let interval_us = scenario.shedding_interval.as_micros();
    let pool = BatchPool::new();
    let mut nodes = Nodes::new(workload, &scenario, &pool);
    let mut sources = Vec::new();
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
            let route = if fi == q.result_fragment {
                None
            } else {
                q.downstream_of(fi).map(|d| (node_of(d), d))
            };
            nodes.deploy(q, fi, node_of(fi), route);
            for b in &frag.sources {
                let spec = q
                    .sources
                    .iter()
                    .find(|s| s.id == b.source)
                    .expect("bound source declared");
                let mut driver = SourceDriver::new(
                    q.id,
                    spec,
                    scenario.profiles[&b.source],
                    scenario.seed ^ (b.source.0 as u64).wrapping_mul(0x9E37_79B9),
                );
                driver.set_pool(pool.clone());
                sources.push(Source {
                    driver,
                    node: node_of(fi),
                    fragment: fi,
                });
            }
        }
        coordinators.push(QueryCoordinator::new(
            q.id,
            scenario.deployment.hosts_of(q.id),
            scenario.shedding_interval,
        ));
    }

    let wal_dir = wal_dir.filter(|_| workload.federated());
    let mut durable = wal_dir.map(|dir| Durable {
        log: ShardLog::create(dir, 0).expect("open WAL in the benchmark's own directory"),
        checkpoints: 0,
        bytes: 0,
    });
    let mut events: BinaryHeap<Reverse<(u64, u8, u32)>> = BinaryHeap::new();
    for (i, s) in sources.iter().enumerate() {
        events.push(Reverse((
            s.driver.next_time().as_micros(),
            EV_EMIT,
            i as u32,
        )));
    }
    for n in 0..scenario.n_nodes {
        events.push(Reverse((first_tick_us(n, interval_us), EV_TICK, n as u32)));
    }
    events.push(Reverse((interval_us, EV_COORDINATOR, 0)));
    if durable.is_some() {
        let every = CHECKPOINT_EVERY.as_micros() as u64;
        events.push(Reverse((every, EV_CHECKPOINT, 0)));
    }

    // Nodes whose source batches the probe pass replays.
    let probe_nodes = scenario.n_nodes.div_ceil(8);
    let mut probe_records: Vec<ProbeRecord> = Vec::new();
    let mut reported: HashMap<QueryId, Sic> = HashMap::new();

    let mut tracer = Tracer::new();
    let mut tracker = ResultSicTracker::new(scenario.stw);
    let mut pending = vec![0usize; scenario.n_nodes];
    let mut routed = Vec::new();
    let mut updates = Vec::new();
    let mut frame = Vec::new();
    let mut decoder = Decoder::new();
    let (mut batches, mut wire_bytes) = (0u64, 0u64);
    let allocs0 = batch_allocs();

    while let Some(Reverse((at, kind, idx))) = events.pop() {
        if at > end_us {
            break;
        }
        let t = Timestamp(at);
        match kind {
            EV_EMIT => {
                let s = &mut sources[idx as usize];
                let id = batches as u32;
                let root = tracer.begin(span::INGEST, id);
                let open = tracer.begin(span::EMIT, id);
                let mut batch = s.driver.emit();
                tracer.end(open, batch.len());
                events.push(Reverse((s.driver.next_time().as_micros(), EV_EMIT, idx)));
                if batch.is_empty() {
                    tracer.end(root, 0);
                    continue;
                }
                batches += 1;
                let (query, source, tuples) = (s.driver.query, s.driver.source, batch.len());
                if workload.federated() {
                    let wire = NetMsg::Batch(WireBatch {
                        node: s.node as u32,
                        query,
                        fragment: s.fragment as u32,
                        source,
                        created: batch.created(),
                        batch: batch.into_data(),
                    });
                    frame.clear();
                    let open = tracer.begin(span::ENCODE, id);
                    encode_msg(&wire, &mut frame);
                    tracer.end(open, tuples);
                    wire_bytes += frame.len() as u64;
                    let open = tracer.begin(span::DECODE, id);
                    let decoded = decoder.next(&frame);
                    tracer.end(open, tuples);
                    let Ok(Some((NetMsg::Batch(wb), _))) = decoded else {
                        panic!("a frame this harness encoded must decode to a batch");
                    };
                    batch = Batch::from_source_data(wb.query, wb.source, wb.created, wb.batch);
                }
                if s.node < probe_nodes {
                    probe_records.push(ProbeRecord {
                        at: t,
                        node: s.node,
                        fragment: s.fragment,
                        batch: batch.clone(),
                    });
                }
                let ingress = Ingress::Source(source);
                if let Nodes::Engine { routing, rx, .. } = &nodes {
                    let open = tracer.begin(span::MAILBOX, id);
                    let _ = routing.node_txs[s.node].send(ShardMsg {
                        node: s.node,
                        msg: EngineMsg::Batch(RoutedBatch {
                            query,
                            fragment: s.fragment,
                            ingress,
                            batch,
                        }),
                    });
                    let received = rx.try_recv();
                    tracer.end(open, 1);
                    let Ok(ShardMsg {
                        msg: EngineMsg::Batch(rb),
                        ..
                    }) = received
                    else {
                        panic!("the harness's own channel returns what was just sent");
                    };
                    batch = rb.batch;
                }
                let open = tracer.begin(span::ENQUEUE, id);
                nodes.enqueue(s.node, t, query, s.fragment, ingress, batch);
                tracer.end(open, 1);
                pending[s.node] += tuples;
                tracer.end(root, tuples);
            }
            EV_TICK => {
                let n = idx as usize;
                let root = tracer.begin(span::TICK, u32::MAX);
                let name = match nodes {
                    Nodes::Engine { .. } => span::NODE_TICK,
                    Nodes::Sim { .. } => span::SIM_TICK,
                };
                let open = tracer.begin(name, u32::MAX);
                nodes.tick(n, t, &mut routed);
                tracer.end(open, std::mem::take(&mut pending[n]));
                let mut results = Vec::new();
                for r in routed.drain(..) {
                    match r {
                        Routed::Downstream {
                            node,
                            query,
                            fragment,
                            ingress,
                            batch,
                        } => {
                            pending[node] += batch.len();
                            let open = tracer.begin(span::ENQUEUE, u32::MAX);
                            nodes.enqueue(node, t, query, fragment, ingress, batch);
                            tracer.end(open, 1);
                        }
                        Routed::Result(query, sic) => results.push((query, sic)),
                    }
                }
                if !results.is_empty() {
                    let open = tracer.begin(span::RECORD, u32::MAX);
                    for &(query, sic) in &results {
                        tracker.record(t, query, sic);
                    }
                    tracer.end(open, results.len());
                }
                tracer.end(root, 1);
                events.push(Reverse((at + interval_us, EV_TICK, idx)));
            }
            EV_COORDINATOR => {
                let root = tracer.begin(span::COORDINATOR, u32::MAX);
                let open = tracer.begin(span::COORD_TICK, u32::MAX);
                for c in coordinators.iter_mut() {
                    let sic = tracker.query_sic(t, c.query());
                    c.on_result_sic(sic);
                    updates.extend(c.tick(t));
                }
                tracer.end(open, coordinators.len());
                if let Nodes::Engine { routing, rx, .. } = &nodes {
                    let open = tracer.begin(span::MAILBOX, u32::MAX);
                    for u in &updates {
                        let node = u.node.index();
                        let _ = routing.node_txs[node].send(ShardMsg {
                            node,
                            msg: EngineMsg::Sic(*u),
                        });
                        let _ = black_box(rx.try_recv());
                    }
                    tracer.end(open, updates.len());
                }
                let open = tracer.begin(span::APPLY_SIC, u32::MAX);
                for u in &updates {
                    nodes.apply_sic(u);
                }
                tracer.end(open, updates.len());
                if let Some(d) = &mut durable {
                    let open = tracer.begin(span::WAL_APPEND, u32::MAX);
                    for u in &updates {
                        d.log
                            .append(&SicDelta {
                                node: u.node.index(),
                                query: u.query,
                                sic: u.sic,
                            })
                            .expect("append to the benchmark's own WAL");
                    }
                    tracer.end(open, updates.len());
                }
                for u in updates.drain(..) {
                    if u.node.index() < probe_nodes {
                        reported.insert(u.query, u.sic);
                    }
                }
                tracer.end(root, 1);
                // The shard checkpoints early once any node's SIC drift
                // passes the divergence bound.
                if let (Some(d), Nodes::Engine { states, .. }) = (&mut durable, &mut nodes) {
                    if states.iter().any(|s| s.sic_drift() > SIC_DIVERGENCE_BOUND) {
                        d.checkpoint(states, &mut tracer);
                    }
                }
                events.push(Reverse((at + interval_us, EV_COORDINATOR, 0)));
            }
            _ => {
                if let (Some(d), Nodes::Engine { states, .. }) = (&mut durable, &mut nodes) {
                    d.checkpoint(states, &mut tracer);
                }
                let every = CHECKPOINT_EVERY.as_micros() as u64;
                events.push(Reverse((at + every, EV_CHECKPOINT, 0)));
            }
        }
    }
    let batch_allocs = batch_allocs() - allocs0;
    let (tuples, shed_tuples) = nodes.totals();

    let restore_ms = wal_dir.map_or(0.0, |dir| {
        let t = Instant::now();
        let restored = restore_shard(dir, 0).expect("restore the WAL just written");
        black_box(restored);
        t.elapsed().as_secs_f64() * 1e3
    });
    let probes = probe_pass(
        workload,
        &scenario,
        probe_nodes,
        probe_records,
        &reported,
        end_us,
    );
    Replay {
        tracer,
        batches,
        tuples,
        shed_tuples,
        batch_allocs,
        wire_bytes,
        checkpoints: durable.as_ref().map_or(0, |d| d.checkpoints),
        checkpoint_bytes: durable.as_ref().map_or(0, |d| d.bytes),
        restore_ms,
        probes,
    }
}

/// One probe node's shedder and the batches buffered since its last tick.
struct ProbeNode {
    shedder: Box<dyn Shedder>,
    capacity: Option<usize>,
    buffer: Vec<Batch>,
    fragments: Vec<usize>,
}

/// Replays the probe nodes' source batches through harness-owned
/// instances of the layers `NodeState::tick` hides: the SIC assigner, the
/// shedder, the fragment runtime, a window buffer and the sum kernel.
fn probe_pass(
    workload: Workload,
    scenario: &Scenario,
    probe_nodes: usize,
    records: Vec<ProbeRecord>,
    reported: &HashMap<QueryId, Sic>,
    end_us: u64,
) -> Probes {
    let mut probes = Probes::default();
    let interval_us = scenario.shedding_interval.as_micros();
    let enforce = workload.overload().is_some();
    let mut nodes: Vec<ProbeNode> = (0..probe_nodes)
        .map(|n| ProbeNode {
            shedder: Policy::default().build(scenario.seed ^ (0xE0_0000 + n as u64)),
            capacity: enforce.then(|| capacity_per_interval(scenario, n)),
            buffer: Vec::new(),
            fragments: Vec::new(),
        })
        .collect();
    let mut assigners: HashMap<QueryId, SourceSicAssigner> = HashMap::new();
    let mut runtimes: HashMap<(QueryId, usize), FragmentRuntime> = HashMap::new();
    let mut windows: HashMap<(QueryId, usize), WindowBuffer> = HashMap::new();
    for q in &scenario.queries {
        for (fi, frag) in q.fragments.iter().enumerate() {
            let hosted = scenario
                .deployment
                .node_of(q.id, fi)
                .is_some_and(|n| n.index() < probe_nodes);
            if !hosted || frag.sources.is_empty() {
                continue;
            }
            assigners
                .entry(q.id)
                .or_insert_with(|| SourceSicAssigner::new(scenario.stw, q.n_sources()));
            runtimes.insert((q.id, fi), FragmentRuntime::new(frag));
            let (window, grace) = frag.operators.iter().find(|o| o.window.is_timed()).map_or(
                (WindowSpec::tumbling(TimeDelta::from_secs(1)), DEFAULT_GRACE),
                |o| (o.window, o.grace),
            );
            windows.insert((q.id, fi), WindowBuffer::new(window, 1, grace));
        }
    }

    // The transport probe needs a live peer: a loopback listener that
    // discards what it decodes.
    let transport = workload.federated().then(|| {
        let server = IngestServer::bind("127.0.0.1:0", Arc::new(|_| {}))
            .expect("bind loopback listener for the transport probe");
        let sender = PeerSender::connect(
            &server.local_addr().to_string(),
            "replay-probe",
            &NetConfig::default(),
        )
        .expect("connect to the probe's own listener");
        (server, sender)
    });

    let mut records = records.into_iter().peekable();
    let mut boundary = interval_us;
    while boundary <= end_us {
        let now = Timestamp(boundary);
        while let Some(mut r) = records.next_if(|r| r.at.as_micros() <= boundary) {
            if let Some((_, sender)) = &transport {
                let wb = WireBatch {
                    node: r.node as u32,
                    query: r.batch.query(),
                    fragment: r.fragment as u32,
                    source: r.batch.source().expect("probe records are source batches"),
                    created: r.batch.created(),
                    batch: r.batch.data().clone(),
                };
                let t = Instant::now();
                sender.send_batch(&wb);
                probes.send.add(t, 1);
            }
            if let Some(a) = assigners.get_mut(&r.batch.query()) {
                let t = Instant::now();
                a.stamp(r.at, &mut r.batch);
                probes.stamp.add(t, 1);
            }
            let node = &mut nodes[r.node];
            node.buffer.push(r.batch);
            node.fragments.push(r.fragment);
        }
        for node in &mut nodes {
            let buffered: usize = node.buffer.iter().map(Batch::len).sum();
            let shed = match node.capacity {
                Some(c) if buffered > c => {
                    let t = Instant::now();
                    let states = build_buffer_states(&node.buffer, |q| {
                        reported.get(&q).copied().unwrap_or(Sic::ZERO)
                    });
                    let decision = node.shedder.select_to_keep(c, &states);
                    probes.select.add(t, node.buffer.len());
                    decision.shed_bitmap(node.buffer.len())
                }
                _ => DropBitmap::new(),
            };
            let kept = node
                .buffer
                .drain(..)
                .zip(node.fragments.drain(..))
                .enumerate()
                .filter(|(i, _)| !shed.is_dropped(*i));
            for (_, (batch, fragment)) in kept {
                let key = (batch.query(), fragment);
                let ingress = Ingress::Source(batch.source().expect("source batch"));
                let data = batch.into_data();
                let copy = data.clone();
                let tuples = data.len();
                if let Some(rt) = runtimes.get_mut(&key) {
                    let t = Instant::now();
                    black_box(rt.ingest(ingress, data, now));
                    probes.ingest.add(t, tuples);
                }
                if let Some(w) = windows.get_mut(&key) {
                    let t = Instant::now();
                    w.push(0, copy, now);
                    probes.window_push.add(t, tuples);
                }
            }
        }
        for w in windows.values_mut() {
            let t = Instant::now();
            let panes = w.close_up_to(now);
            probes.pane_close.add(t, panes.len());
            for input in panes.iter().flat_map(|p| &p.inputs) {
                let Some(col) = (0..input.width()).rev().find_map(|f| input.f64_column(f)) else {
                    continue;
                };
                let t = Instant::now();
                black_box(sum_count_f64(black_box(col), input.drops()));
                probes.kernel.add(t, col.len());
            }
        }
        boundary += interval_us;
    }
    if let Some((server, sender)) = transport {
        let _ = sender.close();
        server.shutdown();
    }
    probes
}
