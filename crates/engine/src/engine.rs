//! The multi-threaded THEMIS prototype: a bounded pool of shard threads
//! hosting all FSPS nodes and the sources that feed them, and one control
//! loop that disseminates result SIC values.
//!
//! Where the simulator models time, the engine *is* real: ticks fire on the
//! wall clock, the cost model measures actual processing time, and the
//! shedder's execution time is measured per invocation (the §7.6 overhead
//! numbers come from here and from `themis-benchmark`'s per-layer metrics).
//!
//! The engine is a long-lived [`Engine`] value with **runtime query
//! churn**: [`Engine::attach_query`] places a new query's fragments onto
//! the least-loaded nodes and installs them on the running shards (an
//! [`EngineMsg::Attach`] per fragment, carrying how the fragment's
//! sources emit, for the hosting shard's pump), and [`Engine::detach_query`]
//! reverses it — the shards stop the sources and purge their buffers, and
//! nodes left hosting nothing are torn down so their shedding deadlines
//! never fire again. An attach carries nothing of its node: each shard
//! builds the nodes it installs (interval, STW, capacity, pool and one
//! shedder per node) from the node recipe [`Engine::start`] hands it at
//! spawn. [`run_engine`] is the one-shot wrapper: start, run for
//! `warmup + duration`, finish.
//!
//! [`Engine::start`] spawns `shards` OS threads regardless of node count;
//! the control loop runs on the calling thread inside [`Engine::run_for`],
//! so 1000+-node scenarios fit one process. The `scale` experiment budgets
//! `shards + 2` for the whole process: pool + main + its own thread-count
//! sampler. Each shard paces its own sources ([`crate::shard`]): a source
//! batch is emitted, stamped, shed or windowed and recycled on its shard's
//! thread, and crosses no channel. `run_for` opens every shard's run
//! window ([`EngineMsg::Run`]), so sources emit only inside `run_for`, and
//! it is the wall-clock driver of the clock-free [`Coordinator`] the
//! simulator also steps, so `updateSIC` rounds and SIC samples run
//! identically on both clocks. A pass runs a due coordinator round and
//! sample and sends each shard at most one [`EngineMsg::Bundle`] of SIC
//! updates; it then waits for results until the next round, sample or
//! the deadline. Results arrive one message per shard service pass,
//! carrying every result that pass emitted and the nodes whose shedder
//! first ran in it; only those nodes get the coordinator's SIC updates.
//! [`EngineReport::control_wakeups`], [`EngineReport::pump_sweeps`],
//! [`EngineReport::mailbox_messages`] and [`EngineReport::result_messages`]
//! count the resulting wake-ups.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use themis_net::listener::{IngestEvent, IngestServer};

use themis_core::prelude::*;
use themis_query::prelude::{NodeReport, QuerySpec, RoutedBatch, Template, ValidatedQuery};
use themis_workloads::prelude::*;

use crate::messages::{AttachFragment, Bundle, EngineMsg, FragmentSources, PassResults, ShardMsg};
use crate::node_state::NodeConfig;
use crate::shard::{run_shard, shard_of, ShardDurability, ShardOutcome};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Shedding policy — a handle from the workspace-wide
    /// `ShedderRegistry` shared with the simulator, so every registered
    /// policy (builtin or external) also runs on real threads. Names
    /// resolve through [`themis_core::shedder::lookup_policy`].
    pub policy: Policy,
    /// Artificial per-tuple processing cost, so modest source rates create
    /// genuine overload (`ZERO` disables; nodes are then extremely fast).
    pub synthetic_cost: TimeDelta,
    /// Size of the shard pool hosting the node states. `None` (the
    /// default) uses the machine's available parallelism; the pool is
    /// never larger than the scenario's node count.
    pub shards: Option<usize>,
    /// Pin each node's shedding threshold to the scenario's declared
    /// `node_capacity_tps` (converted to tuples per interval) instead of
    /// the online cost-model estimate. This is the simulator's capacity
    /// semantics on real threads: overload — and therefore shedding —
    /// happens at declared rates without burning wall time in the
    /// synthetic-cost spin, which is what lets churn/fairness experiments
    /// run genuinely overloaded 512+-node scenarios on a small machine.
    pub enforce_capacity: bool,
    /// Record the coordinator's per-query SIC samples (one per shedding
    /// interval after warm-up) into [`EngineReport::sic_series`] — the
    /// engine analogue of the simulator's `record_series`.
    pub record_series: bool,
    /// Checkpoint cadence of the durability layer: each shard writes a
    /// checkpoint of every hosted node (SIC table plus open window panes)
    /// at this period, then truncates its WAL tail. `None` (the default)
    /// disables durability entirely — no directory is touched. Takes
    /// effect only together with [`EngineConfig::durability_dir`].
    pub checkpoint_every: Option<Duration>,
    /// Root directory of the write-ahead log: each shard owns a
    /// `shard-<i>/` namespace underneath holding its checkpoints and WAL
    /// tail. Required for [`EngineConfig::checkpoint_every`] to take
    /// effect.
    pub durability_dir: Option<PathBuf>,
    /// AF-Stream-style divergence bound: a shard checkpoints *early* as
    /// soon as a SIC update leaves some query's SIC more than this far
    /// from its value at the shard's last checkpoint, so no checkpointed
    /// SIC stays further than the bound from its live value — however
    /// many queries a node hosts. SIC lies in `[0, 1]`, so a bound of
    /// `1.0` or more never fires. `0.0` (the default) disables the early
    /// trigger; the periodic cadence still applies.
    pub sic_divergence_bound: f64,
    /// Bind address of the TCP ingest listener (e.g. `127.0.0.1:0` for
    /// an ephemeral port — read the real one back with
    /// [`Engine::ingest_addr`]). `None` (the default) opens no socket.
    /// With a listener bound, remote source processes feed the engine
    /// wire batches that enter the exact same shard channels the
    /// in-process pump uses.
    pub ingest_listen: Option<String>,
    /// Run without the in-process source pump: installed queries attach
    /// their fragments as usual but no local source drivers are
    /// registered — every batch is expected over the ingest listener.
    /// The federated experiments set this in the engine process.
    pub remote_sources: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: Policy::default(),
            synthetic_cost: TimeDelta::ZERO,
            shards: None,
            enforce_capacity: false,
            record_series: false,
            checkpoint_every: None,
            durability_dir: None,
            sic_divergence_bound: 0.0,
            ingest_listen: None,
            remote_sources: false,
        }
    }
}

/// A non-fatal engine failure surfaced in [`EngineReport::errors`]: a
/// shard worker thread lost to a panic, an ingest connection from a
/// remote source process that failed mid-run, or a shard's write-ahead
/// log failing. Either way the engine keeps serving what survives — an
/// error degrades the run, it does not poison it.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A shard worker thread died to a panic.
    Shard {
        /// The shard whose worker thread failed.
        shard: usize,
        /// The shedding policy the engine was running.
        policy: String,
        /// What happened (the panic payload, when it was a string).
        detail: String,
    },
    /// An ingest connection failed: socket drop without a bye (the peer
    /// process died), corrupt bytes on the wire, or a protocol
    /// violation.
    Ingest {
        /// The peer, by its handshake name or socket address.
        peer: String,
        /// What went wrong, actionable.
        detail: String,
    },
    /// A shard's durability log failed; the shard kept serving traffic
    /// without it. Only the first failure of each operation is recorded.
    Durability {
        /// The shard whose log failed.
        shard: usize,
        /// The failed operation: `open`, `checkpoint`, `append` or
        /// `restore`.
        op: &'static str,
        /// The underlying WAL error.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Shard {
                shard,
                policy,
                detail,
            } => write!(f, "shard {shard} failed under policy {policy}: {detail}"),
            EngineError::Ingest { peer, detail } => {
                write!(f, "ingest connection from {peer} failed: {detail}")
            }
            EngineError::Durability { shard, op, detail } => {
                write!(f, "shard {shard} durability {op} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// What the ingest listener's handler accumulates for the final report:
/// remote peers' bye accounting plus every connection failure.
#[derive(Default)]
struct IngestStats {
    remote_sent_batches: u64,
    remote_shed_batches: u64,
    /// `(peer, detail)` per failed connection, plus the first misrouted
    /// batch per peer.
    errors: Vec<(String, String)>,
    /// Peers already reported for a batch routed to an unknown node: the
    /// connection keeps going, so only its first such batch is recorded.
    misrouted: HashSet<Arc<str>>,
}

/// The default shard-pool size: the machine's available parallelism.
pub fn default_shards() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Output of an engine run.
#[derive(Debug)]
pub struct EngineReport {
    /// Per-node counters (index = global node; nodes that never hosted a
    /// fragment report zeros).
    pub nodes: Vec<NodeReport>,
    /// Mean sampled result SIC per query (over the query's active,
    /// settled life).
    pub per_query_sic: Vec<(QueryId, f64)>,
    /// Fairness over the per-query SIC values.
    pub fairness: FairnessSummary,
    /// Result emissions observed per query.
    pub result_counts: HashMap<QueryId, usize>,
    /// Coordinator SIC updates sent: Σ over rounds of the hosts that had
    /// shed by then (0 when no node ever shed).
    pub coordinator_messages: u64,
    /// Counted coordinator samples whose raw result SIC exceeded 1 before
    /// the clamp ([`CoordinatorReport::sic_overshoot`]).
    pub sic_overshoot: u64,
    /// Shedding policy used.
    pub policy: String,
    /// Shard threads the node states ran on.
    pub shards: usize,
    /// Per-query SIC time series (empty unless
    /// [`EngineConfig::record_series`]): `(logical time, SIC)` at every
    /// coordinator sample while the query is attached, half an interval
    /// off the rounds.
    pub sic_series: HashMap<QueryId, Vec<(Timestamp, f64)>>,
    /// Non-fatal failures observed during the run: shard threads lost to
    /// panics and failed ingest connections. Empty on a clean run. The
    /// report's node counters still cover every surviving shard — a lost
    /// shard (or source process) degrades the run, it does not poison it.
    pub errors: Vec<EngineError>,
    /// Batches decoded from remote source processes by the ingest
    /// listener (zero without [`EngineConfig::ingest_listen`]).
    pub remote_batches: u64,
    /// Batches remote peers reported *writing* in their byes — what the
    /// sources actually put on the wire.
    pub remote_sent_batches: u64,
    /// Batches remote peers reported shedding oldest-first from their
    /// full send queues — the link-level loss the transport chose over
    /// blocking the source pump.
    pub remote_shed_batches: u64,
    /// Durable checkpoints cut and written, summed over shards (zero
    /// without durability, or when the log cannot be written).
    pub checkpoints: u64,
    /// Of [`EngineReport::checkpoints`], those cut early by
    /// [`EngineConfig::sic_divergence_bound`] rather than on cadence.
    pub early_checkpoints: u64,
    /// Passes of the control loop inside [`Engine::run_for`]: one per
    /// wake-up, for a due coordinator round or sample, a results message
    /// or the deadline. Sources do not wake it.
    pub control_wakeups: u64,
    /// Sweeps of the in-process sources, summed over shards: each shard
    /// steps its own pump at most once per 1 ms beat, inside a run window.
    pub pump_sweeps: u64,
    /// Messages the shard threads took off their channels, summed over
    /// shards. A bundle counts once: a control-loop pass's batches and SIC
    /// updates, or the batches one shard service pass routed between
    /// fragments to the receiving shard. A batch received over the ingest
    /// listener and a control message count once each.
    pub mailbox_messages: u64,
    /// Result messages the control loop received (one per shard service
    /// pass that emitted results or in which a node first shed, however
    /// many results it carries), including
    /// those [`Engine::finish`] drains after the shards stopped.
    pub result_messages: u64,
}

impl EngineReport {
    /// Mean shedder execution time per invocation across nodes (µs).
    pub fn mean_shed_time_us(&self) -> f64 {
        self.nodes.iter().sum::<NodeReport>().mean_shed_time_us()
    }

    /// Fraction of arrived tuples shed.
    pub fn shed_fraction(&self) -> f64 {
        self.nodes.iter().sum::<NodeReport>().shed_fraction()
    }
}

/// A live THEMIS engine: shard pool running (each shard pacing its own
/// sources), coordinator driven by [`Engine::run_for`] on the calling
/// thread, queries arriving and departing at runtime.
///
/// ```no_run
/// use std::time::Duration;
/// use themis_engine::prelude::*;
/// use themis_query::prelude::Template;
/// use themis_workloads::prelude::*;
///
/// let scenario = ScenarioBuilder::new("churn", 1)
///     .nodes(4)
///     .add_queries(Template::Avg, 4, SourceProfile::emulab(Dataset::Uniform))
///     .build()
///     .unwrap();
/// let mut engine = Engine::start(&scenario, EngineConfig::default());
/// engine.run_for(Duration::from_secs(1));
/// let id = engine.attach_query(Template::Avg, SourceProfile::emulab(Dataset::Uniform));
/// engine.run_for(Duration::from_secs(1));
/// engine.detach_query(id);
/// engine.run_for(Duration::from_secs(1));
/// let report = engine.finish();
/// assert!(report.result_counts.len() >= 4);
/// ```
pub struct Engine {
    config: EngineConfig,
    epoch: Instant,
    epoch_sys: std::time::SystemTime,
    n_shards: usize,
    n_nodes: usize,
    seed: u64,
    /// One channel per shard; a message for node `n` goes on
    /// `shard_txs[shard_of(n, n_shards)]`.
    shard_txs: Vec<Sender<ShardMsg>>,
    /// One message per shard service pass that emitted results or in
    /// which a node first shed.
    results_rx: Receiver<PassResults>,
    /// Kept so `run_for`'s wait on `results_rx` still blocks once every
    /// shard thread has died.
    _results_tx: Sender<PassResults>,
    /// Messages received on `results_rx` ([`EngineReport::result_messages`]).
    result_messages: u64,
    shard_handles: Vec<JoinHandle<ShardOutcome>>,
    /// Passes of `run_for`'s loop so far ([`EngineReport::control_wakeups`]).
    control_wakeups: u64,
    /// The coordinator, stepped by `run_for` on the calling thread.
    coordinator: Coordinator,
    /// Attached queries: the spec (kept so [`Engine::restart_shard`] can
    /// rebuild and re-attach the dead shard's fragments) and the node of
    /// each fragment.
    attached: HashMap<QueryId, (Arc<QuerySpec>, Vec<usize>)>,
    node_load: Vec<usize>,
    query_ids: IdGen,
    source_ids: IdGen,
    /// Engine-wide batch pool: the shards' pumps acquire emission batches
    /// from it, nodes recycle spent columns back (windows, shed batches).
    pool: BatchPool,
    /// The TCP ingest listener plus its accounting, when
    /// [`EngineConfig::ingest_listen`] bound one.
    ingest: Option<(IngestServer, Arc<Mutex<IngestStats>>)>,
}

impl Engine {
    /// Spawns the shard pool and installs the scenario's queries (every
    /// deployment takes the same attach path runtime churn uses). Their
    /// sources emit only inside [`Engine::run_for`]: a shard sweeps its
    /// sources only inside the run window each `run_for` opens. Scenario
    /// `lifetimes` are ignored here — drive arrivals and departures
    /// explicitly with [`Engine::attach_query`] / [`Engine::detach_query`]
    /// between [`Engine::run_for`] slices.
    pub fn start(scenario: &Scenario, config: EngineConfig) -> Engine {
        let epoch = Instant::now();
        let epoch_sys = std::time::SystemTime::now();
        let n_shards = config
            .shards
            .unwrap_or_else(default_shards)
            .clamp(1, scenario.n_nodes.max(1));

        // Channels: one per shard, which owns the nodes `shard_of` maps to it.
        let mut shard_txs: Vec<Sender<ShardMsg>> = Vec::with_capacity(n_shards);
        let mut shard_rxs = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (tx, rx) = unbounded();
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        let (results_tx, results_rx) = unbounded::<PassResults>();

        let pool = BatchPool::new();
        let recipe = node_recipe(scenario, &config, &pool);
        // Threads carry names so `/proc/self/task/*/stat` sampling (the
        // benchmark's thread sampler) can attribute CPU per role.
        let mut shard_handles = Vec::new();
        for (i, rx) in shard_rxs.into_iter().enumerate() {
            let (txs, results_tx, pool) = (shard_txs.clone(), results_tx.clone(), pool.clone());
            let recipe = recipe.clone();
            let durability = match (config.checkpoint_every, &config.durability_dir) {
                (Some(every), Some(dir)) => Some(ShardDurability {
                    dir: dir.clone(),
                    shard: i,
                    every,
                    sic_bound: config.sic_divergence_bound,
                }),
                _ => None,
            };
            let handle = thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || run_shard(txs, results_tx, rx, epoch, durability, pool, recipe))
                .expect("spawn shard thread");
            shard_handles.push(handle);
        }

        // Ingest listener: remote source processes feed the shards' nodes
        // through their channels — a wire batch and a batch of a shard's
        // own pump are indistinguishable once enqueued.
        let ingest = config.ingest_listen.as_ref().map(|listen| {
            let stats = Arc::new(Mutex::new(IngestStats::default()));
            let (txs, n_nodes) = (shard_txs.clone(), scenario.n_nodes);
            let handler_stats = stats.clone();
            let server = IngestServer::bind(
                listen,
                Arc::new(move |ev| match ev {
                    IngestEvent::Batch { peer, batch: wb } => {
                        let node = wb.node as usize;
                        if node >= n_nodes {
                            let mut s = handler_stats
                                .lock()
                                .expect("ingest stats lock poisoned by a panicked handler");
                            if s.misrouted.insert(peer.clone()) {
                                let detail = format!(
                                    "batch from {} routed to unknown node {node} (engine hosts {n_nodes})",
                                    wb.source
                                );
                                s.errors.push((peer.to_string(), detail));
                            }
                            return;
                        }
                        let batch =
                            Batch::from_source_data(wb.query, wb.source, wb.created, wb.batch);
                        let _ = txs[shard_of(node, txs.len())].send(ShardMsg {
                            node,
                            msg: EngineMsg::Batch(RoutedBatch {
                                query: wb.query,
                                fragment: wb.fragment as usize,
                                ingress: themis_query::prelude::Ingress::Source(wb.source),
                                batch,
                            }),
                        });
                    }
                    IngestEvent::Closed {
                        sent_batches,
                        shed_batches,
                        ..
                    } => {
                        let mut s = handler_stats.lock().unwrap();
                        s.remote_sent_batches += sent_batches;
                        s.remote_shed_batches += shed_batches;
                    }
                    IngestEvent::Error { peer, detail } => {
                        handler_stats.lock().unwrap().errors.push((peer, detail));
                    }
                }),
            )
            .unwrap_or_else(|e| panic!("bind ingest listener on {listen}: {e}"));
            (server, stats)
        });

        let max_query = scenario
            .queries
            .iter()
            .map(|q| q.id.0 + 1)
            .max()
            .unwrap_or(0);
        let max_source = scenario
            .queries
            .iter()
            .flat_map(|q| q.sources.iter().map(|s| s.id.0 + 1))
            .max()
            .unwrap_or(0);
        // The coordinator samples once per shedding interval.
        let interval = scenario.shedding_interval;
        let coordinator = Coordinator::new(scenario.stw, interval, interval, scenario.warmup)
            .with_series(config.record_series);
        let mut engine = Engine {
            config,
            epoch,
            epoch_sys,
            n_shards,
            n_nodes: scenario.n_nodes,
            seed: scenario.seed,
            shard_txs,
            results_rx,
            _results_tx: results_tx,
            result_messages: 0,
            shard_handles,
            control_wakeups: 0,
            coordinator,
            attached: HashMap::new(),
            node_load: vec![0; scenario.n_nodes],
            query_ids: IdGen::starting_at(max_query),
            source_ids: IdGen::starting_at(max_source),
            pool,
            ingest,
        };

        // Install the scenario's queries at their validated placement.
        for q in &scenario.queries {
            let profile_of = |s: SourceId| scenario.profiles[&s];
            engine.install(Arc::new(q.clone()), scenario.nodes_of(q), profile_of);
        }
        engine
    }

    /// The logical clock: microseconds since the engine epoch.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.epoch.elapsed().as_micros() as u64)
    }

    /// The engine epoch as a wall-clock instant (microseconds since the
    /// Unix epoch). Remote source pumps anchor their emission timeline
    /// to this value so their schedules share the engine's slide-aligned
    /// clock — the STW rate estimators that stamp per-tuple SIC are
    /// sensitive to arrival phase relative to slide boundaries, so a
    /// federation that started its timeline even tens of milliseconds
    /// off the engine epoch would bias every SIC estimate.
    pub fn epoch_unix_us(&self) -> u64 {
        self.epoch_sys
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    /// The bound address of the ingest listener (real port even when
    /// configured with port 0), or `None` without one.
    pub fn ingest_addr(&self) -> Option<std::net::SocketAddr> {
        self.ingest.as_ref().map(|(server, _)| server.local_addr())
    }

    /// Queries currently attached.
    pub fn active_queries(&self) -> usize {
        self.attached.len()
    }

    /// Shard threads in the pool.
    pub fn shards(&self) -> usize {
        self.n_shards
    }

    /// The engine-wide batch pool (its [`BatchPool::stats`] show how much
    /// of the batch traffic recycled instead of allocating).
    pub fn batch_pool(&self) -> &BatchPool {
        &self.pool
    }

    /// Sends `msg` to `node` on its shard's channel. A closed channel
    /// means shutdown is racing; dropping the message is equivalent to
    /// shedding what it carries.
    fn send(&self, node: usize, msg: EngineMsg) {
        let _ = self.shard_txs[shard_of(node, self.n_shards)].send(ShardMsg { node, msg });
    }

    /// Sends a shard-wide `msg` (its envelope's node is ignored) to
    /// `shard`, as [`Engine::send`] does.
    fn to_shard(&self, shard: usize, msg: EngineMsg) {
        let _ = self.shard_txs[shard].send(ShardMsg { node: 0, msg });
    }

    /// Sends fragment `fi` of `query` (fragments placed on `nodes`) to
    /// its node with the `sources` its shard starts driving — on first
    /// install, and again (without sources) on a shard restart. The
    /// attach carries only the fragment: a shard builds a node it has not
    /// installed from its own recipe.
    fn attach_fragment(
        &self,
        query: &Arc<QuerySpec>,
        nodes: &[usize],
        fi: usize,
        sources: Option<FragmentSources>,
    ) {
        let attach = AttachFragment {
            query: query.clone(),
            fragment: fi,
            downstream: query.downstream_route(fi, nodes),
            sources,
        };
        self.send(nodes[fi], EngineMsg::Attach(attach));
    }

    /// Installs `query` with fragment `fi` on `nodes[fi]`, each fragment
    /// with its sources (each emitting with `profile_of(source)`) for its
    /// shard's pump, and attaches it to the coordinator, arriving now.
    /// With remote sources the drivers live in other processes: the
    /// fragments attach without any.
    ///
    /// # Panics
    ///
    /// Panics when two sources of one fragment have different profiles:
    /// a shard drives a fragment's sources with one profile, as every
    /// query a `ScenarioBuilder` or [`Engine::attach_query`] builds has.
    fn install(
        &mut self,
        query: Arc<QuerySpec>,
        nodes: Vec<usize>,
        profile_of: impl Fn(SourceId) -> SourceProfile,
    ) {
        let arrival = self.now();
        for (fi, &node) in nodes.iter().enumerate() {
            let mut profiles = query.fragments[fi]
                .sources
                .iter()
                .map(|b| profile_of(b.source));
            let sources = profiles.next().filter(|_| !self.config.remote_sources);
            let sources = sources.map(|profile| {
                assert!(
                    profiles.all(|p| p == profile),
                    "query {} fragment {fi}: its sources have different profiles",
                    query.id
                );
                FragmentSources {
                    profile,
                    seed: self.seed,
                    arrival,
                }
            });
            self.attach_fragment(&query, &nodes, fi, sources);
            self.node_load[node] += 1;
        }
        let hosts = nodes.iter().map(|&n| NodeId(n as u32)).collect();
        self.coordinator.attach(query.id, hosts, arrival, None);
        self.attached.insert(query.id, (query, nodes));
    }

    /// Attaches a fresh query built from `template` at runtime: fragments
    /// go to the least-loaded distinct nodes, all of its sources emit
    /// with `profile` from the next [`Engine::run_for`] on. Returns the
    /// new query's id. Its SIC samples start one STW after arrival (the
    /// settle period), and not before warm-up ends, as in the simulator.
    ///
    /// # Panics
    ///
    /// Panics when the template needs more fragments than the engine has
    /// nodes (fragments of one query must land on distinct nodes).
    pub fn attach_query(&mut self, template: Template, profile: SourceProfile) -> QueryId {
        let id: QueryId = self.query_ids.next();
        let query = template.build(id, &mut self.source_ids);
        self.attach_built(query, profile)
    }

    /// Attaches a compiled declarative query at runtime (the spec-layer
    /// analogue of [`Engine::attach_query`]): the [`ValidatedQuery`] is
    /// compiled against this engine's id generators, its fragments go to
    /// the least-loaded distinct nodes, and all of its sources emit with
    /// `profile`.
    ///
    /// # Panics
    ///
    /// Panics when the query needs more fragments than the engine has
    /// nodes (fragments of one query must land on distinct nodes).
    pub fn attach_spec(&mut self, spec: &ValidatedQuery, profile: SourceProfile) -> QueryId {
        let id: QueryId = self.query_ids.next();
        let query = spec.compile(id, &mut self.source_ids);
        self.attach_built(query, profile)
    }

    /// Shared attach path: places an already-built query graph onto the
    /// least-loaded distinct nodes and installs it.
    fn attach_built(&mut self, query: QuerySpec, profile: SourceProfile) -> QueryId {
        let id = query.id;
        assert!(
            query.n_fragments() <= self.n_nodes,
            "query needs {} distinct nodes, engine has {}",
            query.n_fragments(),
            self.n_nodes
        );
        let mut order: Vec<usize> = (0..self.n_nodes).collect();
        order.sort_by_key(|&n| (self.node_load[n], n));
        let nodes: Vec<usize> = order[..query.n_fragments()].to_vec();
        self.install(Arc::new(query), nodes, |_| profile);
        id
    }

    /// Attaches `count` queries from `template` (see
    /// [`Engine::attach_query`]).
    pub fn attach_queries(
        &mut self,
        template: Template,
        count: usize,
        profile: SourceProfile,
    ) -> Vec<QueryId> {
        (0..count)
            .map(|_| self.attach_query(template, profile))
            .collect()
    }

    /// Detaches `query` at runtime: its coordinator stops disseminating
    /// at once, and each hosting shard, when it takes the detach (after
    /// everything sent to it before), stops the query's sources (no batch
    /// of it is emitted after that), purges its fragments and buffered
    /// batches, and tears down nodes left empty (their shedding deadlines
    /// are abandoned). Samples collected so far are kept for the final
    /// report. Returns `false` when the query is not attached.
    pub fn detach_query(&mut self, query: QueryId) -> bool {
        let Some((_, nodes)) = self.attached.remove(&query) else {
            return false;
        };
        for node in nodes {
            self.send(node, EngineMsg::Detach { query });
            self.node_load[node] = self.node_load[node].saturating_sub(1);
        }
        self.coordinator.detach(query, self.now());
        true
    }

    /// Kills shard `shard` (clamped to the pool): it drops every node
    /// state it hosts and stops logging until [`Engine::restart_shard`].
    /// Fault injection for the crash/restore path under live load; drive
    /// the kill and the restart between [`Engine::run_for`] slices.
    pub fn kill_shard(&self, shard: usize) {
        self.to_shard(shard.min(self.n_shards - 1), EngineMsg::Crash);
    }

    /// Restarts a shard killed by [`Engine::kill_shard`] (clamped to the
    /// pool): re-attaches every fragment placed on its nodes (the same
    /// attach path `install` took, but without sources: the shard's pump
    /// drove them through the crash; the shard rebuilds each node, fresh
    /// shedder included, from its recipe), then sends
    /// [`EngineMsg::Recover`] so the shard overlays its latest checkpoint
    /// and replays its WAL tail. Without a configured
    /// durability directory the shard restarts cold.
    pub fn restart_shard(&self, shard: usize) {
        let shard = shard.min(self.n_shards - 1);
        for (query, nodes) in self.attached.values() {
            for (fi, &node) in nodes.iter().enumerate() {
                if shard_of(node, self.n_shards) == shard {
                    self.attach_fragment(query, nodes, fi, None);
                }
            }
        }
        if let Some(dir) = self.config.durability_dir.clone() {
            self.to_shard(shard, EngineMsg::Recover { dir, shard });
        }
    }

    /// Replays the durable log under `dir` into every shard: each
    /// overlays its latest checkpoint and replays its WAL tail,
    /// tolerating a torn final record (the crash may have interrupted an
    /// append). Fragments must already be attached — on a fresh engine,
    /// [`Engine::start`] has installed the scenario's queries before this
    /// is called, so the restored panes and SIC tables land in live
    /// runtimes.
    pub fn restore_from(&mut self, dir: &Path) {
        for shard in 0..self.n_shards {
            let dir = dir.to_path_buf();
            self.to_shard(shard, EngineMsg::Recover { dir, shard });
        }
    }

    /// Stops the coordinator's SIC sampling for the rest of the engine's
    /// life; rounds, shards and ingest keep running. A federated bench
    /// calls this before its drain tail — the wall-clock slack it grants
    /// remote pumps to finish and say bye — so the windowed SIC decay of
    /// an intentionally idle wire does not dilute the measured mean.
    pub fn pause_sampling(&mut self) {
        self.coordinator.stop_sampling();
    }

    /// Runs the engine for `wall` time: opens every shard's run window
    /// until the deadline, so the shards sweep their sources meanwhile,
    /// and runs the control loop on the calling thread. Sources and the
    /// coordinator advance only in here. Each pass runs the coordinator's
    /// `updateSIC` round when one is due, sending each shard at most one
    /// bundle of its updates, and its SIC sample when one is due (the
    /// coordinator keeps the schedules), then records result messages as
    /// they arrive until the next round, sample or the deadline.
    pub fn run_for(&mut self, wall: Duration) {
        let deadline = Instant::now() + wall;
        for shard in 0..self.n_shards {
            self.to_shard(shard, EngineMsg::Run { until: deadline });
        }
        while Instant::now() < deadline {
            self.control_wakeups += 1;
            let now = self.now();
            if now >= self.coordinator.next_round() {
                let mut bundles: Vec<Bundle> =
                    self.shard_txs.iter().map(|_| Bundle::default()).collect();
                self.coordinator.round(now, |update| {
                    bundles[shard_of(update.node.index(), self.n_shards)]
                        .sic
                        .push(update);
                });
                for (shard, bundle) in bundles.into_iter().enumerate() {
                    if !bundle.is_empty() {
                        self.to_shard(shard, EngineMsg::Bundle(bundle));
                    }
                }
            }
            if self.coordinator.next_sample().is_some_and(|at| now >= at) {
                self.coordinator.sample(now);
            }
            let round = self.coordinator.next_round();
            let due = self
                .coordinator
                .next_sample()
                .map_or(round, |at| at.min(round));
            let wake = deadline.min(self.instant(due));
            if let Ok(results) = self
                .results_rx
                .recv_timeout(wake.saturating_duration_since(Instant::now()))
            {
                self.record(results);
                while let Ok(results) = self.results_rx.try_recv() {
                    self.record(results);
                }
            }
        }
    }

    /// Records one results message, every event at its receipt, and
    /// marks the nodes that first shed in it for the coordinator's rounds.
    fn record(&mut self, results: PassResults) {
        self.result_messages += 1;
        let now = self.now();
        for node in results.first_shed {
            self.coordinator.overloaded(NodeId(node as u32));
        }
        for ev in results.events {
            self.coordinator.record(now, ev.query, ev.sic);
        }
    }

    /// The wall-clock instant of logical time `at`.
    fn instant(&self, at: Timestamp) -> Instant {
        self.epoch + Duration::from_micros(at.as_micros())
    }

    /// Shuts the shard pool down and assembles the report. Results the
    /// shards sent before they stopped are recorded too; no sample follows
    /// (samples run only inside [`Engine::run_for`]), so they count in
    /// [`EngineReport::result_counts`] but move no per-query mean.
    pub fn finish(mut self) -> EngineReport {
        // Ingest first: stop reading sockets before the shards shut
        // down, and fold the listener's accounting into the report.
        let (remote_batches, remote_sent_batches, remote_shed_batches, ingest_errors) =
            match self.ingest.take() {
                Some((server, stats)) => {
                    let received = server.batches_received();
                    server.shutdown();
                    let stats = std::mem::take(&mut *stats.lock().unwrap());
                    (
                        received,
                        stats.remote_sent_batches,
                        stats.remote_shed_batches,
                        stats.errors,
                    )
                }
                None => (0, 0, 0, Vec::new()),
            };
        // Shutdown: one message per shard stops all of its nodes.
        for shard in 0..self.n_shards {
            self.to_shard(shard, EngineMsg::Shutdown);
        }
        let policy_name = self.config.policy.name().to_string();
        let mut nodes: Vec<NodeReport> = vec![NodeReport::default(); self.n_nodes];
        let mut errors: Vec<EngineError> = Vec::new();
        let (mut checkpoints, mut early_checkpoints) = (0, 0);
        let (mut mailbox_messages, mut pump_sweeps) = (0, 0);
        for (shard, h) in std::mem::take(&mut self.shard_handles)
            .into_iter()
            .enumerate()
        {
            match h.join() {
                Ok(outcome) => {
                    for (node, report) in outcome.reports {
                        nodes[node].absorb(&report);
                    }
                    errors.extend(outcome.errors);
                    checkpoints += outcome.checkpoints;
                    early_checkpoints += outcome.early_checkpoints;
                    mailbox_messages += outcome.mailbox_messages;
                    pump_sweeps += outcome.pump_sweeps;
                }
                // A shard thread died to a panic: name it and its policy
                // instead of propagating — the surviving shards above
                // still drained cleanly and their counters stand.
                Err(payload) => {
                    let detail = payload
                        .downcast_ref::<&'static str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "shard thread panicked".to_string());
                    errors.push(EngineError::Shard {
                        shard,
                        policy: policy_name.clone(),
                        detail,
                    });
                }
            }
        }

        // Every shard has sent its last outbox and stopped.
        while let Ok(results) = self.results_rx.try_recv() {
            self.record(results);
        }
        let coordinated = self.coordinator.finish();
        errors.extend(
            ingest_errors
                .into_iter()
                .map(|(peer, detail)| EngineError::Ingest { peer, detail }),
        );
        let per_query_sic: Vec<(QueryId, f64)> = coordinated
            .per_query
            .iter()
            .map(|&(q, mean, _)| (q, mean))
            .collect();
        EngineReport {
            nodes,
            fairness: coordinated.fairness,
            per_query_sic,
            result_counts: coordinated.result_counts,
            coordinator_messages: coordinated.messages,
            sic_overshoot: coordinated.sic_overshoot,
            policy: policy_name,
            shards: self.n_shards,
            sic_series: coordinated.sic_series,
            errors,
            remote_batches,
            remote_sent_batches,
            remote_shed_batches,
            checkpoints,
            early_checkpoints,
            control_wakeups: self.control_wakeups,
            pump_sweeps,
            mailbox_messages,
            result_messages: self.result_messages,
        }
    }
}

/// The node recipe [`Engine::start`] hands every shard: how it builds each
/// node it installs, by global node index, with a shedder seeded by that
/// index. A shard calls it at every install, so a node rebuilt after a
/// teardown or a crash gets a fresh shedder (its learned state is not
/// durable; window panes and SIC tables come back from the log).
fn node_recipe(
    scenario: &Scenario,
    config: &EngineConfig,
    pool: &BatchPool,
) -> impl Fn(usize) -> NodeConfig + Clone + Send + 'static {
    let (interval, stw, seed) = (scenario.shedding_interval, scenario.stw, scenario.seed);
    let (policy, synthetic_cost, pool) =
        (config.policy.clone(), config.synthetic_cost, pool.clone());
    let initial_capacity = if synthetic_cost.is_zero() {
        usize::MAX / 2
    } else {
        ((interval.as_micros() / synthetic_cost.as_micros().max(1)) as usize).max(1)
    };
    let (enforce, capacity_tps) = (config.enforce_capacity, scenario.node_capacity_tps.clone());
    move |node| NodeConfig {
        id: NodeId(node as u32),
        interval,
        stw,
        shedder: policy.build(seed ^ (0xE0_0000 + node as u64)),
        synthetic_cost,
        initial_capacity,
        fixed_capacity: enforce.then(|| {
            ((capacity_tps[node] as u64 * interval.as_micros() / 1_000_000) as usize).max(1)
        }),
        pool: Some(pool.clone()),
    }
}

/// Runs the scenario on a bounded shard pool for `warmup + duration` wall
/// time and reports per-query SIC fairness plus node counters — the
/// one-shot wrapper over [`Engine`].
pub fn run_engine(scenario: &Scenario, config: EngineConfig) -> EngineReport {
    let mut engine = Engine::start(scenario, config);
    engine.run_for(Duration::from_micros(
        (scenario.warmup + scenario.duration).as_micros(),
    ));
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use themis_query::prelude::Template;

    fn scenario(n_queries: usize, rate: u32, seed: u64) -> Scenario {
        ScenarioBuilder::new("engine-test", seed)
            .nodes(2)
            .capacity_tps(1_000_000)
            .duration(TimeDelta::from_millis(2500))
            .warmup(TimeDelta::from_millis(1500))
            .stw_window(TimeDelta::from_secs(2))
            .add_queries(
                Template::Avg,
                n_queries,
                SourceProfile::steady(rate, 5, Dataset::Uniform),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn underloaded_engine_runs_clean() {
        let scn = scenario(4, 100, 1);
        let cfg = EngineConfig {
            shards: Some(64),
            ..Default::default()
        };
        let mut engine = Engine::start(&scn, cfg);
        let wall = Duration::from_micros((scn.warmup + scn.duration).as_micros());
        engine.run_for(wall);
        // The engine-wide recycle loop closes: sources acquire from the
        // pool the same batches nodes return after processing them.
        let stats = engine.batch_pool().stats();
        assert!(stats.recycled > 0, "nothing recycled: {stats:?}");
        assert!(stats.reused > 0, "nothing reused: {stats:?}");
        let report = engine.finish();
        // The scenario has 2 nodes; the pool is clamped.
        assert_eq!(report.shards, 2);
        assert_eq!(report.per_query_sic.len(), 4);
        // Every node ticked its detector.
        assert!(report.nodes.iter().all(|n| n.ticks > 0));
        // No shedding without synthetic cost.
        assert_eq!(report.shed_fraction(), 0.0);
        // Results flowed for every query.
        assert_eq!(report.result_counts.len(), 4);
        // No node shed, so no node reads a SIC table: the coordinator
        // sent nothing and no node applied an update.
        assert_eq!(report.coordinator_messages, 0);
        assert!(report.nodes.iter().all(|n| n.sic_updates == 0));
        // The work counters are wired: each shard's pump swept, at most
        // once per beat, and the shards received.
        assert!(report.pump_sweeps > 0);
        assert!(
            u128::from(report.pump_sweeps) <= 2 * (1 + wall.as_millis()),
            "{} sweeps on 2 shards in {wall:?}",
            report.pump_sweeps
        );
        assert!(report.mailbox_messages > 0);
        // The shards pace their own sources: the control loop wakes for
        // rounds, samples and results, not once per 1 ms pump beat.
        assert!(report.control_wakeups > 0);
        assert!(
            u128::from(report.control_wakeups) * 10 <= wall.as_millis(),
            "{} control-loop wake-ups in {wall:?}",
            report.control_wakeups
        );
        // SIC should be positive (timing jitter keeps it below perfect).
        for &(q, s) in &report.per_query_sic {
            assert!(s > 0.3, "query {q} sic {s}");
        }
    }

    /// Sources advance only inside `run_for`: an engine started and
    /// finished without one opens no run window, so no shard sweeps its
    /// pump and no tuple arrives.
    #[test]
    fn nothing_runs_on_the_control_side_outside_run_for() {
        let report = Engine::start(&scenario(4, 100, 5), EngineConfig::default()).finish();
        assert_eq!((report.pump_sweeps, report.control_wakeups), (0, 0));
        assert!(report.nodes.iter().all(|n| n.arrived_tuples == 0));
    }

    /// A shard drives a fragment's sources with one profile: a scenario
    /// whose one-fragment covariance query has two differently profiled
    /// sources is refused at start.
    #[test]
    #[should_panic(expected = "fragment 0: its sources have different profiles")]
    fn a_fragment_with_two_profiles_is_refused() {
        let mut scn = ScenarioBuilder::new("two-profiles", 1)
            .nodes(1)
            .add_queries(
                Template::Cov { fragments: 1 },
                1,
                SourceProfile::steady(10, 5, Dataset::Uniform),
            )
            .build()
            .unwrap();
        let second = scn.queries[0].sources[1].id;
        let profile = SourceProfile::steady(20, 5, Dataset::Uniform);
        scn.profiles.insert(second, profile);
        Engine::start(&scn, EngineConfig::default());
    }

    /// Regression: `finish` never drained the results channel, so results
    /// a shard had sent but the control loop had not yet received — a
    /// shard's last outbox among them — were dropped from
    /// `result_counts`. A message sent straight onto the channel before
    /// `finish` stands in for one here.
    #[test]
    fn finish_records_results_sent_before_it() {
        let engine = Engine::start(&scenario(2, 100, 4), EngineConfig::default());
        let event = crate::messages::ResultEvent {
            query: QueryId(1),
            sic: Sic(0.5),
        };
        let results = PassResults {
            events: vec![event; 3],
            first_shed: Vec::new(),
        };
        engine._results_tx.send(results).unwrap();
        let report = engine.finish();
        assert_eq!(report.result_counts.get(&QueryId(1)), Some(&3));
        assert_eq!(report.result_messages, 1);
    }

    /// A service pass's results reach the control loop as one message:
    /// one node hosting 64 AVG queries, whose one-second panes close
    /// together, sends at most one message per tick and 64 results per
    /// pane-closing tick.
    #[test]
    fn results_arrive_one_message_per_pass() {
        let scn = ScenarioBuilder::new("engine-results", 6)
            .nodes(1)
            .capacity_tps(1_000_000)
            .duration(TimeDelta::from_millis(2500))
            .warmup(TimeDelta::from_millis(500))
            .stw_window(TimeDelta::from_secs(1))
            .add_queries(
                Template::Avg,
                64,
                SourceProfile::steady(20, 1, Dataset::Uniform),
            )
            .build()
            .unwrap();
        let report = run_engine(&scn, EngineConfig::default());
        let results: usize = report.result_counts.values().sum();
        assert!(report.result_messages > 0, "no result arrived");
        assert!(
            report.result_messages <= report.nodes[0].ticks,
            "{} messages for {} ticks",
            report.result_messages,
            report.nodes[0].ticks
        );
        assert!(
            results as u64 >= 32 * report.result_messages,
            "{results} results in {} messages",
            report.result_messages
        );
    }

    /// A peer that keeps sending batches addressed to a node the engine
    /// does not host gets one error for the connection, not one per batch.
    #[test]
    fn misrouted_batches_report_one_ingest_error_per_peer() {
        use themis_net::prelude::{NetConfig, PeerSender, WireBatch};
        let cfg = EngineConfig {
            ingest_listen: Some("127.0.0.1:0".to_string()),
            ..Default::default()
        };
        let engine = Engine::start(&scenario(2, 10, 3), cfg);
        let addr = engine.ingest_addr().expect("listener bound").to_string();
        let sender = PeerSender::connect(&addr, "misrouter", &NetConfig::default()).unwrap();
        let mut batch = TupleBatch::new();
        batch.push_row(Timestamp(1), Sic(0.5), &[Value::F64(1.0)]);
        for i in 0..200 {
            sender.send_batch(&WireBatch {
                node: 99,
                query: QueryId(0),
                fragment: 0,
                source: SourceId(0),
                created: Timestamp(i),
                batch: batch.clone(),
            });
        }
        assert_eq!(sender.close().unwrap().sent_batches, 200);
        // The bye is handled after every batch of the connection: wait for
        // it before shutting the listener down.
        let stats = engine.ingest.as_ref().expect("listener bound").1.clone();
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.lock().unwrap().remote_sent_batches < 200 {
            assert!(Instant::now() < deadline, "the listener never saw the bye");
            thread::sleep(Duration::from_millis(1));
        }
        let report = engine.finish();
        assert_eq!(report.remote_batches, 200);
        let ingest: Vec<_> = report
            .errors
            .iter()
            .filter(|e| matches!(e, EngineError::Ingest { .. }))
            .collect();
        assert_eq!(ingest.len(), 1, "first: {:?}", ingest.first());
        assert!(matches!(ingest[0], EngineError::Ingest { peer, .. } if peer == "misrouter"));
        assert!(
            ingest[0].to_string().contains("unknown node 99"),
            "{}",
            ingest[0]
        );
    }

    /// `Engine::start` builds one shedder per installed node, not one per
    /// attached fragment: eight single-fragment queries on two nodes build
    /// two. The policy counts its factory's calls.
    #[test]
    fn start_builds_one_shedder_per_installed_node() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        register_shedder("counting-fifo", |_seed| {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            Box::new(FifoShedder::new())
        })
        .unwrap();
        let cfg = EngineConfig {
            policy: lookup_policy("counting-fifo").unwrap(),
            ..Default::default()
        };
        let scn = scenario(8, 100, 8);
        assert_eq!((scn.queries.len(), scn.n_nodes), (8, 2));
        // `finish` joins the shards, which have handled every attach.
        Engine::start(&scn, cfg).finish();
        assert_eq!(BUILDS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn synthetic_cost_induces_shedding() {
        // Per node: 2 queries x 400 t/s = 800 t/s demand vs 1/(2 ms) =
        // 500 t/s capacity.
        let cfg = EngineConfig {
            synthetic_cost: TimeDelta::from_micros(2000),
            ..Default::default()
        };
        let report = run_engine(&scenario(4, 400, 2), cfg);
        assert!(
            report.shed_fraction() > 0.1,
            "shed {}",
            report.shed_fraction()
        );
        assert!(report.mean_shed_time_us() > 0.0);
        // Overload does not stop results entirely.
        assert!(!report.result_counts.is_empty());
    }

    #[test]
    fn enforced_capacity_sheds_without_spin() {
        // 2 nodes x 2 queries x 400 t/s demand against a declared
        // 300 t/s node capacity: ~2.7x overload, no synthetic cost.
        let scn = ScenarioBuilder::new("enforce", 9)
            .nodes(2)
            .capacity_tps(300)
            .duration(TimeDelta::from_millis(2500))
            .warmup(TimeDelta::from_millis(1500))
            .stw_window(TimeDelta::from_secs(2))
            .add_queries(
                Template::Avg,
                4,
                SourceProfile::steady(400, 5, Dataset::Uniform),
            )
            .build()
            .unwrap();
        let report = run_engine(
            &scn,
            EngineConfig {
                enforce_capacity: true,
                ..Default::default()
            },
        );
        assert!(
            report.shed_fraction() > 0.3,
            "declared capacity ignored: shed {}",
            report.shed_fraction()
        );
    }

    #[test]
    fn attach_and_detach_churn_queries_at_runtime() {
        let scn = ScenarioBuilder::new("engine-churn", 7)
            .nodes(4)
            .capacity_tps(1_000_000)
            .duration(TimeDelta::from_millis(2000))
            .warmup(TimeDelta::from_millis(500))
            .stw_window(TimeDelta::from_secs(1))
            .add_queries(
                Template::Avg,
                2,
                SourceProfile::steady(100, 5, Dataset::Uniform),
            )
            .build()
            .unwrap();
        let mut engine = Engine::start(
            &scn,
            EngineConfig {
                record_series: true,
                ..Default::default()
            },
        );
        assert_eq!(engine.active_queries(), 2);
        engine.run_for(Duration::from_millis(800));
        // Two arrivals: fresh ids, placed on the two empty nodes.
        let ids = engine.attach_queries(
            Template::Avg,
            2,
            SourceProfile::steady(100, 5, Dataset::Uniform),
        );
        assert_eq!(ids, vec![QueryId(2), QueryId(3)]);
        assert_eq!(engine.active_queries(), 4);
        engine.run_for(Duration::from_millis(1800));
        // One departure.
        assert!(engine.detach_query(ids[0]));
        assert!(!engine.detach_query(ids[0]), "double detach is a no-op");
        assert_eq!(engine.active_queries(), 3);
        engine.run_for(Duration::from_millis(700));
        let report = engine.finish();
        // The attached queries produced results and samples.
        assert!(report.result_counts.contains_key(&ids[0]));
        assert!(report.result_counts.contains_key(&ids[1]));
        let sic_attached = report
            .per_query_sic
            .iter()
            .find(|&&(q, _)| q == ids[1])
            .map(|&(_, s)| s)
            .unwrap();
        assert!(sic_attached > 0.2, "attached query starved: {sic_attached}");
        // Series cover residents and the churn cohort.
        assert!(report.sic_series.len() >= 3);
        // The detached query's node hosted nothing else, so it was torn
        // down mid-run: its tick count sits well below a full-run node's.
        let resident_ticks = report.nodes[0].ticks.max(report.nodes[1].ticks);
        let churn_ticks = report.nodes[2].ticks.min(report.nodes[3].ticks);
        assert!(churn_ticks > 0, "churn nodes ticked while attached");
        assert!(
            churn_ticks < resident_ticks,
            "detached node kept ticking: {churn_ticks} vs {resident_ticks}"
        );
    }

    /// An overloaded scenario on 2 nodes (4 queries x 400 t/s against a
    /// declared 300 t/s per node), used by the durability tests. Batches
    /// arrive 20x per second so individual batches (20 tuples) stay well
    /// below the per-interval capacity — shedding is batch-granular, and
    /// results must keep flowing while overloaded.
    fn overload_scenario(name: &str, seed: u64) -> Scenario {
        ScenarioBuilder::new(name, seed)
            .nodes(2)
            .capacity_tps(300)
            .duration(TimeDelta::from_millis(2500))
            .warmup(TimeDelta::from_millis(500))
            .stw_window(TimeDelta::from_secs(2))
            .add_queries(
                Template::Avg,
                4,
                SourceProfile::steady(400, 20, Dataset::Uniform),
            )
            .build()
            .unwrap()
    }

    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("themis-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Regression: a shard thread lost to a panicking shedder used to
    /// poison the whole report (`finish` propagated the panic). It now
    /// surfaces an [`EngineError`] naming the shard and policy while the
    /// surviving shards drain and report normally.
    #[test]
    fn shard_panic_surfaces_engine_error_and_survivors_drain() {
        struct PanickyShedder;
        impl Shedder for PanickyShedder {
            fn select_to_keep(&mut self, _: usize, _: &[QueryBufferState]) -> ShedDecision {
                panic!("injected shedder fault")
            }
        }
        // Node 0's shedder panics on its first overload invocation; node 1
        // runs plain FIFO. With 2 shards, node 0's shard dies and node 1's
        // survives.
        let seed = 77_u64;
        let panic_seed = seed ^ 0xE0_0000;
        let fifo = lookup_policy("fifo").unwrap();
        let policy = Policy::new(
            "panic-on-node0",
            Arc::new(move |s| {
                if s == panic_seed {
                    Box::new(PanickyShedder) as Box<dyn Shedder>
                } else {
                    fifo.build(s)
                }
            }),
        );
        let report = run_engine(
            &overload_scenario("engine-panic", seed),
            EngineConfig {
                policy,
                enforce_capacity: true,
                shards: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(report.errors.len(), 1, "errors: {:?}", report.errors);
        match &report.errors[0] {
            EngineError::Shard {
                shard,
                policy,
                detail,
            } => {
                assert_eq!(*shard, 0);
                assert_eq!(policy, "panic-on-node0");
                assert!(detail.contains("injected shedder fault"));
            }
            other => panic!("expected a shard error, got {other}"),
        }
        // The surviving shard's node kept ticking and reported.
        assert!(report.nodes[1].ticks > 0, "survivor did not drain");
    }

    /// End-to-end fault injection: kill a shard mid-overload at 1.2 s,
    /// restart it at 1.7 s, and restore its SIC tables and window panes
    /// from checkpoint + WAL tail. The run finishes clean and leaves a
    /// readable durable log.
    #[test]
    fn fault_plan_kills_and_recovers_a_shard_with_durability() {
        let dir = test_dir("recovery");
        let cfg = EngineConfig {
            enforce_capacity: true,
            shards: Some(2),
            checkpoint_every: Some(Duration::from_millis(200)),
            durability_dir: Some(dir.clone()),
            sic_divergence_bound: 0.5,
            ..Default::default()
        };
        let mut engine = Engine::start(&overload_scenario("engine-recovery", 11), cfg);
        engine.run_for(Duration::from_millis(1200));
        engine.kill_shard(0);
        engine.run_for(Duration::from_millis(500));
        engine.restart_shard(0);
        engine.run_for(Duration::from_millis(1300));
        let report = engine.finish();
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        // The killed shard's node was re-attached and kept ticking.
        assert!(report.nodes[0].ticks > 0);
        // Every query produced results across the crash.
        assert_eq!(report.result_counts.len(), 4);
        // The restart drives no source twice: 4 sources at 400 t/s bring
        // at most 4 800 tuples in 3 s, plus one 20-tuple batch each; the
        // killed shard's sources driven twice would add about 1 000.
        let arrived: u64 = report.nodes.iter().map(|n| n.arrived_tuples).sum();
        assert!(arrived <= 4_800 + 4 * 20, "{arrived} tuples arrived");
        // The shard left a durable log we can read back.
        let restore = themis_core::wal::restore_shard(&dir, 0)
            .expect("readable log")
            .expect("shard logged state");
        assert!(
            !restore.snapshots.is_empty() || !restore.deltas.is_empty(),
            "durable log is empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: WAL failures used to go to stderr only, so a run that
    /// lost its durability reported clean, and it counted the checkpoints
    /// it never wrote. A durability root that is a
    /// regular file fails every shard's log open; the report names each
    /// shard and the operation while the queries keep producing results.
    #[test]
    fn durability_failures_surface_as_engine_errors() {
        let file = test_dir("not-a-dir");
        std::fs::write(&file, b"a file, not a directory").unwrap();
        let report = run_engine(
            &overload_scenario("engine-undurable", 17),
            EngineConfig {
                enforce_capacity: true,
                shards: Some(2),
                checkpoint_every: Some(Duration::from_millis(200)),
                durability_dir: Some(file.clone()),
                ..Default::default()
            },
        );
        let _ = std::fs::remove_file(&file);
        let mut opens: Vec<usize> = report
            .errors
            .iter()
            .map(|e| match e {
                EngineError::Durability { shard, op, .. } => {
                    assert_eq!(*op, "open", "{e}");
                    *shard
                }
                other => panic!("expected a durability error, got {other}"),
            })
            .collect();
        opens.sort_unstable();
        assert_eq!(opens, vec![0, 1], "one open failure per shard");
        // Nothing reached the disk, so no checkpoint counts.
        assert_eq!((report.checkpoints, report.early_checkpoints), (0, 0));
        assert_eq!(report.result_counts.len(), 4, "every query kept producing");
    }

    /// [`Engine::restore_from`] replays a previous run's durable state
    /// into a freshly started engine (same scenario, so the re-attached
    /// fragments match the logged panes).
    #[test]
    fn restore_from_replays_durable_state_into_a_fresh_engine() {
        let dir = test_dir("restore");
        let cfg = EngineConfig {
            enforce_capacity: true,
            shards: Some(2),
            checkpoint_every: Some(Duration::from_millis(200)),
            durability_dir: Some(dir.clone()),
            ..Default::default()
        };
        let scn = overload_scenario("engine-restore", 13);
        let mut first = Engine::start(&scn, cfg.clone());
        first.run_for(Duration::from_millis(1500));
        first.finish();

        let mut second = Engine::start(&scn, cfg);
        second.restore_from(&dir);
        second.run_for(Duration::from_millis(800));
        let report = second.finish();
        assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
        assert!(report.nodes.iter().all(|n| n.ticks > 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
