//! Shard threads: a bounded pool of OS threads, each owning a slice of
//! node states and multiplexing message draining, per-node shedding
//! deadlines (a `BinaryHeap` of `(Instant, node)` entries) and fragment
//! execution.
//!
//! Where the seed engine spawned one OS thread per FSPS node — capping
//! experiments at a few dozen nodes — a shard interleaves thousands of
//! [`NodeState`]s on one thread. The event loop fires every due deadline
//! *before* each channel receive, so a sustained input flood can never
//! starve the overload detector (the seed worker's drain loop `continue`d
//! on every message and postponed the tick indefinitely under exactly the
//! overload it was meant to detect).
//!
//! Bulk traffic arrives **bundled**: the source pump sends each shard one
//! [`EngineMsg::Bundle`] of batches per 1 ms beat, and the coordinator one
//! bundle of SIC updates per round, so the loop wakes per beat and per
//! round rather than per item. A shard unpacks a bundle entry by entry
//! and services its deadlines (and checkpoint cadence) between bundles and
//! every `MAX_SWEEP` entries inside one, which keeps the flood guarantee
//! for a bundle of any size.
//!
//! Shards start **empty**: nodes install on first
//! [`EngineMsg::Attach`] and tear down when an [`EngineMsg::Detach`]
//! removes their last fragment — the runtime query-churn path. Teardown
//! freezes the node's counters and abandons its deadline-heap entry
//! (entries are generation-tagged, so a stale deadline popped after a
//! teardown or re-install is discarded instead of ticking — no heap
//! leak: a detached node never ticks again).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use themis_core::prelude::*;
use themis_core::wal;
use themis_operators::op::Emission;
use themis_query::prelude::*;

use crate::engine::EngineError;
use crate::messages::{AttachFragment, Bundle, EngineMsg, ResultEvent, ShardMsg};
use crate::node_state::NodeState;

/// How long an idle shard (no nodes, or all deadlines far out) sleeps per
/// loop iteration while waiting for messages.
const IDLE_TIMEOUT: Duration = Duration::from_millis(50);

/// Bundle entries a shard handles between two services of its deadline
/// heap: a coordinator round's bundle carries thousands of updates, and a
/// tick due meanwhile waits for at most this many (the tick-starvation fix,
/// kept inside a bundle).
const MAX_SWEEP: usize = 512;

/// First-tick stagger slots: the `i`-th node installed on a shard fires
/// its first tick `(i % SLOTS) / SLOTS` of an interval into the schedule,
/// so thousands of co-located nodes do not all tick at the same instant.
const STAGGER_SLOTS: u64 = 32;

/// What a shard needs to route fragment outputs. Fragment-level routing
/// (which downstream node a fragment feeds) travels with the fragment
/// itself (installed by [`EngineMsg::Attach`]), so attaching a query at
/// runtime needs no shard-wide routing updates.
pub struct ShardRouting {
    /// Senders addressing every node (index = global node; each entry is a
    /// clone of the owning shard's channel).
    pub node_txs: Vec<Sender<ShardMsg>>,
    /// Sink for query results.
    pub results_tx: Sender<ResultEvent>,
}

impl ShardRouting {
    /// Forwards fragment emissions to `downstream` (or to the results
    /// sink when `None`).
    pub fn route(
        &self,
        query: QueryId,
        fragment: usize,
        downstream: Option<(usize, usize)>,
        emissions: Vec<Emission>,
    ) {
        for e in emissions {
            match downstream {
                Some((node, df)) => {
                    let at = e.at;
                    let rb = RoutedBatch {
                        query,
                        fragment: df,
                        ingress: Ingress::Upstream(fragment),
                        // Wrap the emission's columns directly — no
                        // per-tuple re-materialisation between fragments.
                        batch: Batch::from_data(query, at, e.into_batch()),
                    };
                    // A closed peer means shutdown is racing; dropping the
                    // batch is equivalent to shedding it.
                    let _ = self.node_txs[node].send(ShardMsg {
                        node,
                        msg: EngineMsg::Batch(rb),
                    });
                }
                None => {
                    let _ = self.results_tx.send(ResultEvent {
                        query,
                        at: e.at,
                        sic: e.sic(),
                    });
                }
            }
        }
    }
}

/// Durability configuration handed to a shard thread: where to log, how
/// often to checkpoint, and the AF-Stream-style per-query divergence
/// bound that forces an early checkpoint.
#[derive(Debug, Clone)]
pub struct ShardDurability {
    /// Durability root; this shard writes under `dir/shard-<i>/`.
    pub dir: PathBuf,
    /// This shard's index under `dir`.
    pub shard: usize,
    /// Periodic checkpoint cadence.
    pub every: Duration,
    /// Checkpoint early when some query's SIC has moved more than this
    /// bound away from its checkpointed value ([`NodeState::sic_drift`];
    /// `<= 0` disables the early trigger).
    pub sic_bound: f64,
}

/// The shard of `n_shards` that owns global node `node` (round-robin).
pub fn shard_of(node: usize, n_shards: usize) -> usize {
    node % n_shards.max(1)
}

/// Round-robin node→shard assignment for `n_nodes` nodes.
pub fn shard_assignment(n_nodes: usize, n_shards: usize) -> Vec<usize> {
    (0..n_nodes).map(|n| shard_of(n, n_shards)).collect()
}

/// Entry in a shard's deadline heap (min-heap by `(at, node)`), tagged
/// with the node's install generation so entries of torn-down or
/// re-installed nodes are discarded on pop.
struct Deadline {
    at: Instant,
    node: usize,
    generation: u64,
}
impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.node == other.node && self.generation == other.generation
    }
}
impl Eq for Deadline {}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first. The
        // generation is a final tiebreak so Ord agrees with PartialEq
        // (a stale entry and its re-install successor can share an
        // instant).
        (other.at, other.node, other.generation).cmp(&(self.at, self.node, self.generation))
    }
}

/// What a shard thread returns when its event loop ends.
#[derive(Debug, Default)]
pub struct ShardOutcome {
    /// `(global node, counters)` per node that was ever installed (one
    /// merged report per node across re-installs).
    pub reports: Vec<(usize, NodeReport)>,
    /// The durability failures the shard served through
    /// ([`EngineError::Durability`], the first of each operation).
    pub errors: Vec<EngineError>,
    /// Checkpoints cut (every hosted node snapshotted), on cadence or
    /// early.
    pub checkpoints: u64,
    /// Of [`ShardOutcome::checkpoints`], those the divergence bound cut
    /// before the cadence was due.
    pub early_checkpoints: u64,
    /// Messages taken off the shard's channel (a bundle counts once).
    pub mailbox_messages: u64,
}

/// Runs a shard's event loop until an [`EngineMsg::Shutdown`] arrives (or
/// every sender is gone) and returns its [`ShardOutcome`].
///
/// The shard starts with no nodes; [`EngineMsg::Attach`] installs them
/// (the engine pre-loads the initial scenario's attaches before spawning
/// the thread, so "static" deployments take this same path).
pub fn run_shard(
    routing: ShardRouting,
    rx: Receiver<ShardMsg>,
    epoch: Instant,
    durability: Option<ShardDurability>,
) -> ShardOutcome {
    let mut shard = Shard::new(routing, epoch, durability);
    loop {
        // Due ticks (and a due checkpoint) come before every receive: the
        // deadline, not channel pressure, decides when the detector runs.
        // With deadlines still pending after a capped pass, the timeout
        // below is zero and the receive acts as a poll.
        let now = shard.service();
        let timeout = shard
            .heap
            .peek()
            .map(|d| d.at.saturating_duration_since(now))
            .unwrap_or(IDLE_TIMEOUT);
        match rx.recv_timeout(timeout) {
            Ok(msg) => {
                shard.out.mailbox_messages += 1;
                if !shard.handle(msg) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    shard.finish()
}

/// A shard's state between messages: its nodes and their deadline heap,
/// plus the durability bookkeeping. [`run_shard`] is the thread around
/// it: receive, [`Shard::handle`], [`Shard::service`].
struct Shard {
    routing: ShardRouting,
    epoch: Instant,
    durability: Option<ShardDurability>,
    out: ShardOutcome,
    states: HashMap<usize, NodeState>,
    generations: HashMap<usize, u64>,
    heap: BinaryHeap<Deadline>,
    /// Frozen counters of torn-down (or crashed) node incarnations.
    finished: HashMap<usize, NodeReport>,
    installed_seq: u64,
    log: Option<wal::ShardLog>,
    next_checkpoint: Option<Instant>,
    /// Set by [`EngineMsg::Crash`]: a dead process writes nothing, so both
    /// checkpointing and delta appends stop until Recover — otherwise the
    /// post-crash empty shard would immediately write an empty checkpoint
    /// and truncate the very tail recovery needs.
    crashed: bool,
    /// Set when a SIC update pushed its node's drift past the divergence
    /// bound; consumed by the next [`Shard::service`]'s checkpoint.
    diverged: bool,
}

impl Shard {
    fn new(routing: ShardRouting, epoch: Instant, durability: Option<ShardDurability>) -> Self {
        Shard {
            routing,
            epoch,
            next_checkpoint: durability.as_ref().map(|d| Instant::now() + d.every),
            durability,
            out: ShardOutcome::default(),
            states: HashMap::new(),
            generations: HashMap::new(),
            heap: BinaryHeap::new(),
            finished: HashMap::new(),
            installed_seq: 0,
            log: None,
            crashed: false,
            diverged: false,
        }
    }

    /// Fires every due tick, then checkpoints when the cadence is due or a
    /// SIC update diverged; returns the clock reading it ended on.
    ///
    /// Firings are capped at the shard's node count per call so degenerate
    /// intervals (shorter than the tick's own work) cannot livelock the
    /// loop and starve the channel. Rescheduling always lands strictly
    /// after `now` (NodeState clamps the interval to >= 1 us), so within a
    /// call due nodes fire in deadline order and no node re-fires ahead of
    /// a due shard-mate.
    fn service(&mut self) -> Instant {
        let mut now = Instant::now();
        let mut fired = 0;
        let cap = self.states.len().max(1);
        while let Some(d) = self.heap.peek() {
            if d.at > now || fired >= cap {
                break;
            }
            let d = self.heap.pop().expect("peeked");
            // Stale entry (node torn down or re-installed): discard — the
            // lazy-deletion arm of the churn path.
            let live = self.generations.get(&d.node) == Some(&d.generation);
            let Some(state) = (live).then(|| self.states.get_mut(&d.node)).flatten() else {
                continue;
            };
            state.tick(now, self.epoch, &self.routing);
            self.heap.push(Deadline {
                at: state.next_tick(),
                node: d.node,
                generation: d.generation,
            });
            fired += 1;
            now = Instant::now();
        }
        // Checkpoint on cadence, or early when a SIC update left some
        // query further than the divergence bound from its checkpointed
        // value (AF-Stream: bound the deviation instead of logging
        // everything).
        let early = std::mem::take(&mut self.diverged);
        let Some(d) = &self.durability else {
            return now;
        };
        if self.crashed || self.states.is_empty() {
            return now;
        }
        let due = self.next_checkpoint.is_some_and(|t| now >= t);
        if due || early {
            let snapshots: Vec<wal::NodeSnapshot> = self
                .states
                .values_mut()
                .map(NodeState::checkpoint)
                .collect();
            if self.log.is_none() {
                self.log = open_log(d, &mut self.out.errors);
            }
            if let Some(l) = &mut self.log {
                if let Err(e) = l.checkpoint(&snapshots) {
                    durability_error(&mut self.out.errors, d.shard, "checkpoint", &e);
                }
            }
            self.next_checkpoint = Some(now + d.every);
            self.out.checkpoints += 1;
            self.out.early_checkpoints += u64::from(!due);
        }
        now
    }

    /// Handles one message; `false` when the shard must stop.
    fn handle(&mut self, msg: ShardMsg) -> bool {
        let ShardMsg { node, msg } = msg;
        match msg {
            EngineMsg::Shutdown => return false,
            EngineMsg::Batch(rb) => self.enqueue(node, rb),
            EngineMsg::Sic(update) => self.apply_sic(node, &update),
            EngineMsg::Bundle(bundle) => self.unbundle(bundle),
            EngineMsg::Attach(attach) => {
                debug_assert_eq!(node, attach.node, "attach addressed to its node");
                self.attach(attach);
            }
            EngineMsg::Detach { query } => self.detach(node, query),
            EngineMsg::Crash => self.crash(),
            EngineMsg::Recover { dir, shard } => self.recover(&dir, shard),
        }
        true
    }

    /// Handles a bundle's entries in order, servicing due ticks every
    /// [`MAX_SWEEP`] entries so a coordinator round's thousands of updates
    /// cannot hold the detector back.
    fn unbundle(&mut self, bundle: Bundle) {
        let mut handled = 0;
        let mut sweep = |shard: &mut Shard| {
            if handled == MAX_SWEEP {
                shard.service();
                handled = 0;
            }
            handled += 1;
        };
        for update in &bundle.sic {
            sweep(self);
            self.apply_sic(update.node.index(), update);
        }
        for (node, rb) in bundle.batches {
            sweep(self);
            self.enqueue(node, rb);
        }
    }

    /// Buffers a data batch on `node`, stamped with its arrival time.
    /// Traffic for a node this shard does not host (torn down, crashed)
    /// is dropped — equivalent to shedding it.
    fn enqueue(&mut self, node: usize, rb: RoutedBatch) {
        if let Some(state) = self.states.get_mut(&node) {
            let ts = Timestamp(self.epoch.elapsed().as_micros() as u64);
            state.enqueue(rb, ts);
        }
    }

    /// Applies a coordinator update to `node`, logs it as a WAL delta, and
    /// flags an early checkpoint when it crossed the divergence bound.
    fn apply_sic(&mut self, node: usize, update: &SicUpdate) {
        let Some(state) = self.states.get_mut(&node) else {
            return;
        };
        state.apply_sic(update);
        let Some(d) = self.durability.as_ref().filter(|_| !self.crashed) else {
            return;
        };
        self.diverged |= d.sic_bound > 0.0 && state.sic_drift() > d.sic_bound;
        if self.log.is_none() {
            self.log = open_log(d, &mut self.out.errors);
        }
        let delta = wal::SicDelta {
            node,
            query: update.query,
            sic: update.sic,
        };
        if let Some(Err(e)) = self.log.as_mut().map(|l| l.append(&delta)) {
            durability_error(&mut self.out.errors, d.shard, "append", &e);
        }
    }

    /// Installs a fragment, installing its node first when absent (with a
    /// staggered first deadline).
    fn attach(&mut self, attach: AttachFragment) {
        let AttachFragment {
            node,
            config,
            query,
            fragment,
            downstream,
        } = attach;
        let state = self.states.entry(node).or_insert_with(|| {
            let interval = Duration::from_micros(config.interval.as_micros().max(1));
            let slot = self.installed_seq % STAGGER_SLOTS;
            self.installed_seq += 1;
            let first_tick =
                Instant::now() + interval + interval.mul_f64(slot as f64 / STAGGER_SLOTS as f64);
            let state = NodeState::new(config, node, first_tick);
            let generation = self.generations.get(&node).copied().unwrap_or(0) + 1;
            self.generations.insert(node, generation);
            self.heap.push(Deadline {
                at: state.next_tick(),
                node,
                generation,
            });
            state
        });
        state.attach_fragment(&query, fragment, downstream);
    }

    /// Removes `query`'s fragments from `node`, tearing the node down when
    /// it hosts nothing else: its counters freeze and the generation bump
    /// invalidates its pending deadline.
    fn detach(&mut self, node: usize, query: QueryId) {
        let empty = self
            .states
            .get_mut(&node)
            .is_some_and(|s| s.core.detach(query) == 0);
        if empty {
            if let Some(state) = self.states.remove(&node) {
                retire(&mut self.finished, node, &state);
            }
            *self.generations.entry(node).or_insert(0) += 1;
        }
    }

    /// Simulated process death: every node's live state is gone (counters
    /// survive for final accounting, as for a torn-down node) and no
    /// durability write happens again until Recover. Pending deadlines are
    /// invalidated by the generation bump; in-flight traffic to the dead
    /// nodes is silently discarded.
    fn crash(&mut self) {
        self.crashed = true;
        self.log = None;
        self.heap.clear();
        for (node, state) in self.states.drain() {
            retire(&mut self.finished, node, &state);
            *self.generations.entry(node).or_insert(0) += 1;
        }
    }

    /// Arrives after the engine re-attached the dead nodes' fragments:
    /// overlays the checkpointed state, replays the delta tail (absolute
    /// values; last write wins), and resumes durability writes.
    fn recover(&mut self, dir: &std::path::Path, shard: usize) {
        self.crashed = false;
        match wal::restore_shard(dir, shard) {
            Ok(Some(restore)) => {
                for snap in &restore.snapshots {
                    if let Some(state) = self.states.get_mut(&snap.node) {
                        state.core.restore(snap);
                    }
                }
                for delta in &restore.deltas {
                    if let Some(state) = self.states.get_mut(&delta.node) {
                        state.core.set_sic(delta.query, delta.sic);
                    }
                }
            }
            Ok(None) => {}
            Err(e) => durability_error(&mut self.out.errors, shard, "restore", &e),
        }
        if let Some(d) = &self.durability {
            self.next_checkpoint = Some(Instant::now() + d.every);
        }
    }

    /// Retires every node still installed and returns the outcome.
    fn finish(mut self) -> ShardOutcome {
        for (node, state) in self.states.drain() {
            retire(&mut self.finished, node, &state);
        }
        self.out.reports = self.finished.into_iter().collect();
        self.out
    }
}

/// Folds a departing node incarnation's counters into the node's total, so
/// the final report covers every incarnation (churn, crash) of it.
fn retire(finished: &mut HashMap<usize, NodeReport>, node: usize, state: &NodeState) {
    finished.entry(node).or_default().absorb(&state.core.stats);
}

/// Opens a shard's durable log, recording a failure instead of failing
/// the shard — an undurable engine keeps serving traffic.
fn open_log(d: &ShardDurability, errors: &mut Vec<EngineError>) -> Option<wal::ShardLog> {
    match wal::ShardLog::create(&d.dir, d.shard) {
        Ok(log) => Some(log),
        Err(e) => {
            durability_error(errors, d.shard, "open", &e);
            None
        }
    }
}

/// Records a failed durability operation, once per operation: a failing
/// disk fails every later write the same way, and the log is retried on
/// every checkpoint and SIC update.
fn durability_error(
    errors: &mut Vec<EngineError>,
    shard: usize,
    op: &'static str,
    err: &wal::WalError,
) {
    let seen = errors
        .iter()
        .any(|e| matches!(e, EngineError::Durability { op: o, .. } if *o == op));
    if !seen {
        errors.push(EngineError::Durability {
            shard,
            op,
            detail: err.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_state::NodeConfig;
    use std::sync::Arc;

    #[test]
    fn every_node_lands_on_exactly_one_shard() {
        for (n_nodes, n_shards) in [(1usize, 1usize), (7, 3), (1024, 8), (5, 16)] {
            let assignment = shard_assignment(n_nodes, n_shards);
            assert_eq!(assignment.len(), n_nodes);
            // Each node has exactly one shard, and it is in range.
            assert!(assignment.iter().all(|&s| s < n_shards));
            // Round-robin balance: shard sizes differ by at most one.
            let mut counts = vec![0usize; n_shards];
            for &s in &assignment {
                counts[s] += 1;
            }
            let used: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
            let max = *used.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max - min <= 1, "{n_nodes}x{n_shards}: {counts:?}");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(shard_of(5, 0), 0);
    }

    fn node_config(
        interval_ms: u64,
        synthetic_cost: TimeDelta,
        initial_capacity: usize,
    ) -> NodeConfig {
        NodeConfig {
            id: NodeId(0),
            interval: TimeDelta::from_millis(interval_ms),
            stw: StwConfig::PAPER_DEFAULT,
            shedder: Policy::default().build(11),
            synthetic_cost,
            initial_capacity,
            fixed_capacity: None,
            pool: None,
        }
    }

    fn attach_msg(node: usize, config: NodeConfig, query: &Arc<QuerySpec>) -> ShardMsg {
        ShardMsg {
            node,
            msg: EngineMsg::Attach(AttachFragment {
                node,
                config,
                query: query.clone(),
                fragment: 0,
                downstream: None,
            }),
        }
    }

    fn flood_harness(
        interval_ms: u64,
        synthetic_cost: TimeDelta,
        initial_capacity: usize,
        batches: usize,
        tuples_per_batch: usize,
        linger_ms: u64,
    ) -> NodeReport {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let src = query.sources[0].id;
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone()],
            results_tx,
        };
        // The node installs through the same Attach path the engine uses,
        // pre-loaded ahead of the flood.
        tx.send(attach_msg(
            0,
            node_config(interval_ms, synthetic_cost, initial_capacity),
            &query,
        ))
        .unwrap();
        // Pre-load the whole flood *and* the shutdown before the shard
        // starts: the channel is never empty until the shard has drained
        // every batch, which is exactly the situation that starved the
        // seed worker's tick (recv_timeout returned Ok on every poll).
        for i in 0..batches {
            let tuples: Vec<Tuple> = (0..tuples_per_batch)
                .map(|j| Tuple::measurement(Timestamp(i as u64), Sic(0.001), j as f64))
                .collect();
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Batch(RoutedBatch {
                    query: query.id,
                    fragment: 0,
                    ingress: Ingress::Source(src),
                    batch: Batch::from_source(query.id, src, Timestamp(i as u64), tuples),
                }),
            })
            .unwrap();
        }
        // linger_ms == 0: the shutdown is queued behind the flood, so the
        // channel never empties while the shard runs. Otherwise the shard
        // is left running for `linger_ms` past the flood before stopping.
        if linger_ms == 0 {
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Shutdown,
            })
            .unwrap();
        }
        let epoch = Instant::now();
        let handle = std::thread::spawn(move || run_shard(routing, rx, epoch, None));
        if linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(linger_ms));
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Shutdown,
            })
            .unwrap();
        }
        let mut reports = handle.join().expect("shard panicked").reports;
        assert_eq!(reports.len(), 1);
        reports.pop().unwrap().1
    }

    /// Regression (tick starvation): the seed worker `continue`d on every
    /// received message, so a queue that never emptied postponed the
    /// detector/shedder tick indefinitely — it would drain this entire
    /// flood, hit `Shutdown`, and exit with zero ticks and zero sheds.
    /// The shard loop fires the tick whenever its deadline has passed,
    /// messages pending or not.
    #[test]
    fn flooded_shard_still_sheds() {
        // ~60k batches of 5 tuples take well over one 5 ms interval to
        // drain, so deadlines pass while the queue is still non-empty.
        let report = flood_harness(5, TimeDelta::ZERO, 100, 60_000, 5, 0);
        assert_eq!(report.arrived_tuples, 300_000);
        assert!(report.ticks >= 1, "starved: no tick fired mid-flood");
        assert!(
            report.shed_invocations >= 1,
            "first due tick saw {} buffered tuples over capacity 100 but never shed",
            report.arrived_tuples,
        );
        assert!(report.shed_tuples > 0);
    }

    /// Bundles keep the tick-starvation fix: the whole flood arrives as
    /// one bundle of batches (after a bundle of SIC updates), queued with
    /// the shutdown before the shard starts. Draining it takes many 5 ms
    /// intervals, while the pass between the bundle and the shutdown fires
    /// at most one tick (firings are capped at the node count), so a
    /// second tick proves the service every [`MAX_SWEEP`] entries inside
    /// the bundle.
    #[test]
    fn bundled_flood_still_ticks_and_sheds() {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let src = query.sources[0].id;
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone()],
            results_tx,
        };
        tx.send(attach_msg(0, node_config(5, TimeDelta::ZERO, 100), &query))
            .unwrap();
        let sic = (0..2_000)
            .map(|i| SicUpdate {
                query: query.id,
                node: NodeId(0),
                sic: Sic(f64::from(i % 100) / 100.0),
            })
            .collect();
        let batches = (0..60_000u64)
            .map(|i| {
                let tuples: Vec<Tuple> = (0..5)
                    .map(|j| Tuple::measurement(Timestamp(i), Sic(0.001), f64::from(j)))
                    .collect();
                let rb = RoutedBatch {
                    query: query.id,
                    fragment: 0,
                    ingress: Ingress::Source(src),
                    batch: Batch::from_source(query.id, src, Timestamp(i), tuples),
                };
                (0, rb)
            })
            .collect();
        for bundle in [
            Bundle {
                sic,
                ..Bundle::default()
            },
            Bundle {
                batches,
                ..Bundle::default()
            },
        ] {
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Bundle(bundle),
            })
            .unwrap();
        }
        tx.send(ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        })
        .unwrap();
        let out = run_shard(routing, rx, Instant::now(), None);
        assert_eq!(out.mailbox_messages, 4, "attach, two bundles, shutdown");
        let report = &out.reports[0].1;
        assert_eq!(report.arrived_tuples, 300_000);
        assert_eq!(report.sic_updates, 2_000);
        assert!(report.ticks >= 2, "starved: no tick fired mid-bundle");
        assert!(report.shed_invocations >= 1, "{report:?}");
    }

    /// Regression (tick drift/storm): a tick that overruns its period must
    /// not leave a backlog of past deadlines. The seed worker's
    /// `next_tick += interval` scheduled a burst of zero-timeout ticks
    /// after the overrun; fixed, the tick count stays bounded by wall
    /// time / interval and the skipped periods are counted as late.
    #[test]
    fn overrunning_tick_does_not_storm() {
        // 400 batches x 20 tuples; capacity 500 kept x 200 us spin
        // = a ~100 ms tick against a 20 ms interval: 5 periods overrun.
        let t0 = Instant::now();
        let report = flood_harness(20, TimeDelta::from_micros(200), 500, 400, 20, 300);
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        assert!(report.late_ticks >= 1, "overrun not recorded: {report:?}");
        assert!(report.shed_invocations >= 1);
        let max_ticks = elapsed_ms / 20 + 2;
        assert!(
            report.ticks <= max_ticks,
            "tick storm: {} ticks in {elapsed_ms} ms at a 20 ms interval",
            report.ticks,
        );
    }

    /// A degenerate zero shedding interval must not livelock the shard
    /// loop: due-tick firings are capped per pass, so the channel still
    /// drains and `Shutdown` is honored.
    #[test]
    fn zero_interval_still_terminates() {
        let report = flood_harness(0, TimeDelta::ZERO, 100, 100, 1, 0);
        assert_eq!(report.arrived_tuples, 100);
        assert!(report.ticks >= 1);
    }

    /// A zero-interval node sharing a shard must not monopolize the
    /// deadline heap: its rescheduled deadline lands strictly in the
    /// future (the interval is clamped to 1 us), so shard-mates with
    /// ordinary intervals still reach their ticks.
    #[test]
    fn zero_interval_node_does_not_starve_shard_mates() {
        let mut ids = IdGen::new();
        let q0 = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let q1 = Arc::new(Template::Avg.build(QueryId(1), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone(), tx.clone()],
            results_tx,
        };
        tx.send(attach_msg(0, node_config(0, TimeDelta::ZERO, 100), &q0))
            .unwrap();
        tx.send(attach_msg(1, node_config(5, TimeDelta::ZERO, 100), &q1))
            .unwrap();
        let epoch = Instant::now();
        let handle = std::thread::spawn(move || run_shard(routing, rx, epoch, None));
        std::thread::sleep(Duration::from_millis(60));
        tx.send(ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        })
        .unwrap();
        let reports = handle.join().expect("shard panicked").reports;
        let by_node: HashMap<usize, &NodeReport> = reports.iter().map(|(n, r)| (*n, r)).collect();
        assert!(by_node[&0].ticks >= 1);
        assert!(
            by_node[&1].ticks >= 2,
            "5 ms node starved by zero-interval shard-mate: {} ticks in 60 ms",
            by_node[&1].ticks
        );
    }

    /// Churn on one shard: a detached node's state is torn down, its
    /// report freezes, and its abandoned deadline never ticks it again;
    /// a later re-attach starts a fresh incarnation whose counters merge
    /// into the same per-node report.
    #[test]
    fn detach_tears_down_and_reattach_merges() {
        let mut ids = IdGen::new();
        let q0 = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let q1 = Arc::new(Template::Avg.build(QueryId(1), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone(), tx.clone()],
            results_tx,
        };
        // Node 0 hosts the resident query; node 1 hosts the churn query.
        tx.send(attach_msg(0, node_config(5, TimeDelta::ZERO, 100), &q0))
            .unwrap();
        tx.send(attach_msg(1, node_config(5, TimeDelta::ZERO, 100), &q1))
            .unwrap();
        let epoch = Instant::now();
        let handle = std::thread::spawn(move || run_shard(routing, rx, epoch, None));
        std::thread::sleep(Duration::from_millis(40));
        // The churn query departs; node 1 empties and is torn down.
        tx.send(ShardMsg {
            node: 1,
            msg: EngineMsg::Detach { query: q1.id },
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(80));
        // Re-attach on the same node index: a fresh incarnation.
        tx.send(attach_msg(1, node_config(5, TimeDelta::ZERO, 100), &q1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        tx.send(ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        })
        .unwrap();
        let reports = handle.join().expect("shard panicked").reports;
        let by_node: HashMap<usize, NodeReport> = reports.into_iter().collect();
        let resident = &by_node[&0];
        let churned = &by_node[&1];
        assert!(resident.ticks >= 20, "resident ticked throughout");
        // Node 1 was live for ~80 of ~160 ms; had its deadline leaked it
        // would have kept ticking through the 80 ms gap too. Allow slack
        // for scheduling, but the gap must be visible.
        assert!(
            churned.ticks <= resident.ticks * 3 / 4,
            "torn-down node kept ticking: {} vs resident {}",
            churned.ticks,
            resident.ticks
        );
        assert!(churned.ticks >= 2, "both incarnations ticked");
    }

    /// Regression (checkpoint storm): the early trigger used to sum SIC
    /// movement over every query a node hosts, so 64 queries each moving
    /// 0.01 per coordinator round crossed a 0.5 bound every round and cut
    /// a full checkpoint each time. Divergence is per query and measured
    /// from the checkpoint: small moves never fire, one large move fires
    /// once. The hour-long cadence leaves only early cuts, and the whole
    /// message stream is queued before the shard starts, so nothing here
    /// depends on timing.
    #[test]
    fn many_small_sic_moves_do_not_storm_checkpoints() {
        let dir = std::env::temp_dir().join(format!("themis-shard-storm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ids = IdGen::new();
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone()],
            results_tx,
        };
        let queries: Vec<QueryId> = (0..64).map(QueryId).collect();
        for &q in &queries {
            let query = Arc::new(Template::Avg.build(q, &mut ids));
            tx.send(attach_msg(0, node_config(50, TimeDelta::ZERO, 100), &query))
                .unwrap();
        }
        let sic = |query: QueryId, sic: f64| ShardMsg {
            node: 0,
            msg: EngineMsg::Sic(SicUpdate {
                query,
                node: NodeId(0),
                sic: Sic(sic),
            }),
        };
        for round in 1..=20 {
            for &q in &queries {
                tx.send(sic(q, 0.01 * round as f64)).unwrap();
            }
        }
        tx.send(sic(queries[0], 0.2 + 0.6)).unwrap();
        tx.send(ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        })
        .unwrap();
        let durability = ShardDurability {
            dir: dir.clone(),
            shard: 0,
            every: Duration::from_secs(3600),
            sic_bound: 0.5,
        };
        let out = run_shard(routing, rx, Instant::now(), Some(durability));
        let restore = wal::restore_shard(&dir, 0).expect("readable log");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
        assert_eq!(out.early_checkpoints, 1, "one query crossed the bound once");
        assert_eq!(out.checkpoints, 1, "the cadence never came due");
        let restore = restore.expect("the shard logged state");
        assert_eq!(restore.snapshots.len(), 1);
        assert!(
            restore.deltas.is_empty(),
            "the checkpoint truncated the tail"
        );
    }

    #[test]
    fn deadlines_fire_in_order() {
        let base = Instant::now();
        let mut heap: BinaryHeap<Deadline> = BinaryHeap::new();
        // Push out of order, with a tie at 30 ms.
        for (ms, node) in [(30u64, 2usize), (10, 0), (30, 1), (20, 3)] {
            heap.push(Deadline {
                at: base + Duration::from_millis(ms),
                node,
                generation: 1,
            });
        }
        let fired: Vec<(u64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|d| (d.at.duration_since(base).as_millis() as u64, d.node))
            .collect();
        assert_eq!(fired, vec![(10, 0), (20, 3), (30, 1), (30, 2)]);
    }
}
