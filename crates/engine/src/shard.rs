//! Shards: a bounded pool of OS threads, each owning a slice of node
//! states, in two layers. [`Shard`] is a clock-free state machine over
//! the nodes, their shedding deadlines (a min-heap of `Reverse((Instant,
//! node, generation))` entries), the rest of a bundle, the outbox and the
//! durability bookkeeping; it reads time only from the `now` passed to
//! [`Shard::handle`] and [`Shard::service`], so its tests run on virtual
//! `Instant`s, and it holds no channel sender. [`run_shard`] is its one
//! wall-clock driver, and the only code here that receives or sends.
//!
//! Where the seed engine spawned one OS thread per FSPS node — capping
//! experiments at a few dozen nodes — a shard interleaves thousands of
//! [`NodeState`]s on one thread. [`Shard::service`] fires every due
//! deadline *before* the driver takes the next message, so a sustained
//! input flood can never starve the overload detector (the seed worker's
//! drain loop `continue`d on every message and postponed the tick
//! indefinitely under exactly the overload it was meant to detect).
//!
//! Bulk traffic arrives **bundled**: the source pump sends each shard one
//! [`EngineMsg::Bundle`] of batches per 1 ms beat, and the coordinator one
//! bundle of SIC updates per round, so the driver wakes per beat and per
//! round rather than per item. Each [`Shard::service`] handles at most
//! `MAX_SWEEP` entries of a pending bundle, after the due ticks, and the
//! driver takes no new message until the bundle is done: message order
//! and the flood guarantee hold for a bundle of any size.
//!
//! Bulk traffic also **leaves** bundled: the ticks of a service pass emit
//! into the shard's outbox, and [`Shard::outbox`] hands the driver at most
//! one message per destination — one [`Outgoing::Results`] of every
//! result the pass emitted, for the engine's control loop, and one
//! [`Outgoing::Bundle`] per shard whose nodes the pass routed batches to.
//!
//! Shards start **empty**: nodes install on first
//! [`EngineMsg::Attach`] and tear down when an [`EngineMsg::Detach`]
//! removes their last fragment — the runtime query-churn path. Teardown
//! freezes the node's counters and abandons its deadline-heap entry
//! (entries are generation-tagged, so a stale deadline popped after a
//! teardown or re-install is discarded instead of ticking — no heap
//! leak: a detached node never ticks again).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use std::vec::IntoIter;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use themis_core::prelude::*;
use themis_core::wal;
use themis_operators::op::Emission;
use themis_query::prelude::*;

use crate::engine::EngineError;
use crate::messages::{AttachFragment, Bundle, EngineMsg, ResultEvent, ShardMsg};
use crate::node_state::{downstream_batch, EmissionSink, NodeState};

/// Bundle entries a shard handles per [`Shard::service`]: a coordinator
/// round's bundle carries thousands of updates, and a tick due meanwhile
/// waits for at most this many (the tick-starvation fix, kept inside a
/// bundle).
const MAX_SWEEP: usize = 512;

/// First-tick stagger slots: the `i`-th node installed on a shard fires
/// its first tick `(i % SLOTS) / SLOTS` of an interval into the schedule,
/// so thousands of co-located nodes do not all tick at the same instant.
const STAGGER_SLOTS: u64 = 32;

/// A message a service pass leaves for its driver to send.
#[derive(Debug)]
pub enum Outgoing {
    /// Every result the pass emitted, in emission order, for the engine's
    /// control loop.
    Results(Vec<ResultEvent>),
    /// Every batch the pass routed to nodes of shard `.0`, to be sent
    /// there as one [`EngineMsg::Bundle`].
    Bundle(usize, Bundle),
}

/// What a shard's ticks emitted since the driver last took it: results,
/// and downstream batches by destination shard.
struct Outbox {
    results: Vec<ResultEvent>,
    /// Index = destination shard.
    bundles: Vec<Bundle>,
}

impl EmissionSink for Outbox {
    fn route(
        &mut self,
        query: QueryId,
        fragment: usize,
        downstream: Option<(usize, usize)>,
        emissions: Vec<Emission>,
    ) {
        for e in emissions {
            match downstream {
                Some((node, to)) => {
                    let shard = shard_of(node, self.bundles.len());
                    let rb = downstream_batch(query, fragment, to, e);
                    self.bundles[shard].batches.push((node, rb));
                }
                None => self.results.push(ResultEvent {
                    query,
                    sic: e.sic(),
                }),
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

/// What a shard returns when it finishes.
#[derive(Debug, Default)]
pub struct ShardOutcome {
    /// `(global node, counters)` per node that was ever installed (one
    /// merged report per node across re-installs).
    pub reports: Vec<(usize, NodeReport)>,
    /// The durability failures the shard served through
    /// ([`EngineError::Durability`], the first of each operation).
    pub errors: Vec<EngineError>,
    /// Checkpoints written (every hosted node snapshotted), on cadence or
    /// early. A checkpoint whose log failed to open or write is not
    /// counted; its failure is in [`ShardOutcome::errors`].
    pub checkpoints: u64,
    /// Of [`ShardOutcome::checkpoints`], those the divergence bound cut
    /// before the cadence was due.
    pub early_checkpoints: u64,
    /// Messages handed to [`Shard::handle`] (a bundle counts once).
    pub mailbox_messages: u64,
}

/// Runs a shard on the wall clock until an [`EngineMsg::Shutdown`] arrives
/// (or every sender is gone) and returns its [`ShardOutcome`]. After each
/// service pass it sends the pass's [`Shard::outbox`]: results on
/// `results_tx`, each bundle on its shard's sender in `shard_txs` (index =
/// shard; this shard's own sender included, for fragments feeding a
/// shard-mate).
///
/// The shard starts with no nodes; [`EngineMsg::Attach`] installs them
/// (the engine sends the initial scenario's attaches right after spawning
/// the thread, so "static" deployments take this same path).
pub fn run_shard(
    shard_txs: Vec<Sender<ShardMsg>>,
    results_tx: Sender<Vec<ResultEvent>>,
    rx: Receiver<ShardMsg>,
    epoch: Instant,
    durability: Option<ShardDurability>,
) -> ShardOutcome {
    // A closed peer means shutdown is racing; dropping a message is
    // equivalent to shedding what it carries.
    let send = |shard: &mut Shard| {
        for out in shard.outbox() {
            match out {
                Outgoing::Results(events) => {
                    let _ = results_tx.send(events);
                }
                Outgoing::Bundle(to, bundle) => {
                    let msg = EngineMsg::Bundle(bundle);
                    let _ = shard_txs[to].send(ShardMsg { node: 0, msg });
                }
            }
        }
    };
    let mut shard = Shard::new(shard_txs.len(), epoch, durability, Instant::now());
    loop {
        // Due ticks (and a due checkpoint) come before every receive: the
        // deadline, not channel pressure, decides when the detector runs.
        let now = Instant::now();
        let next = shard.service(now);
        send(&mut shard);
        if next == Some(now) {
            // A bundle is partly handled: finish it before the next message.
            continue;
        }
        // With no node installed nothing is due until a message arrives: a
        // timeout past any representable instant blocks.
        let timeout = next.map_or(Duration::MAX, |at| {
            at.saturating_duration_since(Instant::now())
        });
        match rx.recv_timeout(timeout) {
            Ok(msg) => {
                if !shard.handle(Instant::now(), msg) {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    shard.finish()
}

/// A shard's state machine, on the caller's clock: [`Shard::handle`] takes
/// one message, [`Shard::service`] does the work due at `now`,
/// [`Shard::outbox`] hands over what that work emitted, and
/// [`Shard::finish`] returns the counters. [`run_shard`] drives it on the
/// wall clock.
pub struct Shard {
    epoch: Instant,
    durability: Option<ShardDurability>,
    out: ShardOutcome,
    /// Every node ever installed here, by global index.
    slots: HashMap<usize, Slot>,
    /// Tick deadlines `(at, node, generation)`, earliest first and the
    /// lower node first on a tie. An entry whose generation is not its
    /// slot's current one is stale and discarded on pop.
    heap: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    pending: Option<Pending>,
    outbox: Outbox,
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

/// The unhandled rest of a bundle: its SIC updates, then its batches.
type Pending = (IntoIter<SicUpdate>, IntoIter<(usize, RoutedBatch)>);

/// One global node on a shard: its live incarnation (if installed), the
/// generation tagging that incarnation's deadline, and the merged counters
/// of its retired incarnations.
#[derive(Default)]
struct Slot {
    state: Option<NodeState>,
    generation: u64,
    retired: NodeReport,
}

impl Slot {
    /// Tears the live incarnation down (churn, crash, finish): its counters
    /// fold into the node's total, and the generation bump invalidates its
    /// pending deadline.
    fn retire(&mut self) {
        if let Some(state) = self.state.take() {
            self.retired.absorb(&state.core.stats);
        }
        self.generation += 1;
    }
}

impl Shard {
    /// An empty shard of a pool of `shards` (so the outbox can bundle
    /// downstream batches by destination shard) whose node logical clocks
    /// count from `epoch`, with its first checkpoint (when durable) one
    /// cadence after `now`.
    pub fn new(
        shards: usize,
        epoch: Instant,
        durability: Option<ShardDurability>,
        now: Instant,
    ) -> Self {
        let bundles = (0..shards.max(1)).map(|_| Bundle::default()).collect();
        Shard {
            epoch,
            next_checkpoint: durability.as_ref().map(|d| now + d.every),
            durability,
            out: ShardOutcome::default(),
            slots: HashMap::new(),
            heap: BinaryHeap::new(),
            pending: None,
            outbox: Outbox {
                results: Vec::new(),
                bundles,
            },
            installed_seq: 0,
            log: None,
            crashed: false,
            diverged: false,
        }
    }

    /// Fires every tick due at `now` in deadline order, handles up to
    /// `MAX_SWEEP` entries of a pending bundle, then checkpoints when the
    /// cadence is due or a SIC update diverged. Returns `Some(now)` while
    /// bundle entries remain (call again before the next
    /// [`Shard::handle`]), else the earliest tick deadline (`None` with no
    /// node installed).
    ///
    /// A ticked node's deadline moves strictly past `now` (NodeState
    /// clamps the interval to >= 1 us), so each node fires at most once per
    /// call and no node re-fires ahead of a due shard-mate. The cap of one
    /// firing per installed node still ends the call should a deadline
    /// fail to move (the reschedule saturates at `u32::MAX` periods).
    pub fn service(&mut self, now: Instant) -> Option<Instant> {
        let mut fired = 0;
        while fired < self.slots.len() {
            let Some(&Reverse((at, node, generation))) = self.heap.peek() else {
                break;
            };
            if at > now {
                break;
            }
            self.heap.pop();
            // Stale entry (node torn down or re-installed): discard — the
            // lazy-deletion arm of the churn path.
            let slot = self
                .slots
                .get_mut(&node)
                .filter(|s| s.generation == generation);
            let Some(state) = slot.and_then(|s| s.state.as_mut()) else {
                continue;
            };
            state.tick(now, self.epoch, &mut self.outbox);
            self.heap
                .push(Reverse((state.next_tick(), node, generation)));
            fired += 1;
        }
        let pending = self.sweep(now, MAX_SWEEP);
        self.checkpoint(now);
        if pending {
            Some(now)
        } else {
            self.heap.peek().map(|&Reverse((at, ..))| at)
        }
    }

    /// Takes what the ticks since the last call emitted, as at most one
    /// message per destination: one [`Outgoing::Results`] when any result
    /// was emitted, then one [`Outgoing::Bundle`] per shard that any
    /// downstream batch is bound for. Empty when nothing was emitted.
    /// [`Shard::handle`] never emits, so taking the outbox after each
    /// [`Shard::service`] takes everything.
    pub fn outbox(&mut self) -> impl Iterator<Item = Outgoing> + '_ {
        let Outbox { results, bundles } = &mut self.outbox;
        let results = (!results.is_empty()).then(|| Outgoing::Results(std::mem::take(results)));
        let bundles = bundles.iter_mut().enumerate().filter_map(|(to, bundle)| {
            (!bundle.is_empty()).then(|| Outgoing::Bundle(to, std::mem::take(bundle)))
        });
        results.into_iter().chain(bundles)
    }

    /// Handles one message at `now`; `false` when the shard must stop. A
    /// bundle is only stored: [`Shard::service`] handles its entries. A
    /// message handed while a bundle is still pending first finishes that
    /// bundle, without the ticks in between.
    pub fn handle(&mut self, now: Instant, msg: ShardMsg) -> bool {
        self.out.mailbox_messages += 1;
        self.sweep(now, usize::MAX);
        let ShardMsg { node, msg } = msg;
        match msg {
            EngineMsg::Shutdown => return false,
            EngineMsg::Batch(rb) => self.enqueue(now, node, rb),
            EngineMsg::Sic(update) => self.apply_sic(node, &update),
            EngineMsg::Bundle(bundle) => {
                self.pending = Some((bundle.sic.into_iter(), bundle.batches.into_iter()));
            }
            EngineMsg::Attach(attach) => {
                debug_assert_eq!(node, attach.node, "attach addressed to its node");
                self.attach(now, attach);
            }
            EngineMsg::Detach { query } => self.detach(node, query),
            EngineMsg::Crash => self.crash(),
            EngineMsg::Recover { dir, shard } => self.recover(now, &dir, shard),
        }
        true
    }

    /// Retires every node still installed and returns the outcome. Entries
    /// of a bundle still pending are dropped, like messages left in the
    /// channel.
    pub fn finish(self) -> ShardOutcome {
        let mut out = self.out;
        for (node, mut slot) in self.slots {
            slot.retire();
            out.reports.push((node, slot.retired));
        }
        out
    }

    /// Handles up to `limit` entries of the pending bundle in order;
    /// `true` while some remain.
    fn sweep(&mut self, now: Instant, limit: usize) -> bool {
        let Some((mut sic, mut batches)) = self.pending.take() else {
            return false;
        };
        for _ in 0..limit {
            if let Some(update) = sic.next() {
                self.apply_sic(update.node.index(), &update);
            } else if let Some((node, rb)) = batches.next() {
                self.enqueue(now, node, rb);
            } else {
                return false;
            }
        }
        let more = sic.len() + batches.len() > 0;
        if more {
            self.pending = Some((sic, batches));
        }
        more
    }

    /// Checkpoints every hosted node on cadence, or early when a SIC
    /// update left some query further than the divergence bound from its
    /// checkpointed value (AF-Stream: bound the deviation instead of
    /// logging everything). Only a written checkpoint counts, and only a
    /// written one resets the nodes' divergence.
    fn checkpoint(&mut self, now: Instant) {
        let early = std::mem::take(&mut self.diverged);
        let Some(d) = self.durability.as_ref().filter(|_| !self.crashed) else {
            return;
        };
        let due = self.next_checkpoint.is_some_and(|t| now >= t);
        if !due && !early {
            return;
        }
        let snapshots: Vec<wal::NodeSnapshot> = self
            .slots
            .values()
            .filter_map(|s| s.state.as_ref())
            .map(NodeState::snapshot)
            .collect();
        if snapshots.is_empty() {
            return;
        }
        self.next_checkpoint = Some(now + d.every);
        let Some(log) = open_log(&mut self.log, d, &mut self.out.errors) else {
            return;
        };
        match log.checkpoint(&snapshots) {
            Ok(()) => {
                for snapshot in &snapshots {
                    if let Some(state) = self.state_mut(snapshot.node) {
                        state.mark_checkpointed(snapshot);
                    }
                }
                self.out.checkpoints += 1;
                self.out.early_checkpoints += u64::from(!due);
            }
            Err(e) => durability_error(&mut self.out.errors, d.shard, "checkpoint", &e),
        }
    }

    fn state_mut(&mut self, node: usize) -> Option<&mut NodeState> {
        self.slots.get_mut(&node).and_then(|s| s.state.as_mut())
    }

    /// Buffers a data batch on `node`, stamped with its arrival time.
    /// Traffic for a node this shard does not host (torn down, crashed)
    /// is dropped — equivalent to shedding it.
    fn enqueue(&mut self, now: Instant, node: usize, rb: RoutedBatch) {
        let ts = Timestamp(now.saturating_duration_since(self.epoch).as_micros() as u64);
        if let Some(state) = self.state_mut(node) {
            state.enqueue(rb, ts);
        }
    }

    /// Applies a coordinator update to `node`, logs it as a WAL delta, and
    /// flags an early checkpoint when it crossed the divergence bound.
    fn apply_sic(&mut self, node: usize, update: &SicUpdate) {
        let Some(state) = self.state_mut(node) else {
            return;
        };
        state.apply_sic(update);
        let drift = state.sic_drift();
        let Some(d) = self.durability.as_ref().filter(|_| !self.crashed) else {
            return;
        };
        self.diverged |= d.sic_bound > 0.0 && drift > d.sic_bound;
        let delta = wal::SicDelta {
            node,
            query: update.query,
            sic: update.sic,
        };
        let log = open_log(&mut self.log, d, &mut self.out.errors);
        if let Some(Err(e)) = log.map(|l| l.append(&delta)) {
            durability_error(&mut self.out.errors, d.shard, "append", &e);
        }
    }

    /// Installs a fragment, installing its node first when absent (with a
    /// staggered first deadline).
    fn attach(&mut self, now: Instant, attach: AttachFragment) {
        let AttachFragment {
            node,
            config,
            query,
            fragment,
            downstream,
        } = attach;
        let slot = self.slots.entry(node).or_default();
        if slot.state.is_none() {
            let interval = Duration::from_micros(config.interval.as_micros().max(1));
            let stagger = self.installed_seq % STAGGER_SLOTS;
            self.installed_seq += 1;
            let first_tick =
                now + interval + interval.mul_f64(stagger as f64 / STAGGER_SLOTS as f64);
            slot.generation += 1;
            self.heap.push(Reverse((first_tick, node, slot.generation)));
            slot.state = Some(NodeState::new(config, node, first_tick));
        }
        let state = slot.state.as_mut().expect("installed above");
        state.attach_fragment(&query, fragment, downstream);
    }

    /// Removes `query`'s fragments from `node`, tearing the node down when
    /// it hosts nothing else.
    fn detach(&mut self, node: usize, query: QueryId) {
        let Some(slot) = self.slots.get_mut(&node) else {
            return;
        };
        if slot
            .state
            .as_mut()
            .is_some_and(|s| s.core.detach(query) == 0)
        {
            slot.retire();
        }
    }

    /// Simulated process death: every node's live state is gone (counters
    /// survive for final accounting, as for a torn-down node) and no
    /// durability write happens again until Recover. In-flight traffic to
    /// the dead nodes is silently discarded.
    fn crash(&mut self) {
        self.crashed = true;
        self.log = None;
        self.heap.clear();
        self.slots.values_mut().for_each(Slot::retire);
    }

    /// Arrives after the engine re-attached the dead nodes' fragments:
    /// overlays the checkpointed state, replays the delta tail (absolute
    /// values; last write wins), and resumes durability writes.
    fn recover(&mut self, now: Instant, dir: &std::path::Path, shard: usize) {
        self.crashed = false;
        match wal::restore_shard(dir, shard) {
            Ok(Some(restore)) => {
                for snap in &restore.snapshots {
                    if let Some(state) = self.state_mut(snap.node) {
                        state.core.restore(snap);
                    }
                }
                for delta in &restore.deltas {
                    if let Some(state) = self.state_mut(delta.node) {
                        state.core.set_sic(delta.query, delta.sic);
                    }
                }
            }
            Ok(None) => {}
            Err(e) => durability_error(&mut self.out.errors, shard, "restore", &e),
        }
        self.next_checkpoint = self.durability.as_ref().map(|d| now + d.every);
    }
}

/// The shard's durable log, opened on first use. A failed open is
/// recorded instead of failing the shard (an undurable engine keeps
/// serving traffic) and retried on the next write.
fn open_log<'a>(
    log: &'a mut Option<wal::ShardLog>,
    d: &ShardDurability,
    errors: &mut Vec<EngineError>,
) -> Option<&'a mut wal::ShardLog> {
    if log.is_none() {
        match wal::ShardLog::create(&d.dir, d.shard) {
            Ok(opened) => *log = Some(opened),
            Err(e) => durability_error(errors, d.shard, "open", &e),
        }
    }
    log.as_mut()
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
    use crate::messages::Bundle;
    use crate::node_state::NodeConfig;
    use std::sync::{Arc, Mutex};

    #[test]
    fn every_node_lands_on_exactly_one_shard() {
        for (n_nodes, n_shards) in [(1usize, 1usize), (7, 3), (1024, 8), (5, 16)] {
            // Each node has exactly one shard, and it is in range.
            let mut counts = vec![0usize; n_shards];
            for n in 0..n_nodes {
                counts[shard_of(n, n_shards)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), n_nodes);
            // Round-robin balance: shard sizes differ by at most one.
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max - min <= 1, "{n_nodes}x{n_shards}: {counts:?}");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(shard_of(5, 0), 0);
    }

    const MS: Duration = Duration::from_millis(1);

    /// A node shedding every `interval_ms` with its threshold pinned to
    /// `capacity` tuples, so no count depends on measured cost.
    fn config(interval_ms: u64, capacity: usize) -> NodeConfig {
        NodeConfig {
            id: NodeId(0),
            interval: TimeDelta::from_millis(interval_ms),
            stw: StwConfig::PAPER_DEFAULT,
            shedder: Policy::default().build(11),
            synthetic_cost: TimeDelta::ZERO,
            initial_capacity: capacity,
            fixed_capacity: Some(capacity),
            pool: None,
        }
    }

    /// The only shard of its pool, empty, whose clock starts at the
    /// returned `t0`.
    fn shard(durability: Option<ShardDurability>) -> (Shard, Instant) {
        let t0 = Instant::now();
        (Shard::new(1, t0, durability, t0), t0)
    }

    /// One single-fragment AVG query per id.
    fn queries(n: u32) -> Vec<Arc<QuerySpec>> {
        let mut ids = IdGen::new();
        (0..n)
            .map(|q| Arc::new(Template::Avg.build(QueryId(q), &mut ids)))
            .collect()
    }

    fn msg(node: usize, msg: EngineMsg) -> ShardMsg {
        ShardMsg { node, msg }
    }

    fn attach(node: usize, config: NodeConfig, query: &Arc<QuerySpec>) -> ShardMsg {
        let fragment = AttachFragment {
            node,
            config,
            query: query.clone(),
            fragment: 0,
            downstream: None,
        };
        msg(node, EngineMsg::Attach(fragment))
    }

    /// A source batch of `tuples` tuples for `query`'s only fragment.
    fn batch(query: &QuerySpec, tuples: usize) -> RoutedBatch {
        let src = query.sources[0].id;
        let tuples = (0..tuples)
            .map(|j| Tuple::measurement(Timestamp(0), Sic(0.001), j as f64))
            .collect();
        RoutedBatch {
            query: query.id,
            fragment: 0,
            ingress: Ingress::Source(src),
            batch: Batch::from_source(query.id, src, Timestamp(0), tuples),
        }
    }

    fn sic(query: QueryId, node: usize, sic: f64) -> SicUpdate {
        SicUpdate {
            query,
            node: NodeId(node as u32),
            sic: Sic(sic),
        }
    }

    fn reports(shard: Shard) -> HashMap<usize, NodeReport> {
        shard.finish().reports.into_iter().collect()
    }

    /// Regression (tick starvation): the seed worker `continue`d on every
    /// received message, so a queue that never emptied postponed the
    /// detector tick until the flood was over. Here 1 000 five-tuple
    /// batches arrive one per 100 us, each followed by a service as the
    /// driver does: the 5 ms deadline fires 19 times while the flood is
    /// still arriving, each time over the pinned 100-tuple capacity.
    #[test]
    fn flooded_shard_still_sheds() {
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(None);
        shard.handle(t0, attach(0, config(5, 100), q));
        for i in 0..1_000 {
            let now = t0 + i * Duration::from_micros(100);
            shard.handle(now, msg(0, EngineMsg::Batch(batch(q, 5))));
            shard.service(now);
        }
        let report = &reports(shard)[&0];
        assert_eq!(report.arrived_tuples, 5_000);
        // Ticks at 5, 10, ..., 95 ms: the first sees 51 batches, the
        // rest 50 each; 49 batches arrive after the last.
        assert_eq!(report.ticks, 19);
        assert_eq!(report.shed_invocations, 19);
        assert_eq!(report.kept_tuples, 19 * 100);
        assert_eq!(report.shed_tuples, 255 - 100 + 18 * (250 - 100));
    }

    /// Bundles keep the tick-starvation fix: a bundle of 2 000 SIC
    /// updates, then one of 5 120 five-tuple batches, each served
    /// `MAX_SWEEP` entries per service at one service per millisecond.
    /// Both 5 ms ticks fire while the batch bundle is still pending.
    #[test]
    fn bundled_flood_still_ticks_and_sheds() {
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(None);
        let updates = (0..2_000).map(|i| sic(q.id, 0, f64::from(i % 100) / 100.0));
        let bundles = [
            Bundle {
                sic: updates.collect(),
                ..Bundle::default()
            },
            Bundle {
                batches: (0..5_120).map(|_| (0, batch(q, 5))).collect(),
                ..Bundle::default()
            },
        ];
        let mut now = t0;
        shard.handle(now, attach(0, config(5, 100), q));
        let mut services = 0;
        for bundle in bundles {
            shard.handle(now, msg(0, EngineMsg::Bundle(bundle)));
            while shard.service(now) == Some(now) {
                now += MS;
                services += 1;
            }
        }
        // 2 000 updates take four sweeps, 5 120 batches ten.
        assert_eq!(services, 3 + 9);
        assert_eq!(now, t0 + 12 * MS);
        assert!(!shard.handle(now, msg(0, EngineMsg::Shutdown)));
        let out = shard.finish();
        assert_eq!(out.mailbox_messages, 4, "attach, two bundles, shutdown");
        let report = &out.reports[0].1;
        assert_eq!(report.arrived_tuples, 25_600);
        assert_eq!(report.sic_updates, 2_000);
        // At 5 ms 1 024 batches are in, at 10 ms 2 560 more.
        assert_eq!(report.ticks, 2, "{report:?}");
        assert_eq!(report.shed_invocations, 2);
        assert_eq!(report.shed_tuples, 5_120 + 12_800 - 2 * 100);
    }

    /// Regression (tick drift/storm): a tick served long after its
    /// deadline — an overrunning shard-mate or a flood held it up — fires
    /// once, counts as one late tick and reschedules to the first period
    /// boundary after `now`; the seed's `next_tick += interval` left five
    /// deadlines in the past and stormed.
    #[test]
    fn overrunning_tick_does_not_storm() {
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(None);
        shard.handle(t0, attach(0, config(20, 100), q));
        assert_eq!(shard.service(t0), Some(t0 + 20 * MS));
        // 105 ms late: the next boundary past 125 ms is 140 ms.
        assert_eq!(shard.service(t0 + 125 * MS), Some(t0 + 140 * MS));
        assert_eq!(shard.service(t0 + 125 * MS), Some(t0 + 140 * MS));
        assert_eq!(shard.service(t0 + 140 * MS), Some(t0 + 160 * MS));
        let report = &reports(shard)[&0];
        assert_eq!((report.ticks, report.late_ticks), (2, 1));
    }

    /// A zero shedding interval cannot livelock the shard: it is clamped
    /// to 1 us, so each service fires the node once and returns a deadline
    /// strictly after `now`.
    #[test]
    fn zero_interval_still_terminates() {
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(None);
        shard.handle(t0, attach(0, config(0, 100), q));
        let us = Duration::from_micros(1);
        for i in 0..100 {
            let now = t0 + i * us;
            shard.handle(now, msg(0, EngineMsg::Batch(batch(q, 1))));
            assert_eq!(shard.service(now), Some(now + us));
        }
        let report = &reports(shard)[&0];
        assert_eq!(report.arrived_tuples, 100);
        assert_eq!(report.ticks, 99, "one per service from 1 us on");
    }

    /// A zero-interval node sharing a shard does not monopolize the
    /// deadline heap: its rescheduled deadline lands after `now`, so a
    /// 5 ms shard-mate (first deadline 5 ms + 1/32 stagger) still ticks
    /// on every period.
    #[test]
    fn zero_interval_node_does_not_starve_shard_mates() {
        let qs = queries(2);
        let (mut shard, t0) = shard(None);
        shard.handle(t0, attach(0, config(0, 100), &qs[0]));
        shard.handle(t0, attach(1, config(5, 100), &qs[1]));
        for ms in 1..=60 {
            shard.service(t0 + ms * MS);
        }
        let reports = reports(shard);
        assert_eq!(reports[&0].ticks, 60);
        assert_eq!(reports[&1].ticks, 11, "6, 11, ..., 56 ms");
    }

    /// Churn on one shard: a detached node's state is torn down, its
    /// counters freeze, and its abandoned deadline never ticks it again; a
    /// re-attach starts a fresh incarnation whose counters merge into the
    /// same per-node report. The last re-attach comes before the old
    /// incarnation's deadline is popped, so only its generation keeps that
    /// stale entry from ticking the new one.
    #[test]
    fn detach_tears_down_and_reattach_merges() {
        let qs = queries(2);
        let (mut shard, t0) = shard(None);
        let run = |shard: &mut Shard, ms: std::ops::RangeInclusive<u32>| {
            for ms in ms {
                shard.service(t0 + ms * MS);
            }
        };
        // Node 0 hosts the resident query; node 1 the churn query.
        shard.handle(t0, attach(0, config(5, 100), &qs[0]));
        shard.handle(t0, attach(1, config(5, 100), &qs[1]));
        shard.handle(t0, msg(1, EngineMsg::Batch(batch(&qs[1], 3))));
        run(&mut shard, 1..=40);
        shard.handle(t0 + 40 * MS, msg(1, EngineMsg::Detach { query: qs[1].id }));
        // Traffic for the torn-down node is dropped.
        shard.handle(t0 + 40 * MS, msg(1, EngineMsg::Batch(batch(&qs[1], 3))));
        run(&mut shard, 41..=120);
        shard.handle(t0 + 120 * MS, attach(1, config(5, 100), &qs[1]));
        shard.handle(t0 + 120 * MS, msg(1, EngineMsg::Batch(batch(&qs[1], 3))));
        run(&mut shard, 121..=160);
        shard.handle(t0 + 160 * MS, msg(1, EngineMsg::Detach { query: qs[1].id }));
        shard.handle(t0 + 160 * MS, attach(1, config(5, 100), &qs[1]));
        run(&mut shard, 161..=200);
        let reports = reports(shard);
        assert_eq!(reports[&0].ticks, 40, "resident ticked throughout");
        // 6, 11, ..., 36 ms; then (stagger 2/32) 126, 131, ..., 156 ms; then
        // (stagger 3/32) 166, 171, ..., 196 ms. A leaked deadline would add
        // 16 ticks across the gap.
        assert_eq!(reports[&1].ticks, 7 + 7 + 7);
        assert_eq!(reports[&1].arrived_tuples, 3 + 3);
    }

    /// Due nodes fire in deadline order, and a tie goes to the lower node
    /// index whatever the install order. The shedders record the order:
    /// every node holds one tuple over a zero capacity.
    #[test]
    fn due_nodes_fire_in_deadline_order() {
        struct Recording(usize, Arc<Mutex<Vec<usize>>>, Box<dyn Shedder>);
        impl Shedder for Recording {
            fn select_to_keep(&mut self, c: usize, qs: &[QueryBufferState]) -> ShedDecision {
                self.1.lock().unwrap().push(self.0);
                self.2.select_to_keep(c, qs)
            }
        }
        let fired = Arc::new(Mutex::new(Vec::new()));
        let qs = queries(4);
        let (mut shard, t0) = shard(None);
        // `(node, interval)` in install order; install `i` is staggered by
        // i/32 of its interval: deadlines 33, 33, 17 and 26.25 ms.
        for (node, interval_ms) in [(2, 33), (1, 32), (0, 16), (3, 24)] {
            let mut config = config(interval_ms, 0);
            config.shedder = Box::new(Recording(node, fired.clone(), config.shedder));
            shard.handle(t0, attach(node, config, &qs[node]));
            shard.handle(t0, msg(node, EngineMsg::Batch(batch(&qs[node], 1))));
        }
        // Node 0 served 23 ms late skips to 17 + 2 x 16 ms, the earliest.
        assert_eq!(shard.service(t0 + 40 * MS), Some(t0 + 49 * MS));
        assert_eq!(*fired.lock().unwrap(), vec![0, 3, 1, 2]);
    }

    /// Shard 0 of a pool of two whose node clocks count from two seconds
    /// before the returned `t0`. A tick stamps its logical time from the
    /// wall clock, so at any `now` a pane holding tuples stamped 0 (the
    /// first second's window) closes on the node's next tick.
    fn late_shard() -> (Shard, Instant) {
        let t0 = Instant::now();
        let epoch = t0
            .checked_sub(Duration::from_secs(2))
            .expect("host up for two seconds");
        (Shard::new(2, epoch, None, t0), t0)
    }

    /// Installs `query` on `node` (shedding every 5 ms, never overloaded)
    /// feeding `downstream`, and buffers one three-tuple batch for it.
    fn feed(
        shard: &mut Shard,
        t0: Instant,
        node: usize,
        q: &Arc<QuerySpec>,
        downstream: Option<(usize, usize)>,
    ) {
        let fragment = AttachFragment {
            node,
            config: config(5, 1_000),
            query: q.clone(),
            fragment: 0,
            downstream,
        };
        shard.handle(t0, msg(node, EngineMsg::Attach(fragment)));
        shard.handle(t0, msg(node, EngineMsg::Batch(batch(q, 3))));
    }

    /// One service pass in which two nodes close 40 and 24 result panes
    /// leaves one results message of 64 events, one per query; the next
    /// pass emits nothing and leaves nothing.
    #[test]
    fn a_pass_sends_its_results_as_one_message() {
        let qs = queries(64);
        let (mut shard, t0) = late_shard();
        for (i, q) in qs.iter().enumerate() {
            feed(&mut shard, t0, if i < 40 { 0 } else { 2 }, q, None);
        }
        shard.service(t0 + 10 * MS);
        let out: Vec<Outgoing> = shard.outbox().collect();
        assert_eq!(out.len(), 1, "{out:?}");
        let Outgoing::Results(events) = &out[0] else {
            panic!("expected results, got {out:?}");
        };
        let mut queries: Vec<QueryId> = events.iter().map(|e| e.query).collect();
        queries.sort();
        assert_eq!(queries, qs.iter().map(|q| q.id).collect::<Vec<_>>());
        shard.service(t0 + 20 * MS);
        assert_eq!(shard.outbox().count(), 0);
        let reports = reports(shard);
        assert_eq!((reports[&0].ticks, reports[&2].ticks), (2, 2));
    }

    /// Twelve fragments on node 0 closing one pane each in one pass, eight
    /// feeding nodes 1 and 3 (shard 1) and four feeding node 2 (shard 0),
    /// leave one bundle per destination shard: 4 batches for shard 0 and
    /// 8 for shard 1, and no results message.
    #[test]
    fn routed_batches_leave_as_one_bundle_per_shard() {
        let qs = queries(12);
        let (mut shard, t0) = late_shard();
        for (i, q) in qs.iter().enumerate() {
            let to = [1, 3, 2][i % 3];
            feed(&mut shard, t0, 0, q, Some((to, 0)));
        }
        shard.service(t0 + 10 * MS);
        let mut sizes = Vec::new();
        for out in shard.outbox() {
            let Outgoing::Bundle(to, bundle) = out else {
                panic!("expected bundles only, got {out:?}");
            };
            assert!(bundle.sic.is_empty());
            for (node, rb) in &bundle.batches {
                assert_eq!(shard_of(*node, 2), to);
                assert_eq!((rb.fragment, rb.ingress), (0, Ingress::Upstream(0)));
            }
            sizes.push((to, bundle.batches.len()));
        }
        assert_eq!(sizes, vec![(0, 4), (1, 8)]);
    }

    /// Ticks that close no pane emit nothing, so the pass leaves nothing
    /// to send: here the node clock counts from `t0`, so the buffered
    /// tuples' one-second window stays open through 50 ms of ticks.
    #[test]
    fn a_pass_without_emissions_sends_nothing() {
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(None);
        feed(&mut shard, t0, 0, q, None);
        for ms in 1..=50 {
            shard.service(t0 + ms * MS);
            assert_eq!(shard.outbox().count(), 0, "at {ms} ms");
        }
        assert_eq!(reports(shard)[&0].ticks, 10);
    }

    fn durability(dir: &std::path::Path, every: Duration) -> ShardDurability {
        ShardDurability {
            dir: dir.to_path_buf(),
            shard: 0,
            every,
            sic_bound: 0.5,
        }
    }

    /// Regression (checkpoint storm): the early trigger used to sum SIC
    /// movement over every query a node hosts, so 64 queries each moving
    /// 0.01 per coordinator round crossed a 0.5 bound every round and cut
    /// a full checkpoint each time. Divergence is per query and measured
    /// from the checkpoint: small moves never fire, one large move fires
    /// once. The hour-long cadence leaves only early cuts.
    #[test]
    fn many_small_sic_moves_do_not_storm_checkpoints() {
        let dir = std::env::temp_dir().join(format!("themis-shard-storm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let qs = queries(64);
        let (mut shard, t0) = shard(Some(durability(&dir, Duration::from_secs(3600))));
        for q in &qs {
            shard.handle(t0, attach(0, config(50, 100), q));
        }
        let moves = (1..=20).flat_map(|round| qs.iter().map(move |q| (q.id, 0.01 * round as f64)));
        for (query, to) in moves.chain([(qs[0].id, 0.2 + 0.6)]) {
            shard.handle(t0, msg(0, EngineMsg::Sic(sic(query, 0, to))));
            shard.service(t0);
        }
        let out = shard.finish();
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

    /// Regression (AF-Stream early checkpoint): a checkpoint whose write
    /// failed used to reset the nodes' divergence anyway, so once the disk
    /// recovered the early trigger measured from a checkpoint that was
    /// never written and stayed quiet. Here the first early checkpoint
    /// fails (the durability root is a regular file); after the root is
    /// removed, the next update still diverges from the last written
    /// state (none) and cuts the checkpoint.
    #[test]
    fn a_failed_checkpoint_keeps_the_divergence() {
        let root = std::env::temp_dir().join(format!("themis-shard-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::write(&root, b"a file, not a directory").unwrap();
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(Some(durability(&root, Duration::from_secs(3600))));
        shard.handle(t0, attach(0, config(50, 100), q));
        shard.handle(t0, msg(0, EngineMsg::Sic(sic(q.id, 0, 0.9))));
        shard.service(t0);
        std::fs::remove_file(&root).unwrap();
        shard.handle(t0 + MS, msg(0, EngineMsg::Sic(sic(q.id, 0, 0.95))));
        shard.service(t0 + MS);
        let out = shard.finish();
        let restore = wal::restore_shard(&root, 0).expect("readable log");
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!((out.checkpoints, out.early_checkpoints), (1, 1));
        let restore = restore.expect("the shard logged state");
        assert_eq!(
            restore.snapshots.len(),
            1,
            "the recovered disk holds a snapshot"
        );
        assert_eq!(restore.snapshots[0].sic, vec![(q.id, Sic(0.95))]);
    }

    /// Only a written checkpoint counts: with the durability root a
    /// regular file, neither the five due cadences nor a diverged update
    /// write anything, and the failed open is reported once.
    #[test]
    fn unwritten_checkpoints_are_not_counted() {
        let file = std::env::temp_dir().join(format!("themis-shard-file-{}", std::process::id()));
        std::fs::write(&file, b"a file, not a directory").unwrap();
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(Some(durability(&file, 100 * MS)));
        shard.handle(t0, attach(0, config(50, 100), q));
        shard.handle(t0, msg(0, EngineMsg::Sic(sic(q.id, 0, 0.9))));
        for ms in (0..=500).step_by(100) {
            shard.service(t0 + ms * MS);
        }
        let out = shard.finish();
        let _ = std::fs::remove_file(&file);
        assert_eq!((out.checkpoints, out.early_checkpoints), (0, 0));
        assert_eq!(out.errors.len(), 1, "errors: {:?}", out.errors);
        assert!(matches!(
            out.errors[0],
            EngineError::Durability { op: "open", .. }
        ));
    }
}
