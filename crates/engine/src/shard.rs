//! Shards: a bounded pool of OS threads, each owning a slice of node
//! states and the sources that feed them, in two layers. [`Shard`] is a
//! clock-free state machine over the nodes, their shedding deadlines (a
//! min-heap of `Reverse((Instant, node, generation))` entries), the
//! shard's source pump, the rest of a bundle, the outbox and the
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
//! **Sources are local.** Each [`EngineMsg::Attach`] carries how its
//! fragment's sources emit, and the shard's own [`SourcePump`] drives
//! them. Inside the run window the last [`EngineMsg::Run`] opened,
//! [`Shard::service`] sweeps the pump at most once per 1 ms beat
//! (`PUMP_BEAT`), after the ticks due at the same `now`, and enqueues
//! each due batch straight into its node, stamped with the sweep's
//! logical time (`now` minus the epoch). A source batch is therefore
//! emitted, stamped, shed or windowed and recycled on one thread; a batch
//! emitted at a tick's instant waits for the node's next tick, as one
//! that arrived in a message would. An [`EngineMsg::Detach`] stops the
//! query's sources. A crash keeps them: sources are producers outside the
//! dead process, so they go on emitting into the dropped nodes, and the
//! restart's re-attach carries none.
//!
//! Other bulk traffic arrives **bundled**: the coordinator sends each
//! shard one [`EngineMsg::Bundle`] of SIC updates per round, and each
//! shard service pass one bundle of the batches it routed here, so the
//! driver wakes per round and per pass rather than per item. Each
//! [`Shard::service`] handles at most `MAX_SWEEP` entries of a pending
//! bundle, after the due ticks, and the driver takes no new message
//! until the bundle is done: message order and the flood guarantee hold
//! for a bundle of any size.
//!
//! Bulk traffic also **leaves** bundled: the ticks of a service pass emit
//! into the shard's outbox, and [`Shard::outbox`] hands the driver at most
//! one message per destination — one [`Outgoing::Results`] of every
//! result the pass emitted, for the engine's control loop, and one
//! [`Outgoing::Bundle`] per shard whose nodes the pass routed batches to.
//! The results message also names each node whose shedder ran for the
//! first time in its incarnation during the pass: the coordinator sends
//! SIC updates only to nodes that have shed.
//!
//! Shards start **empty**: nodes install on first
//! [`EngineMsg::Attach`] and tear down when an [`EngineMsg::Detach`]
//! removes their last fragment — the runtime query-churn path. A shard
//! builds each node it installs — on first attach, after a teardown or a
//! crash — from the node recipe it was spawned with. Teardown
//! freezes the node's counters and abandons its deadline-heap entry
//! (entries are generation-tagged, so a stale deadline popped after a
//! teardown or re-install is discarded instead of ticking — no heap
//! leak: a detached node never ticks again).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use std::vec::IntoIter;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use themis_core::prelude::*;
use themis_core::wal;
use themis_operators::op::Emission;
use themis_query::prelude::*;
use themis_workloads::pump::{fragment_bindings, SourcePump};

use crate::engine::EngineError;
use crate::messages::{AttachFragment, Bundle, EngineMsg, PassResults, ResultEvent, ShardMsg};
use crate::node_state::{downstream_batch, tick_period, EmissionSink, NodeConfig, NodeState};

/// Bundle entries a shard handles per [`Shard::service`]: a coordinator
/// round's bundle carries thousands of updates, and a tick due meanwhile
/// waits for at most this many (the tick-starvation fix, kept inside a
/// bundle).
const MAX_SWEEP: usize = 512;

/// The source pump's sweep beat: [`Shard::service`] steps the pump at
/// most once per beat, so a shard whose thousand sources fall due within
/// one millisecond sweeps once, and a batch waits at most one beat (≤ 0.5 %
/// of the paper's 250 ms shedding interval).
const PUMP_BEAT: Duration = Duration::from_millis(1);

/// First-tick stagger slots: the `i`-th node installed on a shard fires
/// its first tick `(i % SLOTS) / SLOTS` of an interval into the schedule,
/// so thousands of co-located nodes do not all tick at the same instant.
const STAGGER_SLOTS: u64 = 32;

/// A message a service pass leaves for its driver to send.
#[derive(Debug)]
pub enum Outgoing {
    /// Every result the pass emitted, in emission order, and the nodes
    /// whose shedder first ran in it, for the engine's control loop.
    Results(PassResults),
    /// Every batch the pass routed to nodes of shard `.0`, to be sent
    /// there as one [`EngineMsg::Bundle`].
    Bundle(usize, Bundle),
}

/// What a shard's ticks emitted since the driver last took it: results
/// (with the nodes that first shed), and downstream batches by destination
/// shard.
struct Outbox {
    results: PassResults,
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
                None => self.results.events.push(ResultEvent {
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
    /// Sweeps of the shard's source pump (at most one per 1 ms beat).
    pub pump_sweeps: u64,
}

/// Runs a shard on the wall clock until an [`EngineMsg::Shutdown`] arrives
/// (or every sender is gone) and returns its [`ShardOutcome`]. After each
/// service pass it sends the pass's [`Shard::outbox`]: results on
/// `results_tx`, each bundle on its shard's sender in `shard_txs` (index =
/// shard; this shard's own sender included, for fragments feeding a
/// shard-mate).
///
/// The shard starts with no nodes; [`EngineMsg::Attach`] installs them,
/// each built by `recipe` (the engine sends the initial scenario's
/// attaches right after spawning the thread, so "static" deployments take
/// this same path). Its pump acquires source batches from `pool`, the pool
/// its nodes recycle into.
pub fn run_shard(
    shard_txs: Vec<Sender<ShardMsg>>,
    results_tx: Sender<PassResults>,
    rx: Receiver<ShardMsg>,
    epoch: Instant,
    durability: Option<ShardDurability>,
    pool: BatchPool,
    recipe: impl Fn(usize) -> NodeConfig + Send + 'static,
) -> ShardOutcome {
    // A closed peer means shutdown is racing; dropping a message is
    // equivalent to shedding what it carries.
    let send = |shard: &mut Shard| {
        for out in shard.outbox() {
            match out {
                Outgoing::Results(results) => {
                    let _ = results_tx.send(results);
                }
                Outgoing::Bundle(to, bundle) => {
                    let msg = EngineMsg::Bundle(bundle);
                    let _ = shard_txs[to].send(ShardMsg { node: 0, msg });
                }
            }
        }
    };
    let mut shard =
        Shard::new(shard_txs.len(), epoch, durability, Instant::now(), recipe).with_pool(pool);
    loop {
        // Due ticks (and a due sweep and checkpoint) come before every
        // receive: the deadline, not channel pressure, decides when the
        // detector runs.
        let now = Instant::now();
        let next = shard.service(now);
        send(&mut shard);
        if next == Some(now) {
            // A bundle is partly handled: finish it before the next message.
            continue;
        }
        // With no node installed and no sweep due in the run window,
        // nothing is due until a message arrives: a timeout past any
        // representable instant blocks.
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
    /// Builds the node a given global node index installs as.
    recipe: Box<dyn Fn(usize) -> NodeConfig + Send>,
    out: ShardOutcome,
    /// Every node ever installed here at `node / shards` (the nodes
    /// [`shard_of`] maps to one shard index it densely), in node order.
    slots: Vec<Slot>,
    /// Tick deadlines `(at, node, generation)`, earliest first and the
    /// lower node first on a tie. An entry whose generation is not its
    /// slot's current one is stale and discarded on pop.
    heap: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    pending: Option<Pending>,
    outbox: Outbox,
    /// The sources feeding this shard's nodes.
    pump: SourcePump,
    /// The end of the run window the last [`EngineMsg::Run`] opened: the
    /// pump sweeps only before it, and never before the first window.
    run_until: Option<Instant>,
    /// When the pump last swept (the epoch before its first sweep).
    last_sweep: Instant,
    /// When the pump sweeps next; `None` while no source is live.
    next_sweep: Option<Instant>,
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
/// generation tagging that incarnation's deadline (0 until first
/// installed), and the merged counters of its retired incarnations.
#[derive(Default)]
struct Slot {
    node: usize,
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
    /// cadence after `now`. Each node it installs is built by `recipe`,
    /// called with the global node index.
    pub fn new(
        shards: usize,
        epoch: Instant,
        durability: Option<ShardDurability>,
        now: Instant,
        recipe: impl Fn(usize) -> NodeConfig + Send + 'static,
    ) -> Self {
        let bundles = (0..shards.max(1)).map(|_| Bundle::default()).collect();
        Shard {
            epoch,
            recipe: Box::new(recipe),
            next_checkpoint: durability.as_ref().map(|d| now + d.every),
            durability,
            out: ShardOutcome::default(),
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            pending: None,
            outbox: Outbox {
                results: PassResults::default(),
                bundles,
            },
            pump: SourcePump::default(),
            run_until: None,
            last_sweep: epoch,
            next_sweep: None,
            installed_seq: 0,
            log: None,
            crashed: false,
            diverged: false,
        }
    }

    /// Has the shard's pump acquire its source batches from `pool`, the
    /// pool its nodes recycle spent and shed batches into. Call before the
    /// first attach.
    pub fn with_pool(mut self, pool: BatchPool) -> Self {
        self.pump = SourcePump::with_pool(pool);
        self
    }

    /// Fires every tick due at `now` in deadline order, then sweeps the
    /// pump when its beat is due inside the run window, handles up to
    /// `MAX_SWEEP` entries of a pending bundle, and checkpoints when the
    /// cadence is due or a SIC update diverged. Returns `Some(now)` while
    /// bundle entries remain (call again before the next
    /// [`Shard::handle`]), else the earliest of the next tick deadline and
    /// the next sweep inside the window (`None` when neither exists).
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
            let at = self.slot_index(node);
            let slot = self
                .slots
                .get_mut(at)
                .filter(|s| s.generation == generation);
            let Some(state) = slot.and_then(|s| s.state.as_mut()) else {
                continue;
            };
            state.tick(now, self.epoch, &mut self.outbox);
            if state.core.first_shed() {
                self.outbox.results.first_shed.push(node);
            }
            self.heap
                .push(Reverse((state.next_tick(), node, generation)));
            fired += 1;
        }
        self.pump_sources(now);
        let pending = self.sweep(now, MAX_SWEEP);
        self.checkpoint(now);
        if pending {
            return Some(now);
        }
        let tick = self.heap.peek().map(|&Reverse((at, ..))| at);
        let in_window = |at: &Instant| self.run_until.is_some_and(|until| *at < until);
        tick.into_iter()
            .chain(self.next_sweep.filter(in_window))
            .min()
    }

    /// Takes what the ticks since the last call emitted, as at most one
    /// message per destination: one [`Outgoing::Results`] when any result
    /// was emitted or any node first shed, then one [`Outgoing::Bundle`]
    /// per shard that any downstream batch is bound for. Empty when
    /// nothing was emitted.
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
            EngineMsg::Attach(attach) => self.attach(now, node, attach),
            EngineMsg::Detach { query } => self.detach(node, query),
            EngineMsg::Crash => self.crash(),
            EngineMsg::Recover { dir, shard } => self.recover(now, &dir, shard),
            EngineMsg::Run { until } => self.run_until = Some(until),
        }
        true
    }

    /// Retires every node still installed and returns the outcome. Entries
    /// of a bundle still pending are dropped, like messages left in the
    /// channel.
    pub fn finish(self) -> ShardOutcome {
        let mut out = self.out;
        for mut slot in self.slots.into_iter().filter(|s| s.generation > 0) {
            slot.retire();
            out.reports.push((slot.node, slot.retired));
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

    /// Sweeps the pump when its beat is due inside the run window: every
    /// batch due by `now` goes straight into its node, stamped with `now`'s
    /// logical time. The next sweep comes at the next due emission, but
    /// not within a beat of this one, so a sweep cut short at the pump's
    /// own cap resumes one beat later.
    fn pump_sources(&mut self, now: Instant) {
        let open = self.run_until.is_some_and(|until| now < until);
        if !open || !self.next_sweep.is_some_and(|at| now >= at) {
            return;
        }
        self.out.pump_sweeps += 1;
        self.last_sweep = now;
        let ts = self.logical(now);
        let (slots, shards) = (&mut self.slots, self.outbox.bundles.len());
        let next = self.pump.step(ts, |node, rb| {
            if let Some(state) = live_state(slots, shards, node) {
                state.enqueue(rb, ts);
            }
        });
        let epoch = self.epoch;
        self.next_sweep =
            next.map(|at| (epoch + Duration::from_micros(at.as_micros())).max(now + PUMP_BEAT));
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
            .iter()
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

    /// Logical time at `now`: microseconds since the epoch.
    fn logical(&self, now: Instant) -> Timestamp {
        Timestamp(now.saturating_duration_since(self.epoch).as_micros() as u64)
    }

    /// Where `node`'s slot sits in `slots`: the pool deals nodes to its
    /// shards round-robin ([`shard_of`]), one bundle per shard.
    fn slot_index(&self, node: usize) -> usize {
        node / self.outbox.bundles.len()
    }

    /// `node`'s slot, once it was ever installed here.
    fn slot_mut(&mut self, node: usize) -> Option<&mut Slot> {
        let at = self.slot_index(node);
        self.slots
            .get_mut(at)
            .filter(|s| s.node == node && s.generation > 0)
    }

    fn state_mut(&mut self, node: usize) -> Option<&mut NodeState> {
        live_state(&mut self.slots, self.outbox.bundles.len(), node)
    }

    /// Buffers a data batch on `node`, stamped with its arrival time.
    /// Traffic for a node this shard does not host (torn down, crashed)
    /// is dropped — equivalent to shedding it.
    fn enqueue(&mut self, now: Instant, node: usize, rb: RoutedBatch) {
        let ts = self.logical(now);
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

    /// Installs a fragment on `node`, building the node from the recipe
    /// first when absent (with a staggered first deadline), and starts
    /// driving its sources.
    fn attach(&mut self, now: Instant, node: usize, attach: AttachFragment) {
        let AttachFragment {
            query,
            fragment,
            downstream,
            sources,
        } = attach;
        if let Some(s) = sources {
            let profile_of = |_| s.profile;
            let bindings = fragment_bindings(&query, fragment, node, profile_of, s.seed);
            self.pump.add(s.arrival, bindings);
            let beat = self.last_sweep + PUMP_BEAT;
            self.next_sweep = Some(self.next_sweep.map_or(beat, |at| at.min(beat)));
        }
        let at = self.slot_index(node);
        if self.slots.len() <= at {
            self.slots.resize_with(at + 1, Slot::default);
        }
        let slot = &mut self.slots[at];
        debug_assert!(
            slot.generation == 0 || slot.node == node,
            "node {node} shares a slot with node {}: routed to the wrong shard",
            slot.node
        );
        slot.node = node;
        if slot.state.is_none() {
            let config = (self.recipe)(node);
            let interval = tick_period(config.interval);
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

    /// Stops `query`'s sources and removes its fragments from `node`,
    /// tearing the node down when it hosts nothing else.
    fn detach(&mut self, node: usize, query: QueryId) {
        self.pump.remove(query);
        let Some(slot) = self.slot_mut(node) else {
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
        self.slots
            .iter_mut()
            .filter(|s| s.generation > 0)
            .for_each(Slot::retire);
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

/// `node`'s live state among the `slots` of one shard of a pool of
/// `shards` (slot = `node / shards`), once installed and not torn down.
fn live_state(slots: &mut [Slot], shards: usize, node: usize) -> Option<&mut NodeState> {
    slots
        .get_mut(node / shards)
        .filter(|s| s.node == node && s.generation > 0)
        .and_then(|s| s.state.as_mut())
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
    use crate::messages::{Bundle, FragmentSources};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use themis_workloads::prelude::{Dataset, SourceProfile};
    use themis_workloads::pump::{query_bindings, SourceBinding};

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
    /// returned `t0`, building every node it installs from `recipe`.
    fn shard(
        durability: Option<ShardDurability>,
        recipe: impl Fn(usize) -> NodeConfig + Send + 'static,
    ) -> (Shard, Instant) {
        let t0 = Instant::now();
        (Shard::new(1, t0, durability, t0, recipe), t0)
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

    fn attach(node: usize, query: &Arc<QuerySpec>) -> ShardMsg {
        let fragment = AttachFragment {
            query: query.clone(),
            fragment: 0,
            downstream: None,
            sources: None,
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
        let (mut shard, t0) = shard(None, |_| config(5, 100));
        shard.handle(t0, attach(0, q));
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
        let (mut shard, t0) = shard(None, |_| config(5, 100));
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
        shard.handle(now, attach(0, q));
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
        let (mut shard, t0) = shard(None, |_| config(20, 100));
        shard.handle(t0, attach(0, q));
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
        let (mut shard, t0) = shard(None, |_| config(0, 100));
        shard.handle(t0, attach(0, q));
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
        let (mut shard, t0) = shard(None, |node| config([0, 5][node], 100));
        shard.handle(t0, attach(0, &qs[0]));
        shard.handle(t0, attach(1, &qs[1]));
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
        let (mut shard, t0) = shard(None, |_| config(5, 100));
        let run = |shard: &mut Shard, ms: std::ops::RangeInclusive<u32>| {
            for ms in ms {
                shard.service(t0 + ms * MS);
            }
        };
        // Node 0 hosts the resident query; node 1 the churn query.
        shard.handle(t0, attach(0, &qs[0]));
        shard.handle(t0, attach(1, &qs[1]));
        shard.handle(t0, msg(1, EngineMsg::Batch(batch(&qs[1], 3))));
        run(&mut shard, 1..=40);
        shard.handle(t0 + 40 * MS, msg(1, EngineMsg::Detach { query: qs[1].id }));
        // Traffic for the torn-down node is dropped.
        shard.handle(t0 + 40 * MS, msg(1, EngineMsg::Batch(batch(&qs[1], 3))));
        run(&mut shard, 41..=120);
        shard.handle(t0 + 120 * MS, attach(1, &qs[1]));
        shard.handle(t0 + 120 * MS, msg(1, EngineMsg::Batch(batch(&qs[1], 3))));
        run(&mut shard, 121..=160);
        shard.handle(t0 + 160 * MS, msg(1, EngineMsg::Detach { query: qs[1].id }));
        shard.handle(t0 + 160 * MS, attach(1, &qs[1]));
        run(&mut shard, 161..=200);
        let reports = reports(shard);
        assert_eq!(reports[&0].ticks, 40, "resident ticked throughout");
        // 6, 11, ..., 36 ms; then (stagger 2/32) 126, 131, ..., 156 ms; then
        // (stagger 3/32) 166, 171, ..., 196 ms. A leaked deadline would add
        // 16 ticks across the gap.
        assert_eq!(reports[&1].ticks, 7 + 7 + 7);
        assert_eq!(reports[&1].arrived_tuples, 3 + 3);
    }

    /// A shard calls its recipe only when an attach installs a node:
    /// three attaches to one node build it once (as does a re-attach
    /// while it still hosts a fragment), a re-attach after the detaches
    /// that emptied it builds it again, and so does the restart's
    /// re-attach after a crash.
    #[test]
    fn the_recipe_runs_once_per_installed_node() {
        let qs = queries(3);
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = calls.clone();
        let (mut shard, t0) = shard(None, move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
            config(5, 100)
        });
        let calls = || calls.load(Ordering::Relaxed);
        for q in &qs {
            shard.handle(t0, attach(0, q));
        }
        shard.service(t0 + 10 * MS);
        assert_eq!(calls(), 1);
        shard.handle(t0 + 10 * MS, msg(0, EngineMsg::Detach { query: qs[0].id }));
        shard.handle(t0 + 10 * MS, attach(0, &qs[0]));
        assert_eq!(calls(), 1, "the node still hosted two fragments");
        for q in &qs {
            shard.handle(t0 + 10 * MS, msg(0, EngineMsg::Detach { query: q.id }));
        }
        shard.service(t0 + 20 * MS);
        shard.handle(t0 + 20 * MS, attach(0, &qs[0]));
        assert_eq!(calls(), 2);
        shard.service(t0 + 30 * MS);
        shard.handle(t0 + 30 * MS, msg(0, EngineMsg::Crash));
        shard.handle(t0 + 30 * MS, attach(0, &qs[0]));
        shard.service(t0 + 40 * MS);
        assert_eq!(calls(), 3);
        assert!(reports(shard)[&0].ticks > 0);
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
        let recorded = fired.clone();
        // Nodes 0 to 3 shed every 16, 32, 33 and 24 ms.
        let (mut shard, t0) = shard(None, move |node| {
            let mut config = config([16, 32, 33, 24][node], 0);
            config.shedder = Box::new(Recording(node, recorded.clone(), config.shedder));
            config
        });
        // Install `i` is staggered by i/32 of its interval: deadlines 33,
        // 33, 17 and 26.25 ms.
        for node in [2, 1, 0, 3] {
            shard.handle(t0, attach(node, &qs[node]));
            shard.handle(t0, msg(node, EngineMsg::Batch(batch(&qs[node], 1))));
        }
        // Node 0 served 23 ms late skips to 17 + 2 x 16 ms, the earliest.
        assert_eq!(shard.service(t0 + 40 * MS), Some(t0 + 49 * MS));
        assert_eq!(*fired.lock().unwrap(), vec![0, 3, 1, 2]);
    }

    /// Shard 0 of a pool of two whose node clocks count from two seconds
    /// before the returned `t0`, each node shedding every 5 ms and never
    /// overloaded. A tick stamps its logical time from the wall clock, so
    /// at any `now` a pane holding tuples stamped 0 (the first second's
    /// window) closes on the node's next tick.
    fn late_shard() -> (Shard, Instant) {
        let t0 = Instant::now();
        let epoch = t0
            .checked_sub(Duration::from_secs(2))
            .expect("host up for two seconds");
        (Shard::new(2, epoch, None, t0, |_| config(5, 1_000)), t0)
    }

    /// Installs `query` on `node` feeding `downstream`, and buffers one
    /// three-tuple batch for it.
    fn feed(
        shard: &mut Shard,
        t0: Instant,
        node: usize,
        q: &Arc<QuerySpec>,
        downstream: Option<(usize, usize)>,
    ) {
        let fragment = AttachFragment {
            query: q.clone(),
            fragment: 0,
            downstream,
            sources: None,
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
        let Outgoing::Results(results) = &out[0] else {
            panic!("expected results, got {out:?}");
        };
        assert!(results.first_shed.is_empty(), "nothing shed");
        let mut queries: Vec<QueryId> = results.events.iter().map(|e| e.query).collect();
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
        let (mut shard, t0) = shard(None, |_| config(5, 1_000));
        feed(&mut shard, t0, 0, q, None);
        for ms in 1..=50 {
            shard.service(t0 + ms * MS);
            assert_eq!(shard.outbox().count(), 0, "at {ms} ms");
        }
        assert_eq!(reports(shard)[&0].ticks, 10);
    }

    /// The pass of a node's first shedding tick names it once in its
    /// results message, and only that pass: node 0 (capacity 100 per 5 ms
    /// tick) gets 50 tuples before its 5 ms tick and 300 before its 10 ms
    /// one, then 300 more; node 1 never exceeds its capacity. No pane
    /// closes, so every other pass leaves nothing to send.
    #[test]
    fn a_first_shedding_tick_is_reported_once_in_its_pass() {
        let qs = queries(2);
        let (mut shard, t0) = shard(None, |node| config(5, [100, 1_000][node]));
        shard.handle(t0, attach(0, &qs[0]));
        shard.handle(t0, attach(1, &qs[1]));
        let mut first_shed = Vec::new();
        for ms in 1..=30 {
            let now = t0 + ms * MS;
            let tuples = match ms {
                1 => 50,
                6 | 11 => 300,
                _ => 0,
            };
            if tuples > 0 {
                shard.handle(now, msg(0, EngineMsg::Batch(batch(&qs[0], tuples))));
                shard.handle(now, msg(1, EngineMsg::Batch(batch(&qs[1], 50))));
            }
            shard.service(now);
            for out in shard.outbox() {
                let Outgoing::Results(results) = out else {
                    panic!("expected results only, got {out:?}");
                };
                assert!(results.events.is_empty(), "no pane closed");
                first_shed.push((ms, results.first_shed));
            }
        }
        assert_eq!(first_shed, [(10, vec![0])]);
        let reports = reports(shard);
        assert_eq!(reports[&0].shed_invocations, 2, "at 10 and 15 ms");
        assert_eq!(reports[&1].shed_invocations, 0);
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
        let (mut shard, t0) = shard(Some(durability(&dir, Duration::from_secs(3600))), |_| {
            config(50, 100)
        });
        for q in &qs {
            shard.handle(t0, attach(0, q));
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

    /// Nodes sit in a vector by `node / shards`: installed out of order
    /// on shard 0 of two, a checkpoint lists their snapshots and `finish`
    /// their reports in node order, and traffic for a node never
    /// installed here (node 1 is shard 1's; node 8 was never attached) is
    /// dropped.
    #[test]
    fn checkpoints_and_reports_list_nodes_in_node_order() {
        let dir = std::env::temp_dir().join(format!("themis-shard-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let qs = queries(3);
        let t0 = Instant::now();
        let durable = Some(durability(&dir, 10 * MS));
        let mut shard = Shard::new(2, t0, durable, t0, |_| config(5, 1_000));
        for (q, node) in qs.iter().zip([6, 0, 2]) {
            shard.handle(t0, attach(node, q));
        }
        for node in [1, 8] {
            shard.handle(t0, msg(node, EngineMsg::Batch(batch(&qs[0], 3))));
        }
        shard.service(t0 + 10 * MS);
        let out = shard.finish();
        let restore = wal::restore_shard(&dir, 0).expect("readable log");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.errors.is_empty(), "errors: {:?}", out.errors);
        let snapshots = restore.expect("the shard checkpointed").snapshots;
        let nodes: Vec<usize> = snapshots.iter().map(|s| s.node).collect();
        assert_eq!(nodes, [0, 2, 6]);
        let reports: Vec<(usize, u64)> = out
            .reports
            .iter()
            .map(|(node, r)| (*node, r.arrived_tuples))
            .collect();
        assert_eq!(reports, [(0, 0), (2, 0), (6, 0)]);
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
        let (mut shard, t0) = shard(Some(durability(&root, Duration::from_secs(3600))), |_| {
            config(50, 100)
        });
        shard.handle(t0, attach(0, q));
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
        let (mut shard, t0) = shard(Some(durability(&file, 100 * MS)), |_| config(50, 100));
        shard.handle(t0, attach(0, q));
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

    /// Steps one shard per node (node `i` alone on shard `i`, hosting
    /// `qs[i]`) and one coordinator on a 1 ms virtual clock up to
    /// `until_ms`, as the engine's control loop does: every 10 ms node `i`
    /// gets `load(i, ms)` tuples, the coordinator marks the nodes a pass's
    /// results name and records its results, and each due round reaches
    /// every shard as one bundle, handled by its next service.
    fn control_loop(
        shards: &mut [Shard],
        qs: &[Arc<QuerySpec>],
        c: &mut Coordinator,
        t0: Instant,
        until_ms: u32,
        load: impl Fn(usize, u32) -> usize,
    ) {
        for ms in 1..=until_ms + 1 {
            let (now, ts) = (t0 + ms * MS, Timestamp::from_millis(u64::from(ms)));
            for (node, shard) in shards.iter_mut().enumerate() {
                let tuples = load(node, ms);
                if ms % 10 == 0 && ms <= until_ms && tuples > 0 {
                    shard.handle(now, msg(node, EngineMsg::Batch(batch(&qs[node], tuples))));
                }
                shard.service(now);
                for out in shard.outbox() {
                    if let Outgoing::Results(results) = out {
                        for n in results.first_shed {
                            c.overloaded(NodeId(n as u32));
                        }
                        for ev in results.events {
                            c.record(ts, ev.query, ev.sic);
                        }
                    }
                }
            }
            if ms <= until_ms && ts >= c.next_round() {
                let mut bundles: Vec<Bundle> = shards.iter().map(|_| Bundle::default()).collect();
                c.round(ts, |u| bundles[u.node.index()].sic.push(u));
                for (shard, bundle) in shards.iter_mut().zip(bundles) {
                    shard.handle(now, msg(0, EngineMsg::Bundle(bundle)));
                }
            }
        }
    }

    /// A node whose overload starts mid-run makes its first shed decisions
    /// on an empty SIC table (every query's reported SIC reads 0) only
    /// until the next round's update reaches it: at most one round's worth
    /// of its ticks, after which every decision sees the fed value. Node 0
    /// ticks every 50 ms at a pinned 100 tuples per tick; it gets 25
    /// tuples a tick until 2 s, then 200. The query's result SIC reads 0.9
    /// from the start (one result inside the 10 s STW).
    #[test]
    fn a_mid_run_onset_sheds_on_an_empty_table_for_at_most_one_round() {
        struct Recording(Arc<Mutex<Vec<f64>>>, Box<dyn Shedder>);
        impl Shedder for Recording {
            fn select_to_keep(&mut self, c: usize, qs: &[QueryBufferState]) -> ShedDecision {
                self.0.lock().unwrap().push(qs[0].base_sic.value());
                self.1.select_to_keep(c, qs)
            }
        }
        let base_sics = Arc::new(Mutex::new(Vec::new()));
        let qs = queries(1);
        let t0 = Instant::now();
        let recorded = base_sics.clone();
        let recipe = move |_| {
            let mut config = config(50, 100);
            config.shedder = Box::new(Recording(recorded.clone(), config.shedder));
            config
        };
        let mut shards = [Shard::new(1, t0, None, t0, recipe)];
        let interval = TimeDelta::from_millis(250);
        let mut c = Coordinator::new(StwConfig::PAPER_DEFAULT, interval, interval, interval);
        shards[0].handle(t0, attach(0, &qs[0]));
        c.attach(qs[0].id, vec![NodeId(0)], Timestamp::ZERO, None);
        c.record(Timestamp::ZERO, qs[0].id, Sic(0.9));
        control_loop(&mut shards, &qs, &mut c, t0, 4_000, |_, ms| {
            if ms <= 2_000 {
                5
            } else {
                40
            }
        });
        let [shard] = shards.map(Shard::finish);
        let base_sics = base_sics.lock().unwrap().clone();
        let empty = base_sics.iter().take_while(|&&b| b == 0.0).count();
        let ticks_per_round = 250 / 50;
        assert!((1..=ticks_per_round + 1).contains(&empty), "{base_sics:?}");
        assert!(base_sics[empty..].iter().all(|&b| b > 0.0), "{base_sics:?}");
        assert_eq!(shard.reports[0].1.shed_invocations, base_sics.len() as u64);
        assert!(base_sics.len() > 30, "{base_sics:?}");
    }

    /// The coordinator feeds only nodes that have shed, so a durable
    /// shard whose node never sheds logs no SIC delta and cuts no early
    /// checkpoint, however tight the divergence bound. A virtual-time
    /// control loop drives a quiet durable shard (node 0) and a flooded
    /// one (node 1) and one coordinator, which marks the nodes the
    /// shards' results name: four 250 ms rounds reach node 1 only.
    #[test]
    fn a_durable_node_that_never_sheds_logs_no_sic() {
        let dir = std::env::temp_dir().join(format!("themis-shard-quiet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let qs = queries(2);
        let t0 = Instant::now();
        let quiet = ShardDurability {
            sic_bound: 1e-6,
            ..durability(&dir, Duration::from_secs(3600))
        };
        let mut shards = [
            Shard::new(2, t0, Some(quiet), t0, |_| config(50, 1_000_000)),
            Shard::new(2, t0, None, t0, |_| config(50, 10)),
        ];
        let interval = TimeDelta::from_millis(250);
        let mut c = Coordinator::new(StwConfig::PAPER_DEFAULT, interval, interval, interval);
        for (node, q) in qs.iter().enumerate() {
            shards[node].handle(t0, attach(node, q));
            c.attach(q.id, vec![NodeId(node as u32)], Timestamp::ZERO, None);
        }
        control_loop(&mut shards, &qs, &mut c, t0, 1_000, |_, _| 5);
        let [quiet, flooded] = shards.map(Shard::finish);
        let restore = wal::restore_shard(&dir, 0).expect("readable root");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(c.finish().messages, 4);
        assert_eq!(flooded.reports[0].1.sic_updates, 4);
        assert!(flooded.reports[0].1.shed_invocations > 0);
        let node = &quiet.reports[0].1;
        assert_eq!((node.shed_invocations, node.sic_updates), (0, 0));
        assert_eq!((quiet.checkpoints, quiet.early_checkpoints), (0, 0));
        assert!(quiet.errors.is_empty(), "errors: {:?}", quiet.errors);
        assert!(restore.is_none(), "the quiet shard logged {restore:?}");
    }

    /// The scenario seed of the shard tests' sources.
    const SEED: u64 = 3;

    /// `query`'s source bindings, its only fragment on `node`, each
    /// source emitting with `profile`.
    fn bindings(query: &QuerySpec, node: usize, profile: SourceProfile) -> Vec<SourceBinding> {
        query_bindings(query, &[node], |_| profile, SEED)
    }

    /// Installs `query` on `node` with its sources, arriving at 0.
    fn sourced(node: usize, query: &Arc<QuerySpec>, profile: SourceProfile) -> ShardMsg {
        let fragment = AttachFragment {
            query: query.clone(),
            fragment: 0,
            downstream: None,
            sources: Some(FragmentSources {
                profile,
                seed: SEED,
                arrival: Timestamp::ZERO,
            }),
        };
        msg(node, EngineMsg::Attach(fragment))
    }

    /// Opens the run window up to `until`.
    fn run_until(until: Instant) -> ShardMsg {
        msg(0, EngineMsg::Run { until })
    }

    /// Tuples that reached `node`'s live incarnation.
    fn arrived(shard: &Shard, node: usize) -> u64 {
        let slot = &shard.slots[shard.slot_index(node)];
        slot.state.as_ref().map_or(0, |s| s.report().arrived_tuples)
    }

    /// One tuple a millisecond: a 1-tuple batch every 1 ms.
    fn every_ms() -> SourceProfile {
        SourceProfile::steady(1_000, 1_000, Dataset::Uniform)
    }

    /// `(query, created, tuples)` of every batch the shed calls saw.
    type SeenLog = Arc<Mutex<Vec<(QueryId, Timestamp, usize)>>>;

    /// Records every batch a shed call sees into its log. Over a zero
    /// capacity every buffered batch is seen by exactly one call.
    struct Seen(SeenLog, Box<dyn Shedder>);
    impl Shedder for Seen {
        fn select_to_keep(&mut self, c: usize, qs: &[QueryBufferState]) -> ShedDecision {
            let mut seen = self.0.lock().unwrap();
            for q in qs {
                seen.extend(q.batches.iter().map(|b| (q.query, b.created, b.tuples)));
            }
            self.1.select_to_keep(c, qs)
        }
    }

    /// A recipe for nodes shedding every `interval_ms` over a zero
    /// capacity, recording what they see into `seen`.
    fn seeing(interval_ms: u64, seen: &SeenLog) -> impl Fn(usize) -> NodeConfig + Send + 'static {
        let seen = seen.clone();
        move |_| {
            let mut config = config(interval_ms, 0);
            config.shedder = Box::new(Seen(seen.clone(), config.shedder));
            config
        }
    }

    /// The batches the shard's pump enqueues are exactly those a lone
    /// `SourcePump` over the same bindings emits when stepped on the
    /// shard's 1 ms service schedule inside the same window: same queries,
    /// creation times and sizes. Three queries with 50, 20 and 333 ms
    /// emission intervals share one node whose every 5 ms tick sees (and
    /// sheds) what arrived since the last.
    #[test]
    fn the_shard_pump_enqueues_what_a_lone_pump_emits() {
        let qs = queries(3);
        let profiles = [
            SourceProfile::steady(200, 20, Dataset::Uniform),
            SourceProfile::steady(100, 50, Dataset::Uniform),
            SourceProfile::steady(30, 3, Dataset::Uniform),
        ];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (mut shard, t0) = shard(None, seeing(5, &seen));
        let mut lone = SourcePump::default();
        for (q, &profile) in qs.iter().zip(&profiles) {
            shard.handle(t0, sourced(0, q, profile));
            lone.add(Timestamp::ZERO, bindings(q, 0, profile));
        }
        shard.handle(t0, run_until(t0 + 1_000 * MS));
        let mut expected = Vec::new();
        for ms in 0..1_020 {
            shard.service(t0 + ms * MS);
            if ms < 1_000 {
                let batch = |_, rb: RoutedBatch| {
                    expected.push((rb.query, rb.batch.created(), rb.batch.len()))
                };
                lone.step(Timestamp::from_millis(u64::from(ms)), batch);
            }
        }
        let mut seen = seen.lock().unwrap().clone();
        seen.sort();
        expected.sort();
        assert_eq!(expected.len(), 20 + 50 + 3);
        assert_eq!(seen, expected);
        // The pump sweeps only when a batch falls due (and once at the
        // window's first beat), not on every 1 ms service.
        let sweeps = shard.finish().pump_sweeps;
        assert!(sweeps <= expected.len() as u64 + 1, "{sweeps} sweeps");
    }

    /// The pump sweeps only inside a run window: before the first one
    /// and between two, nothing arrives, no sweep counts, and `service`
    /// names only the 1 s tick deadline; inside one it sweeps each
    /// millisecond a batch falls due and asks to be served a beat later,
    /// up to the window's end.
    #[test]
    fn nothing_is_swept_outside_a_run_window() {
        let q = &queries(1)[0];
        let (mut shard, t0) = shard(None, |_| config(1_000, 1_000_000));
        shard.handle(t0, sourced(0, q, every_ms()));
        let first_tick = Some(t0 + 1_000 * MS);
        for ms in 0..100 {
            assert_eq!(shard.service(t0 + ms * MS), first_tick);
        }
        assert_eq!((shard.out.pump_sweeps, arrived(&shard, 0)), (0, 0));
        shard.handle(t0 + 100 * MS, run_until(t0 + 200 * MS));
        for ms in 100..200 {
            // The window ends at 200 ms: no sweep is asked for there.
            let now = t0 + ms * MS;
            let next = if ms < 199 { Some(now + MS) } else { first_tick };
            assert_eq!(shard.service(now), next, "at {ms} ms");
        }
        let (sweeps, tuples) = (shard.out.pump_sweeps, arrived(&shard, 0));
        // The first sweep re-anchors the source onto the current beat.
        assert_eq!((sweeps, tuples), (100, 100));
        for ms in 200..400 {
            assert_eq!(shard.service(t0 + ms * MS), first_tick);
        }
        assert_eq!(
            (shard.out.pump_sweeps, arrived(&shard, 0)),
            (sweeps, tuples)
        );
        shard.handle(t0 + 400 * MS, run_until(t0 + 450 * MS));
        for ms in 400..500 {
            shard.service(t0 + ms * MS);
        }
        assert_eq!(shard.out.pump_sweeps, sweeps + 50);
        assert_eq!(arrived(&shard, 0), tuples + 50);
    }

    /// A detach stops the query's sources: node 1, re-attached right
    /// after its query's detach without sources, receives nothing more,
    /// while node 0's query keeps its tuple a millisecond.
    #[test]
    fn a_detached_querys_sources_stop() {
        let qs = queries(2);
        let (mut shard, t0) = shard(None, |_| config(5, 1_000_000));
        for (node, q) in qs.iter().enumerate() {
            shard.handle(t0, sourced(node, q, every_ms()));
        }
        shard.handle(t0, run_until(t0 + 300 * MS));
        for ms in 0..100 {
            shard.service(t0 + ms * MS);
        }
        assert_eq!((arrived(&shard, 0), arrived(&shard, 1)), (99, 99));
        let now = t0 + 100 * MS;
        shard.handle(now, msg(1, EngineMsg::Detach { query: qs[1].id }));
        shard.handle(now, attach(1, &qs[1]));
        for ms in 100..300 {
            shard.service(t0 + ms * MS);
        }
        assert_eq!((arrived(&shard, 0), arrived(&shard, 1)), (299, 0));
    }

    /// A crash keeps the shard's sources (their batches to the dead node
    /// are dropped), and the restart's re-attach, which carries none as
    /// `Engine::restart_shard` sends it, does not drive them a second
    /// time: the node receives exactly what a lone pump stepped on the
    /// same schedule emits while the node is installed.
    #[test]
    fn a_restart_does_not_drive_a_source_twice() {
        let q = &queries(1)[0];
        let profile = SourceProfile::steady(400, 20, Dataset::Uniform);
        let (mut shard, t0) = shard(None, |_| config(5, 1_000_000));
        shard.handle(t0, sourced(0, q, profile));
        shard.handle(t0, run_until(t0 + 1_000 * MS));
        let mut lone = SourcePump::default();
        lone.add(Timestamp::ZERO, bindings(q, 0, profile));
        let mut expected = 0;
        for ms in 0..1_000 {
            let now = t0 + ms * MS;
            match ms {
                300 => {
                    shard.handle(now, msg(0, EngineMsg::Crash));
                }
                500 => {
                    shard.handle(now, attach(0, q));
                }
                _ => {}
            }
            shard.service(now);
            let installed = !(300..500).contains(&ms);
            lone.step(Timestamp::from_millis(u64::from(ms)), |_, rb| {
                expected += u64::from(installed) * rb.batch.len() as u64;
            });
        }
        assert_eq!(expected, 16 * 20, "20-tuple batches every 50 ms for 800 ms");
        assert_eq!(reports(shard)[&0].arrived_tuples, expected);
    }

    /// At one `now`, the ticks due come first and the sweep after them:
    /// served first at its 10 ms deadline, the node ticks on an empty
    /// buffer, then the sweep enqueues the source's (re-anchored) batch,
    /// which the 20 ms tick sees.
    #[test]
    fn a_sweep_follows_the_ticks_due_at_the_same_now() {
        let q = &queries(1)[0];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (mut shard, t0) = shard(None, seeing(10, &seen));
        shard.handle(t0, sourced(0, q, every_ms()));
        shard.handle(t0, run_until(t0 + 100 * MS));
        shard.service(t0 + 10 * MS);
        let report = |shard: &Shard| shard.slots[0].state.as_ref().unwrap().report().clone();
        let r = report(&shard);
        assert_eq!((r.ticks, r.shed_invocations, r.arrived_tuples), (1, 0, 1));
        assert!(seen.lock().unwrap().is_empty());
        shard.service(t0 + 20 * MS);
        let r = report(&shard);
        assert_eq!((r.ticks, r.shed_invocations), (2, 1));
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len(), 1, "{seen:?}");
        assert!(seen[0].1 > Timestamp::from_millis(9), "{seen:?}");
    }
}
