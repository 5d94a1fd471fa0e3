//! The THEMIS node of Figure 5 — input buffer, overload detector over an
//! online cost model, tuple shedder and the hosted fragments — shared by
//! the discrete-event simulator (`themis_sim::node::SimNode`) and the
//! prototype engine (`themis_engine::node_state::NodeState`).
//!
//! [`Node`] knows no clock. Callers hand it logical timestamps, feed its
//! cost model with whatever "busy" means on their clock (a simulated
//! per-tuple cost, or measured wall time), and receive fragment emissions
//! through a callback; spent and shed batches go back to the node's
//! [`BatchPool`] when it has one. Sim↔engine parity therefore holds by
//! construction: both run this one tick.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use themis_core::prelude::*;
use themis_core::stw::SlidingAccumulator;
use themis_operators::prelude::Emission;

use crate::graph::QuerySpec;
use crate::runtime::{FragmentRuntime, Ingress};

/// A batch in flight or buffered, together with its routing information.
#[derive(Debug, Clone)]
pub struct RoutedBatch {
    /// The query the batch belongs to.
    pub query: QueryId,
    /// Destination fragment (index within the query).
    pub fragment: usize,
    /// How the batch enters the fragment.
    pub ingress: Ingress,
    /// The payload.
    pub batch: Batch,
}

/// Counters of one node.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Tuples arrived (pre-shedding).
    pub arrived_tuples: u64,
    /// Tuples admitted.
    pub kept_tuples: u64,
    /// Tuples shed: dropped by the shedder, or purged from the input
    /// buffer when their query detached — so `arrived = kept + shed +
    /// buffered` holds exactly across churn.
    pub shed_tuples: u64,
    /// Batches shed (by the shedder or a detach purge).
    pub shed_batches: u64,
    /// Shedder invocations under overload.
    pub shed_invocations: u64,
    /// Total wall time spent inside `select_to_keep`, nanoseconds.
    pub shed_time_ns: u64,
    /// Number of timed shedder calls.
    pub shed_decisions: u64,
    /// Coordinator updates received.
    pub sic_updates: u64,
    /// Shedding ticks fired (detector invocations).
    pub ticks: u64,
    /// Ticks that fired at least one full interval past their deadline
    /// (engine only: starved by message pressure or delayed by an
    /// overrunning predecessor); the skipped periods are dropped, not
    /// replayed.
    pub late_ticks: u64,
    /// Fragments a tick visited for a due pane; idle fragments are not
    /// visited, so this stays near the due count, not hosted × ticks.
    pub fragment_visits: u64,
}

impl NodeReport {
    /// Mean shedder execution time per invocation, in microseconds
    /// (the §7.6 overhead metric).
    pub fn mean_shed_time_us(&self) -> f64 {
        if self.shed_decisions == 0 {
            0.0
        } else {
            self.shed_time_ns as f64 / self.shed_decisions as f64 / 1_000.0
        }
    }

    /// Fraction of arrived tuples that were shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.arrived_tuples == 0 {
            0.0
        } else {
            self.shed_tuples as f64 / self.arrived_tuples as f64
        }
    }

    /// Adds another report's counters onto this one — used when a node is
    /// torn down and later re-installed on its shard (churn), so the final
    /// per-node report covers every incarnation.
    pub fn absorb(&mut self, other: &NodeReport) {
        self.arrived_tuples += other.arrived_tuples;
        self.kept_tuples += other.kept_tuples;
        self.shed_tuples += other.shed_tuples;
        self.shed_batches += other.shed_batches;
        self.shed_invocations += other.shed_invocations;
        self.shed_time_ns += other.shed_time_ns;
        self.shed_decisions += other.shed_decisions;
        self.sic_updates += other.sic_updates;
        self.ticks += other.ticks;
        self.late_ticks += other.late_ticks;
        self.fragment_visits += other.fragment_visits;
    }
}

/// Totals over nodes (`nodes.iter().sum::<NodeReport>()`).
impl<'a> std::iter::Sum<&'a NodeReport> for NodeReport {
    fn sum<I: Iterator<Item = &'a NodeReport>>(reports: I) -> Self {
        reports.fold(NodeReport::default(), |mut total, r| {
            total.absorb(r);
            total
        })
    }
}

/// One hosted query fragment plus where its emissions go, in its slot of
/// [`Node::fragments`].
struct Hosted {
    /// `(query, fragment)`: which fragment this is, and its place in the
    /// tick's visiting order.
    key: (QueryId, usize),
    /// The slot of the next fragment of the same query hosted here.
    next: Option<usize>,
    runtime: FragmentRuntime,
    downstream: Option<(usize, usize)>,
    /// The due time of the fragment's one live entry in [`Node::due`];
    /// `None` when it has none (no pane buffered).
    scheduled: Option<Timestamp>,
}

impl Hosted {
    /// Gives the fragment in `slot` a live `due` entry at its runtime's
    /// next due time, unless its live entry already falls no later. The
    /// entry it replaces stays in the heap as a stale one: its time no
    /// longer matches `scheduled`, so the tick discards it.
    fn schedule(&mut self, slot: usize, due: &mut DueHeap) {
        let Some(at) = self.runtime.next_due() else {
            return;
        };
        if self.scheduled.map_or(true, |s| at < s) {
            self.scheduled = Some(at);
            due.push(Reverse((at, slot)));
        }
    }
}

/// A min-heap of `(due time, fragment slot)` entries.
type DueHeap = BinaryHeap<Reverse<(Timestamp, usize)>>;

/// A query with fragments on the node: its SIC assigner, and where its
/// fragments are — the first one's `(fragment, slot)`, the rest chained
/// through [`Hosted::next`].
struct HostedQuery {
    assigner: SourceSicAssigner,
    first: (usize, usize),
}

/// The slot of `fragment` among the fragments of the query `first` heads.
fn find_slot(slab: &[Option<Hosted>], first: (usize, usize), fragment: usize) -> Option<usize> {
    if first.0 == fragment {
        return Some(first.1);
    }
    let mut at = slab[first.1].as_ref()?.next;
    while let Some(slot) = at {
        let hosted = slab[slot].as_ref()?;
        if hosted.key.1 == fragment {
            return Some(slot);
        }
        at = hosted.next;
    }
    None
}

/// The Figure-5 node: input buffer (IB), SIC assigners and table, overload
/// detector and cost model, tuple shedder, and the operators (fragment
/// runtimes executed at tick granularity).
pub struct Node {
    /// Hosted fragments in a dense slab: a slot is taken by attach and
    /// freed by detach, and everything else names a fragment by its slot.
    fragments: Vec<Option<Hosted>>,
    /// Free slots of `fragments`, reused first.
    free: Vec<usize>,
    /// The index from a query to its SIC assigner and its fragments'
    /// slots: the one lookup a batch pays, on arrival.
    queries: HashMap<QueryId, HostedQuery>,
    /// When each fragment next has a due pane: the tick visits only the
    /// fragments whose entry has come due, not every hosted one.
    due: DueHeap,
    /// The fragments the current tick visits with their slots, sorted
    /// into `(query, fragment)` order (kept across ticks for its
    /// capacity).
    visit: Vec<((QueryId, usize), usize)>,
    /// Arrived batches with their fragments' slots, awaiting the tick
    /// (drained in place, so it keeps its capacity).
    buffer: Vec<(usize, RoutedBatch)>,
    /// Latest coordinator-disseminated result SIC per query.
    sic_table: SicTable,
    /// With `updateSIC` off: locally accepted SIC mass per query over the
    /// STW, which stands in for the coordinator's value.
    local_sic: Option<HashMap<QueryId, SlidingAccumulator>>,
    stw: StwConfig,
    shedder: Box<dyn Shedder>,
    cost_model: CostModel,
    detector: OverloadDetector,
    pinned_capacity: Option<usize>,
    /// Whether the last tick was the first to run the shedder.
    first_shed: bool,
    /// Where spent batches go: the fragments' spent inputs and panes, and
    /// the batches the shedder drops. `None` frees them.
    pool: Option<BatchPool>,
    /// Counters since creation.
    pub stats: NodeReport,
}

impl Node {
    /// A node without fragments, shedding with `shedder` whenever the
    /// buffer exceeds `detector`'s threshold.
    pub fn new(shedder: Box<dyn Shedder>, stw: StwConfig, detector: OverloadDetector) -> Self {
        Node {
            fragments: Vec::new(),
            free: Vec::new(),
            queries: HashMap::new(),
            due: BinaryHeap::new(),
            visit: Vec::new(),
            buffer: Vec::new(),
            sic_table: SicTable::new(),
            local_sic: None,
            stw,
            shedder,
            cost_model: CostModel::default(),
            detector,
            pinned_capacity: None,
            first_shed: false,
            pool: None,
            stats: NodeReport::default(),
        }
    }

    /// Recycles the node's spent batches into `pool`: every hosted and
    /// later attached fragment's spent inputs and panes, and the batches
    /// each tick sheds.
    pub fn set_pool(&mut self, pool: BatchPool) {
        for hosted in self.fragments.iter_mut().flatten() {
            hosted.runtime.set_pool(&pool);
        }
        self.pool = Some(pool);
    }

    /// Pins the shedding threshold to `capacity` tuples per interval
    /// (`None`: the detector's cost-model estimate).
    pub fn pin_capacity(&mut self, capacity: Option<usize>) {
        self.pinned_capacity = capacity;
    }

    /// Switches the `updateSIC`-off fallback on or off: when on, the node
    /// ignores coordinator updates and estimates each query's SIC from the
    /// mass it accepted locally (Figure 4, top).
    pub fn use_local_sic(&mut self, on: bool) {
        self.local_sic = on.then(HashMap::new);
    }

    /// Installs one fragment of `query`, routing its emissions to
    /// `downstream` (`None` = the query-result sink). Re-attaching an
    /// already-hosted fragment resets its runtime in its slot, so batches
    /// already buffered for it feed the new runtime.
    pub fn attach(
        &mut self,
        query: &QuerySpec,
        fragment: usize,
        downstream: Option<(usize, usize)>,
    ) -> &mut FragmentRuntime {
        let mut runtime = FragmentRuntime::new(&query.fragments[fragment]);
        if let Some(pool) = &self.pool {
            runtime.set_pool(pool);
        }
        let found = self
            .queries
            .get(&query.id)
            .and_then(|q| find_slot(&self.fragments, q.first, fragment));
        let slot = match found {
            Some(slot) => {
                let hosted = self.fragments[slot]
                    .as_mut()
                    .expect("indexed slots are hosted");
                hosted.runtime = runtime;
                hosted.downstream = downstream;
                hosted.scheduled = None;
                slot
            }
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.fragments.push(None);
                    self.fragments.len() - 1
                });
                let stw = self.stw;
                let next = match self.queries.get_mut(&query.id) {
                    Some(q) => Some(std::mem::replace(&mut q.first, (fragment, slot)).1),
                    None => {
                        let assigner = SourceSicAssigner::new(stw, query.n_sources());
                        let first = (fragment, slot);
                        self.queries
                            .insert(query.id, HostedQuery { assigner, first });
                        None
                    }
                };
                self.fragments[slot] = Some(Hosted {
                    key: (query.id, fragment),
                    next,
                    runtime,
                    downstream,
                    scheduled: None,
                });
                slot
            }
        };
        &mut self.fragments[slot].as_mut().expect("just hosted").runtime
    }

    /// Removes every fragment of `query`, its SIC assigner, table entry
    /// and local SIC accumulator, and purges its buffered batches,
    /// counting them as shed. Returns the number of fragments still
    /// hosted. Its `due` entries turn stale and are discarded when they
    /// come due.
    pub fn detach(&mut self, query: QueryId) -> usize {
        if let Some(q) = self.queries.remove(&query) {
            let mut at = Some(q.first.1);
            while let Some(slot) = at {
                at = self.fragments[slot].take().and_then(|h| h.next);
                self.free.push(slot);
            }
        }
        self.sic_table.remove(query);
        if let Some(local) = &mut self.local_sic {
            local.remove(&query);
        }
        let stats = &mut self.stats;
        self.buffer.retain(|(_, rb)| {
            let purge = rb.query == query;
            if purge {
                stats.shed_tuples += rb.batch.len() as u64;
                stats.shed_batches += 1;
            }
            !purge
        });
        self.fragments.len() - self.free.len()
    }

    /// Buffers an arriving batch. Source batches get their Eq.-1 SIC values
    /// stamped *before* buffering, so the rate estimator observes every
    /// arriving tuple (shed ones included) and the shedder sees final SIC
    /// values. A batch for a fragment this node does not host (a stray
    /// wire batch, or one in flight when its query was detached) is
    /// counted as arrived and shed on the spot: it never takes buffer
    /// room or a shedding decision from the hosted queries.
    pub fn enqueue(&mut self, mut rb: RoutedBatch, now: Timestamp) {
        self.stats.arrived_tuples += rb.batch.len() as u64;
        let fragments = &self.fragments;
        let slot = self.queries.get_mut(&rb.query).and_then(|q| {
            let slot = find_slot(fragments, q.first, rb.fragment)?;
            if rb.batch.source().is_some() {
                q.assigner.stamp(now, &mut rb.batch);
            }
            Some(slot)
        });
        let Some(slot) = slot else {
            self.stats.shed_tuples += rb.batch.len() as u64;
            self.stats.shed_batches += 1;
            return;
        };
        self.buffer.push((slot, rb));
    }

    /// Buffered tuples awaiting the next tick.
    pub fn buffered_tuples(&self) -> usize {
        self.buffer.iter().map(|(_, rb)| rb.batch.len()).sum()
    }

    /// The capacity threshold `c` (tuples per interval): the pinned
    /// capacity, else the detector's cost-model estimate.
    pub fn threshold(&self) -> usize {
        self.pinned_capacity
            .unwrap_or_else(|| self.detector.threshold(&self.cost_model))
    }

    /// The cost model, for the caller to feed observed work after a tick.
    pub fn cost_model_mut(&mut self) -> &mut CostModel {
        &mut self.cost_model
    }

    /// Applies a coordinator SIC update (ignored under the local-SIC
    /// fallback).
    pub fn apply_sic(&mut self, update: &SicUpdate) {
        self.stats.sic_updates += 1;
        if self.local_sic.is_none() {
            self.sic_table.apply(update);
        }
    }

    /// Overwrites one SIC-table entry (WAL-tail replay during restore —
    /// the delta carries the absolute value).
    pub fn set_sic(&mut self, query: QueryId, sic: Sic) {
        self.sic_table.set(query, sic);
    }

    /// Captures the recoverable state of global node `node`: the SIC table
    /// plus every buffered window pane, fragments in `(query, fragment)`
    /// order whatever their slots.
    pub fn checkpoint(&self, node: usize) -> NodeSnapshot {
        let mut sic: Vec<(QueryId, Sic)> = self.sic_table.entries().collect();
        sic.sort_by_key(|&(q, _)| q);
        let mut hosted: Vec<&Hosted> = self.fragments.iter().flatten().collect();
        hosted.sort_unstable_by_key(|h| h.key);
        let mut panes = Vec::new();
        for hosted in hosted {
            let (query, fragment) = hosted.key;
            for (op, key, port, batch) in hosted.runtime.snapshot_windows() {
                panes.push(PaneRecord {
                    query,
                    fragment,
                    op,
                    port,
                    key,
                    batch,
                });
            }
        }
        NodeSnapshot { node, sic, panes }
    }

    /// Overlays a checkpointed snapshot: SIC entries overwrite the table,
    /// panes land in their operators' window buffers. Panes of fragments no
    /// longer hosted here are skipped — the bounded divergence a
    /// reconfigured restore accepts.
    pub fn restore(&mut self, snap: &NodeSnapshot) {
        for &(query, sic) in &snap.sic {
            self.sic_table.set(query, sic);
        }
        for pane in &snap.panes {
            let slot = self
                .queries
                .get(&pane.query)
                .and_then(|q| find_slot(&self.fragments, q.first, pane.fragment));
            if let Some(slot) = slot {
                let hosted = self.fragments[slot]
                    .as_mut()
                    .expect("indexed slots are hosted");
                hosted
                    .runtime
                    .restore_window(pane.op, pane.key, pane.port, pane.batch.clone());
                hosted.schedule(slot, &mut self.due);
            }
        }
    }

    /// Whether the last [`Node::tick`] was the first since the node's
    /// creation to run the shedder: from then on it reads its SIC table,
    /// so its driver marks it for the coordinator's rounds
    /// ([`themis_core::coordinator::Coordinator::overloaded`]).
    pub fn first_shed(&self) -> bool {
        self.first_shed
    }

    /// Runs one shedding interval at logical time `now`: capacity →
    /// per-query buffer states with §6's projected base SIC → the shedder →
    /// a shed bitmap over buffer slots → the kept batches into their
    /// fragments → the windows of every fragment with a due pane advanced,
    /// in `(query, fragment)` order. Shed batches go back to the node's
    /// pool ([`Node::set_pool`]); fragment root emissions go to `emit` as
    /// `(query, fragment, downstream, emissions)`, `downstream` being what
    /// the fragment was attached with. Returns the tuples admitted, for
    /// the caller's cost-model observation.
    pub fn tick(
        &mut self,
        now: Timestamp,
        mut emit: impl FnMut(QueryId, usize, Option<(usize, usize)>, Vec<Emission>),
    ) -> u64 {
        self.stats.ticks += 1;
        if let Some(local) = &mut self.local_sic {
            for (_, rb) in &self.buffer {
                let acc = local
                    .entry(rb.query)
                    .or_insert_with(|| SlidingAccumulator::new(self.stw));
                acc.advance_to(now);
                self.sic_table.set(rb.query, Sic(acc.total()).clamp_unit());
            }
        }

        let c = self.threshold();
        let buffered = self.buffered_tuples();
        self.first_shed = buffered > c && self.stats.shed_invocations == 0;
        // Shed batches get a bit flipped instead of having their tuples
        // spliced out.
        let dropped = if buffered > c {
            self.stats.shed_invocations += 1;
            let table = &self.sic_table;
            let states = build_buffer_states(self.buffer.iter().map(|(_, rb)| &rb.batch), |q| {
                table.get(q)
            });
            let start = Instant::now();
            let decision = self.shedder.select_to_keep(c, &states);
            self.stats.shed_time_ns += start.elapsed().as_nanos() as u64;
            self.stats.shed_decisions += 1;
            self.stats.kept_tuples += decision.kept_tuples as u64;
            self.stats.shed_tuples += decision.shed_tuples as u64;
            self.stats.shed_batches += decision.shed_batches as u64;
            decision.shed_bitmap(self.buffer.len())
        } else {
            self.stats.kept_tuples += buffered as u64;
            DropBitmap::new()
        };

        let mut kept = 0u64;
        for (idx, (slot, rb)) in self.buffer.drain(..).enumerate() {
            if dropped.is_dropped(idx) {
                // A shed batch's columns are as reusable as processed
                // ones: under sustained overload this is the busiest
                // recycle point of all.
                if let Some(pool) = &self.pool {
                    pool.recycle(rb.batch.into_data());
                }
                continue;
            }
            kept += rb.batch.len() as u64;
            // Every buffered query got its accumulator above.
            if let Some(acc) = self.local_sic.as_mut().and_then(|l| l.get_mut(&rb.query)) {
                acc.add(now, rb.batch.sic().value());
            }
            // A buffered batch's fragment is hosted: detach purges the
            // buffer and re-attach keeps the slot.
            if let Some(hosted) = self.fragments[slot].as_mut() {
                // The batch's columns move into the fragment: no per-tuple
                // materialisation.
                let emissions = hosted.runtime.ingest(rb.ingress, rb.batch.into_data(), now);
                emit(rb.query, rb.fragment, hosted.downstream, emissions);
                hosted.schedule(slot, &mut self.due);
            }
        }
        // Pop the due entries; a stale one (its fragment detached, re-
        // attached or rescheduled earlier) no longer matches `scheduled`.
        // Should a stale entry match a later occupant of its slot, that
        // fragment is due at the entry's time anyway, and its own entry
        // turns stale once it is visited.
        let mut visit = std::mem::take(&mut self.visit);
        while let Some(&Reverse((at, slot))) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            if let Some(hosted) = self.fragments[slot].as_mut() {
                if hosted.scheduled == Some(at) {
                    hosted.scheduled = None;
                    visit.push((hosted.key, slot));
                }
            }
        }
        // Fragments that were not due emit nothing, so visiting the due
        // ones in `(query, fragment)` order emits what a walk over all of
        // them in that order would.
        visit.sort_unstable();
        self.stats.fragment_visits += visit.len() as u64;
        for ((query, fragment), slot) in visit.drain(..) {
            let hosted = self.fragments[slot]
                .as_mut()
                .expect("visited fragments are hosted");
            emit(query, fragment, hosted.downstream, hosted.runtime.tick(now));
            hosted.schedule(slot, &mut self.due);
        }
        self.visit = visit;
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::Template;

    /// Ticks `n`, discarding its output.
    fn tick(n: &mut Node, ms: u64) -> u64 {
        n.tick(Timestamp::from_millis(ms), |_, _, _, _| {})
    }

    /// A node at 400 t/s over 250 ms intervals: threshold 100 tuples.
    fn node() -> Node {
        Node::new(
            Policy::default().build(42),
            StwConfig::new(TimeDelta::from_secs(2), TimeDelta::from_millis(250)),
            OverloadDetector::new(TimeDelta::from_millis(250), 100),
        )
    }

    fn avg_query(id: u32) -> QuerySpec {
        let mut gen = IdGen::new();
        // Distinct source ids per query come from the scenario normally;
        // emulate by offsetting the generator.
        for _ in 0..id {
            let _: SourceId = gen.next();
        }
        Template::Avg.build(QueryId(id), &mut gen)
    }

    fn source_batch(q: &QuerySpec, ms: u64, n: usize) -> RoutedBatch {
        let src = q.sources[0].id;
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| Tuple::measurement(Timestamp::from_millis(ms), Sic::ZERO, 50.0))
            .collect();
        RoutedBatch {
            query: q.id,
            fragment: 0,
            ingress: Ingress::Source(src),
            batch: Batch::from_source(q.id, src, Timestamp::from_millis(ms), tuples),
        }
    }

    fn update(query: QueryId, sic: f64) -> SicUpdate {
        SicUpdate {
            query,
            node: NodeId(0),
            sic: Sic(sic),
        }
    }

    #[test]
    fn arrival_stamps_source_sic() {
        let q = avg_query(0);
        let mut n = node();
        n.attach(&q, 0, None);
        n.enqueue(source_batch(&q, 10, 100), Timestamp::from_millis(10));
        assert_eq!(n.buffered_tuples(), 100);
        assert_eq!(n.stats.arrived_tuples, 100);
        // The batch now carries Eq.-1 SIC mass.
        assert!(n.buffer[0].1.batch.sic().value() > 0.0);
    }

    #[test]
    fn underload_processes_everything() {
        let q = avg_query(0);
        let mut n = node();
        n.attach(&q, 0, None);
        n.enqueue(source_batch(&q, 10, 100), Timestamp::from_millis(10));
        assert_eq!(tick(&mut n, 250), 100);
        assert_eq!(n.stats.kept_tuples, 100);
        assert_eq!(n.stats.shed_tuples, 0);
        assert_eq!(n.buffered_tuples(), 0, "buffer drained");
    }

    #[test]
    fn overload_sheds_down_to_threshold() {
        let q = avg_query(0);
        let mut n = node();
        let pool = BatchPool::new();
        n.set_pool(pool.clone());
        n.attach(&q, 0, None);
        let src = q.sources[0].id;
        let at = Timestamp::from_millis(10);
        for k in 0..5 {
            // Acquired like a source's, so the pool takes a shed one back.
            let mut data = pool.acquire(&q.sources[0].schema(), 50);
            data.extend_rows(50, at, Sic::ZERO, &[], || 50.0);
            let rb = RoutedBatch {
                query: q.id,
                fragment: 0,
                ingress: Ingress::Source(src),
                batch: Batch::from_source_data(q.id, src, at, data),
            };
            n.enqueue(rb, Timestamp::from_millis(10 + k));
        }
        tick(&mut n, 250);
        assert_eq!(n.stats.kept_tuples, 100);
        assert_eq!(n.stats.shed_tuples, 150);
        assert_eq!(n.stats.shed_invocations, 1);
        assert_eq!(n.stats.shed_decisions, 1);
        assert_eq!(n.stats.shed_batches, 3);
        // The kept batches: the pane adopts one, copies and spends one.
        let recycled = pool.stats().recycled;
        assert_eq!(recycled, 3 + 1, "shed batches go to the pool");
    }

    /// Only the tick that runs the shedder for the first time reports a
    /// first shed: not a quiet tick before it, nor a shedding or quiet
    /// one after it.
    #[test]
    fn first_shed_marks_only_the_first_shedding_tick() {
        let q = avg_query(0);
        let mut n = node();
        n.attach(&q, 0, None);
        let mut firsts = Vec::new();
        for (ms, tuples) in [(250, 50), (500, 250), (750, 250), (1_000, 50)] {
            n.enqueue(
                source_batch(&q, ms - 10, tuples),
                Timestamp::from_millis(ms - 10),
            );
            tick(&mut n, ms);
            firsts.push(n.first_shed());
        }
        assert_eq!(firsts, [false, true, false, false]);
        assert_eq!(n.stats.shed_invocations, 2);
    }

    #[test]
    fn pinned_capacity_overrides_the_detector() {
        let q = avg_query(0);
        let mut n = node();
        n.pin_capacity(Some(3));
        assert_eq!(n.threshold(), 3);
        n.attach(&q, 0, None);
        n.enqueue(source_batch(&q, 10, 10), Timestamp::from_millis(10));
        tick(&mut n, 250);
        assert_eq!(n.stats.shed_invocations, 1);
        assert_eq!(n.stats.shed_tuples, 10, "the one batch exceeds c = 3");
        n.pin_capacity(None);
        assert_eq!(n.threshold(), 100);
    }

    #[test]
    fn windowed_results_emerge_after_grace() {
        let q = avg_query(0);
        let mut n = node();
        n.attach(&q, 0, None);
        n.enqueue(source_batch(&q, 10, 100), Timestamp::from_millis(10));
        let mut emitted = Vec::new();
        for t in [250u64, 500, 750, 1000, 1250, 1500, 1750] {
            n.tick(Timestamp::from_millis(t), |query, _, _, e| {
                emitted.extend(e.into_iter().map(|e| (query, e)));
            });
        }
        assert_eq!(emitted.len(), 1, "one AVG result window");
        let (query, e) = &emitted[0];
        assert_eq!(*query, q.id);
        assert_eq!(e.batch().row(0).f64(0), 50.0);
    }

    #[test]
    fn sic_update_feeds_table() {
        let mut n = node();
        n.apply_sic(&update(QueryId(3), 0.4));
        assert_eq!(n.stats.sic_updates, 1);
        assert_eq!(n.sic_table.get(QueryId(3)), Sic(0.4));
        // The last update wins.
        n.apply_sic(&update(QueryId(3), 0.1));
        assert_eq!(n.sic_table.get(QueryId(3)), Sic(0.1));
    }

    #[test]
    fn balance_prefers_starved_queries() {
        // Two queries, one reported rich (0.8), one starved (0.0); capacity
        // for only part of the buffer: the starved query's batches win.
        let (q0, q1) = (avg_query(0), avg_query(1));
        let mut n = node();
        n.attach(&q0, 0, None);
        n.attach(&q1, 0, None);
        n.apply_sic(&update(q0.id, 0.8));
        n.apply_sic(&update(q1.id, 0.0));
        for k in 0..2 {
            n.enqueue(source_batch(&q0, 10, 50), Timestamp::from_millis(10 + k));
            n.enqueue(source_batch(&q1, 10, 50), Timestamp::from_millis(10 + k));
        }
        tick(&mut n, 250);
        assert_eq!(n.stats.kept_tuples, 100);
        assert_eq!(n.stats.shed_tuples, 100);
        assert_eq!(n.stats.shed_batches, 2);
    }

    #[test]
    fn local_sic_ignores_updates_and_tracks_accepted_mass() {
        let q = avg_query(0);
        let mut n = node();
        n.use_local_sic(true);
        n.attach(&q, 0, None);
        n.apply_sic(&update(q.id, 0.9));
        assert_eq!(n.stats.sic_updates, 1, "counted even when ignored");
        assert_eq!(n.sic_table.get(q.id), Sic::ZERO);
        n.enqueue(source_batch(&q, 10, 50), Timestamp::from_millis(10));
        tick(&mut n, 250);
        n.enqueue(source_batch(&q, 260, 50), Timestamp::from_millis(260));
        tick(&mut n, 500);
        // The second tick read back the mass the first one accepted.
        assert!(n.sic_table.get(q.id).value() > 0.0);
    }

    #[test]
    fn detach_purges_fragments_buffer_and_assigner() {
        let (q0, q1) = (avg_query(0), avg_query(1));
        let mut n = node();
        n.attach(&q0, 0, None);
        n.attach(&q1, 0, None);
        n.apply_sic(&update(q0.id, 0.5));
        n.enqueue(source_batch(&q0, 0, 1), Timestamp(0));
        n.enqueue(source_batch(&q1, 0, 1), Timestamp(0));
        assert_eq!(n.detach(q0.id), 1);
        assert_eq!(n.buffer.len(), 1, "q0's buffered batch purged");
        assert_eq!(n.buffer[0].1.query, q1.id);
        assert!(!n.queries.contains_key(&q0.id));
        assert_eq!(n.sic_table.get(q0.id), Sic::ZERO);
        // Detaching the last query empties the node.
        assert_eq!(n.detach(q1.id), 0);
    }

    #[test]
    fn checkpoint_round_trips_sic_table() {
        let q = avg_query(0);
        let mut n = node();
        n.attach(&q, 0, None);
        n.apply_sic(&update(q.id, 0.4));
        let snap = n.checkpoint(7);
        assert_eq!(snap.node, 7);
        assert_eq!(snap.sic, vec![(q.id, Sic(0.4))]);
        let mut fresh = node();
        fresh.attach(&q, 0, None);
        fresh.restore(&snap);
        assert_eq!(fresh.sic_table.get(q.id), Sic(0.4));
        fresh.set_sic(q.id, Sic(0.1));
        assert_eq!(fresh.sic_table.get(q.id), Sic(0.1));
    }

    #[test]
    fn detach_forgets_the_local_sic_accumulator() {
        let (q0, q1) = (avg_query(0), avg_query(1));
        let mut n = node();
        n.use_local_sic(true);
        n.attach(&q0, 0, None);
        n.attach(&q1, 0, None);
        n.enqueue(source_batch(&q0, 10, 5), Timestamp::from_millis(10));
        n.enqueue(source_batch(&q1, 10, 5), Timestamp::from_millis(10));
        tick(&mut n, 250);
        let local = |n: &Node, q: QueryId| n.local_sic.as_ref().unwrap().contains_key(&q);
        assert!(local(&n, q0.id) && local(&n, q1.id));
        n.detach(q0.id);
        assert!(!local(&n, q0.id), "a detached query's accumulator lingered");
        assert!(local(&n, q1.id));
    }

    /// 64 AVG queries at 1 t/s each, ticked every 250 ms: only the
    /// fragments with a due pane are visited — one visit per closed pane,
    /// a quarter of the hosted fragments per tick on average, not all 64
    /// on every tick.
    #[test]
    fn a_tick_visits_only_fragments_with_a_due_pane() {
        let queries: Vec<QuerySpec> = (0..64).map(avg_query).collect();
        let mut n = node();
        for q in &queries {
            n.attach(q, 0, None);
        }
        let (mut ticks, mut results) = (0u64, 0u64);
        for t in (250..=8_000u64).step_by(250) {
            // Query k's tuple of second s arrives at s + 10 + 15·k ms; enqueue
            // those of the interval (t − 250 ms, t].
            for (k, q) in queries.iter().enumerate() {
                for s in (t / 1_000).saturating_sub(1)..=t / 1_000 {
                    let ms = 1_000 * s + 10 + 15 * k as u64;
                    if ms + 250 > t && ms <= t && ms < 8_000 {
                        n.enqueue(source_batch(q, ms, 1), Timestamp::from_millis(ms));
                    }
                }
            }
            n.tick(Timestamp::from_millis(t), |_, _, _, e| {
                results += e.len() as u64;
            });
            ticks += 1;
        }
        // Panes [0, 1 s) … [6 s, 7 s) close 500 ms after their end, by 8 s.
        assert_eq!(results, 64 * 7);
        assert_eq!(n.stats.fragment_visits, 64 * 7, "one visit per closed pane");
        assert_eq!(n.stats.fragment_visits / ticks, 14, "≈16 per tick, not 64");
        let total: NodeReport = [n.stats.clone(), n.stats.clone()].iter().sum();
        assert_eq!(total.fragment_visits, 2 * 64 * 7, "absorb sums visits");
    }

    #[test]
    fn a_restored_pane_emits_on_its_first_due_tick() {
        let q = avg_query(0);
        let mut n = node();
        n.attach(&q, 0, None);
        n.enqueue(source_batch(&q, 100, 4), Timestamp::from_millis(100));
        tick(&mut n, 250);
        let snap = n.checkpoint(0);
        assert_eq!(snap.panes.len(), 1, "the open [0, 1 s) pane");
        let mut fresh = node();
        fresh.attach(&q, 0, None);
        fresh.restore(&snap);
        let mut emitted = Vec::new();
        for t in [500u64, 1_000, 1_250, 1_500] {
            fresh.tick(Timestamp::from_millis(t), |_, _, _, e| {
                emitted.extend(e.into_iter().map(|e| (t, e)));
            });
        }
        assert_eq!(emitted.len(), 1, "the restored pane closed");
        let (t, e) = &emitted[0];
        assert_eq!(*t, 1_500, "on the first tick past end + grace");
        assert_eq!(e.batch().row(0).f64(0), 50.0);
    }

    mod active_set {
        use super::*;
        use proptest::prelude::*;

        /// Queries of a few shapes: one- and multi-operator fragments,
        /// one and two sources.
        fn queries() -> Vec<QuerySpec> {
            let mut gen = IdGen::new();
            [
                Template::Avg,
                Template::Max,
                Template::Count,
                Template::Cov { fragments: 1 },
            ]
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.build(QueryId(i as u32), &mut gen))
            .collect()
        }

        proptest! {
            /// Under any schedule of attach, enqueue (late tuples
            /// included), tick, detach and re-attach, a tick leaves no
            /// hosted fragment with a due pane: every due fragment had a
            /// live entry in the due heap.
            #[test]
            fn no_fragment_is_left_due_after_a_tick(
                steps in prop::collection::vec((0u8..8, 0usize..4, 0u64..400, 0u64..2_000), 1..120)
            ) {
                let queries = queries();
                let mut n = node();
                let mut now = 0u64;
                for (action, qi, advance, lateness) in steps {
                    let q = &queries[qi];
                    now += advance;
                    match action {
                        0 => {
                            n.attach(q, 0, None);
                        }
                        1 => {
                            n.detach(q.id);
                        }
                        2..=5 => {
                            let src = &q.fragments[0].sources[action as usize % q.fragments[0].sources.len()];
                            let ts = now.saturating_sub(lateness % 1_200);
                            let tuples = (0..=lateness % 3)
                                .map(|k| Tuple::measurement(Timestamp::from_millis(ts), Sic::ZERO, k as f64 * 40.0))
                                .collect();
                            let rb = RoutedBatch {
                                query: q.id,
                                fragment: 0,
                                ingress: Ingress::Source(src.source),
                                batch: Batch::from_source(q.id, src.source, Timestamp::from_millis(ts), tuples),
                            };
                            n.enqueue(rb, Timestamp::from_millis(now));
                        }
                        _ => {
                            let at = Timestamp::from_millis(now);
                            tick(&mut n, now);
                            for hosted in n.fragments.iter().flatten() {
                                prop_assert!(!hosted.runtime.has_due(at), "{:?} still due at {now} ms", hosted.key);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mean_shed_time() {
        let mut r = NodeReport::default();
        assert_eq!(r.mean_shed_time_us(), 0.0);
        r.shed_time_ns = 3_000_000;
        r.shed_decisions = 3;
        assert_eq!(r.mean_shed_time_us(), 1000.0);
        r.arrived_tuples = 10;
        r.shed_tuples = 4;
        let total: NodeReport = [r.clone(), r].iter().sum();
        assert_eq!(total.shed_decisions, 6);
        assert_eq!(total.shed_fraction(), 0.4);
        assert_eq!(NodeReport::default().shed_fraction(), 0.0);
    }
}
