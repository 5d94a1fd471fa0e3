//! Per-node state of the prototype engine: the shared Figure-5 [`Node`]
//! (`themis_query::node` — input buffer, overload detector, online cost
//! model, tuple shedder, operator execution, counters) on a wall clock.
//! What [`NodeState`] adds is only what a real clock needs: `Instant`
//! deadlines with the drift/late-tick reschedule below, measured busy time
//! for [`CostModel::observe_windowed`], pool recycling of shed batches, the
//! synthetic-cost spin, and the per-query SIC divergence from the last
//! checkpoint that triggers early checkpoints.
//!
//! A tick hands its fragments' emissions to the [`EmissionSink`] its caller
//! supplies: the shard's outbox, which leaves a service pass as one
//! message per destination, or [`ShardRouting`], the benchmark replay's
//! per-emission channel sink.
//!
//! Extracting the node from the seed engine's one-OS-thread-per-node
//! worker lets one shard thread interleave thousands of nodes (see
//! [`crate::shard`], which also keeps a message flood from starving the
//! tick). Nodes are *dynamic*: fragments install via
//! [`NodeState::attach_fragment`] and depart via [`Node::detach`].
//!
//! **No drift storm** — a tick that overruns its period reschedules to the
//! next *future* deadline; the seed's `next_tick += interval` fired a burst
//! of zero-timeout catch-up ticks that fed the cost model's EWMA tiny
//! windows. Skipped periods are counted in [`NodeReport::late_ticks`], and
//! the cost model weighs observations by actual window length.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;

use themis_core::prelude::*;
use themis_operators::op::Emission;
use themis_query::prelude::*;

use crate::messages::{EngineMsg, ResultEvent, ShardMsg};

/// Where a tick's fragment emissions go: `route` receives each emitting
/// fragment's emissions with the `downstream` it was attached with
/// (`None` = the query-result sink).
pub trait EmissionSink {
    /// Takes `fragment` of `query`'s emissions, bound for `downstream`.
    fn route(
        &mut self,
        query: QueryId,
        fragment: usize,
        downstream: Option<(usize, usize)>,
        emissions: Vec<Emission>,
    );
}

/// A per-emission channel sink: one message per emission. It serves only
/// the benchmark's replay harness, which builds it around its own
/// channels; engine shards collect a pass's emissions in their outbox
/// instead and send one message per destination.
pub struct ShardRouting {
    /// Senders addressing every node (index = global node).
    pub node_txs: Vec<Sender<ShardMsg>>,
    /// Sink for query results.
    pub results_tx: Sender<ResultEvent>,
}

/// The routed batch a downstream emission becomes: `query`'s fragment
/// `fragment` feeding fragment `to` of the same query.
pub(crate) fn downstream_batch(
    query: QueryId,
    fragment: usize,
    to: usize,
    emission: Emission,
) -> RoutedBatch {
    let at = emission.at;
    RoutedBatch {
        query,
        fragment: to,
        ingress: Ingress::Upstream(fragment),
        // Wrap the emission's columns directly — no per-tuple
        // re-materialisation between fragments.
        batch: Batch::from_data(query, at, emission.into_batch()),
    }
}

impl EmissionSink for ShardRouting {
    /// Sends each emission to `downstream`'s node as one
    /// [`EngineMsg::Batch`], or to the results sink when `None`.
    fn route(
        &mut self,
        query: QueryId,
        fragment: usize,
        downstream: Option<(usize, usize)>,
        emissions: Vec<Emission>,
    ) {
        for e in emissions {
            // A closed peer means shutdown is racing; dropping the
            // emission is equivalent to shedding it.
            match downstream {
                Some((node, to)) => {
                    let msg = EngineMsg::Batch(downstream_batch(query, fragment, to, e));
                    let _ = self.node_txs[node].send(ShardMsg { node, msg });
                }
                None => {
                    let sic = e.sic();
                    let _ = self.results_tx.send(ResultEvent { query, sic });
                }
            }
        }
    }
}

/// Per-node static configuration.
pub struct NodeConfig {
    /// Node id.
    pub id: NodeId,
    /// Shedding interval (wall time).
    pub interval: TimeDelta,
    /// STW configuration.
    pub stw: StwConfig,
    /// Tuple shedder.
    pub shedder: Box<dyn Shedder>,
    /// Artificial per-tuple processing cost (spin), so that modest source
    /// rates overload the node reproducibly. `TimeDelta::ZERO` disables it.
    pub synthetic_cost: TimeDelta,
    /// Initial capacity estimate (tuples per interval) used before the
    /// cost model has observations.
    pub initial_capacity: usize,
    /// Fixed shedding threshold (tuples per interval). `Some` pins the
    /// detector to a declared node capacity — the engine analogue of the
    /// simulator's `node_capacity_tps` — instead of the online cost-model
    /// estimate; experiments at 1000+-node scale use it to create genuine
    /// overload without burning wall time in the synthetic-cost spin.
    pub fixed_capacity: Option<usize>,
    /// Shared batch pool: shed batches and the node's operator windows
    /// recycle their spent columns into it (and the source pump acquires
    /// from it), so steady-state ingest stops round-tripping the
    /// allocator. `None` disables recycling.
    pub pool: Option<BatchPool>,
}

/// The shared [`Node`] on a wall clock, owned by a shard thread.
pub struct NodeState {
    /// Global node index (for routing and report scatter).
    pub node: usize,
    /// The shared node; the shard drives it directly where this adapter
    /// adds nothing (detach, restore, final counters).
    pub(crate) core: Node,
    synthetic_cost: TimeDelta,
    interval: Duration,
    interval_delta: TimeDelta,
    next_tick: Instant,
    last_tick: Instant,
    pool: Option<BatchPool>,
    /// The SIC table of the last checkpoint written to disk (empty before
    /// the first one; see [`NodeState::mark_checkpointed`]).
    checkpointed: HashMap<QueryId, Sic>,
    /// Largest distance of any updated query's SIC from its checkpointed
    /// value since the last checkpoint — the AF-Stream divergence measure
    /// that triggers early checkpoints.
    sic_drift: f64,
}

impl NodeState {
    /// Builds the (fragment-less) state for global node `node`, with its
    /// first shedding deadline at `first_tick`. Fragments install through
    /// [`NodeState::attach_fragment`].
    pub fn new(config: NodeConfig, node: usize, first_tick: Instant) -> Self {
        // Clamped to 1 us: a zero interval would pin the deadline in the
        // past forever (`deadline + ZERO * periods == deadline`), keeping
        // this node the heap minimum and starving its shard-mates' ticks.
        let interval = Duration::from_micros(config.interval.as_micros().max(1));
        let detector = OverloadDetector::new(config.interval, config.initial_capacity);
        let mut core = Node::new(config.shedder, config.stw, detector);
        core.pin_capacity(config.fixed_capacity);
        NodeState {
            node,
            core,
            synthetic_cost: config.synthetic_cost,
            interval,
            interval_delta: config.interval,
            next_tick: first_tick,
            last_tick: first_tick.checked_sub(interval).unwrap_or(first_tick),
            pool: config.pool,
            checkpointed: HashMap::new(),
            sic_drift: 0.0,
        }
    }

    /// Installs one fragment of `query` on this node, routing its
    /// emissions to `downstream` (`None` = the query-result sink).
    /// Re-attaching an already-hosted fragment resets its runtime.
    pub fn attach_fragment(
        &mut self,
        query: &QuerySpec,
        fragment: usize,
        downstream: Option<(usize, usize)>,
    ) {
        let runtime = self.core.attach(query, fragment, downstream);
        if let Some(pool) = &self.pool {
            runtime.set_pool(pool);
        }
    }

    /// The node's next shedding deadline.
    pub fn next_tick(&self) -> Instant {
        self.next_tick
    }

    /// Counters accumulated so far.
    pub fn report(&self) -> &NodeReport {
        &self.core.stats
    }

    /// Enqueues an incoming data batch, stamping source batches with SIC.
    pub fn enqueue(&mut self, rb: RoutedBatch, now: Timestamp) {
        self.core.enqueue(rb, now);
    }

    /// Applies a coordinator SIC update and widens the divergence measure
    /// ([`NodeState::sic_drift`]) to the updated query's distance from its
    /// checkpointed value.
    pub fn apply_sic(&mut self, update: &SicUpdate) {
        self.core.apply_sic(update);
        let checkpointed = self
            .checkpointed
            .get(&update.query)
            .copied()
            .unwrap_or(Sic::ZERO);
        let divergence = (update.sic.value() - checkpointed.value()).abs();
        self.sic_drift = self.sic_drift.max(divergence);
    }

    /// The largest distance between a query's SIC and its value at the
    /// last checkpoint, over the queries updated since (a query never
    /// checkpointed counts from zero). A shard checkpoints early when a
    /// node's drift exceeds the configured divergence bound, so no
    /// checkpointed SIC is further than the bound from its live value —
    /// however many queries the node hosts (AF-Stream's per-state
    /// divergence threshold).
    pub fn sic_drift(&self) -> f64 {
        self.sic_drift
    }

    /// Captures the node's recoverable state: SIC table plus every
    /// buffered window pane.
    pub fn snapshot(&self) -> NodeSnapshot {
        self.core.checkpoint(self.node)
    }

    /// Measures divergence afresh from `snapshot`, this node's
    /// [`NodeState::snapshot`] that is now on disk. A snapshot whose write
    /// failed must not be marked: divergence keeps counting from the last
    /// one that was written, so the early trigger still fires.
    pub fn mark_checkpointed(&mut self, snapshot: &NodeSnapshot) {
        debug_assert_eq!(snapshot.node, self.node, "another node's snapshot");
        self.checkpointed = snapshot.sic.iter().copied().collect();
        self.sic_drift = 0.0;
    }

    /// [`NodeState::snapshot`], marked checkpointed at once: for a caller
    /// whose write cannot fail, or that takes a failure as fatal.
    pub fn checkpoint(&mut self) -> NodeSnapshot {
        let snapshot = self.snapshot();
        self.mark_checkpointed(&snapshot);
        snapshot
    }

    /// Fires one shedding tick at wall time `now` (see [`Node::tick`]),
    /// hands the fragments' emissions to `sink`, feeds the cost model the
    /// measured processing time, then reschedules the deadline past `now`.
    pub fn tick(&mut self, now: Instant, epoch: Instant, sink: &mut impl EmissionSink) {
        let window = TimeDelta::from_micros(
            now.saturating_duration_since(self.last_tick).as_micros() as u64,
        );
        self.last_tick = now;
        self.reschedule(now);

        let now_ts = Timestamp(epoch.elapsed().as_micros() as u64);
        let pool = self.pool.as_ref();
        let select_ns = self.core.stats.shed_time_ns;
        let start = Instant::now();
        let kept = self.core.tick(
            now_ts,
            |rb| {
                // A shed batch's columns are as reusable as processed
                // ones — under sustained overload this is the busiest
                // recycle point of all.
                if let Some(pool) = pool {
                    pool.recycle(rb.batch.into_data());
                }
            },
            |query, fragment, downstream, emissions| {
                sink.route(query, fragment, downstream, emissions);
            },
        );
        if !self.synthetic_cost.is_zero() {
            spin_for(self.synthetic_cost.as_micros() * kept);
        }
        // Busy time is processing only; the shedder's own time is the
        // separately reported §7.6 overhead.
        let select_ns = self.core.stats.shed_time_ns - select_ns;
        let busy_ns = (start.elapsed().as_nanos() as u64).saturating_sub(select_ns);
        self.core.cost_model_mut().observe_windowed(
            TimeDelta::from_micros(busy_ns / 1_000),
            kept,
            window,
            self.interval_delta,
        );
    }

    /// Advances the deadline one period, skipping any periods `now` has
    /// already overrun so the next tick is strictly in the future (the
    /// drift fix — no burst of zero-timeout catch-up ticks).
    fn reschedule(&mut self, now: Instant) {
        let deadline = self.next_tick;
        self.next_tick = deadline + self.interval;
        if self.next_tick <= now {
            self.core.stats.late_ticks += 1;
            let behind = now.duration_since(deadline).as_nanos();
            let periods = (behind / self.interval.as_nanos().max(1))
                .saturating_add(1)
                .min(u32::MAX as u128) as u32;
            self.next_tick = deadline + self.interval * periods;
        }
    }
}

/// Busy-spins for roughly `micros` microseconds (sleeping is too coarse at
/// this granularity).
fn spin_for(micros: u64) {
    let start = Instant::now();
    let target = Duration::from_micros(micros);
    while start.elapsed() < target {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_query::prelude::Template;

    fn config(interval_ms: u64) -> NodeConfig {
        NodeConfig {
            id: NodeId(0),
            interval: TimeDelta::from_millis(interval_ms),
            stw: StwConfig::PAPER_DEFAULT,
            shedder: Policy::default().build(7),
            synthetic_cost: TimeDelta::ZERO,
            initial_capacity: 100,
            fixed_capacity: None,
            pool: None,
        }
    }

    fn state(interval_ms: u64, first_tick: Instant) -> NodeState {
        let mut ids = IdGen::new();
        let query = Template::Avg.build(QueryId(0), &mut ids);
        let mut s = NodeState::new(config(interval_ms), 0, first_tick);
        s.attach_fragment(&query, 0, None);
        s
    }

    #[test]
    fn deadline_advances_one_period_when_on_time() {
        let base = Instant::now() + Duration::from_secs(60);
        let mut s = state(50, base);
        assert!(base >= s.next_tick(), "due at its deadline");
        s.reschedule(base);
        assert_eq!(s.next_tick(), base + Duration::from_millis(50));
        assert_eq!(s.report().late_ticks, 0);
    }

    #[test]
    fn overrun_skips_missed_periods_to_future_deadline() {
        let base = Instant::now() + Duration::from_secs(60);
        let mut s = state(50, base);
        // The tick fires 5.7 intervals after its deadline (an overrunning
        // predecessor or a message flood held it up).
        let now = base + Duration::from_micros(5_700 * 50);
        s.reschedule(now);
        // Seed behaviour was `next_tick += interval`, leaving 5 deadlines
        // in the past — a storm of zero-timeout ticks. Fixed: the next
        // deadline is the first schedule point strictly after `now`.
        assert!(s.next_tick() > now, "deadline left in the past");
        assert_eq!(s.next_tick(), base + Duration::from_millis(6 * 50));
        assert!(now < s.next_tick(), "immediate re-tick would storm");
        assert_eq!(s.report().late_ticks, 1);
    }

    #[test]
    fn exact_multiple_overrun_still_lands_in_future() {
        let base = Instant::now() + Duration::from_secs(60);
        let mut s = state(50, base);
        let now = base + Duration::from_millis(3 * 50);
        s.reschedule(now);
        assert_eq!(s.next_tick(), base + Duration::from_millis(4 * 50));
        assert_eq!(s.report().late_ticks, 1);
    }

    #[test]
    fn lateness_under_one_period_is_not_late() {
        let base = Instant::now() + Duration::from_secs(60);
        let mut s = state(50, base);
        s.reschedule(base + Duration::from_millis(20));
        assert_eq!(s.next_tick(), base + Duration::from_millis(50));
        assert_eq!(s.report().late_ticks, 0);
    }

    #[test]
    fn enqueue_counts_arrivals() {
        let base = Instant::now();
        let mut s = state(50, base);
        let tuples = vec![
            Tuple::measurement(Timestamp(0), Sic(0.1), 1.0),
            Tuple::measurement(Timestamp(0), Sic(0.1), 2.0),
        ];
        s.enqueue(
            RoutedBatch {
                query: QueryId(0),
                fragment: 0,
                ingress: Ingress::Source(SourceId(0)),
                batch: Batch::new(QueryId(0), Timestamp(0), tuples),
            },
            Timestamp(0),
        );
        assert_eq!(s.report().arrived_tuples, 2);
    }

    #[test]
    fn detach_purges_fragments_buffer_and_assigner() {
        let mut ids = IdGen::new();
        let q0 = Template::Avg.build(QueryId(0), &mut ids);
        let q1 = Template::Avg.build(QueryId(1), &mut ids);
        let base = Instant::now();
        let mut s = NodeState::new(config(50), 0, base);
        s.attach_fragment(&q0, 0, None);
        s.attach_fragment(&q1, 0, None);
        for (q, src) in [(&q0, q0.sources[0].id), (&q1, q1.sources[0].id)] {
            s.enqueue(
                RoutedBatch {
                    query: q.id,
                    fragment: 0,
                    ingress: Ingress::Source(src),
                    batch: Batch::new(
                        q.id,
                        Timestamp(0),
                        vec![Tuple::measurement(Timestamp(0), Sic(0.1), 1.0)],
                    ),
                },
                Timestamp(0),
            );
        }
        assert_eq!(s.core.buffered_tuples(), 2);
        assert_eq!(s.core.detach(q0.id), 1, "q1's fragment stays");
        assert_eq!(s.core.buffered_tuples(), 1, "q0's buffered batch purged");
        // Detaching the last query empties the node.
        assert_eq!(s.core.detach(q1.id), 0);
    }

    #[test]
    fn fixed_capacity_pins_the_threshold() {
        let mut ids = IdGen::new();
        let query = Template::Avg.build(QueryId(0), &mut ids);
        let base = Instant::now();
        let pool = BatchPool::new();
        let mut cfg = config(50);
        cfg.fixed_capacity = Some(3);
        cfg.pool = Some(pool.clone());
        let mut s = NodeState::new(cfg, 0, base);
        s.attach_fragment(&query, 0, None);
        let src = query.sources[0].id;
        // Acquired like a source's, so the pool takes the shed batch back.
        let mut data = pool.acquire(&measurement_schema(), 10);
        for i in 0..10 {
            data.push_row(Timestamp(0), Sic(0.01), &[Value::F64(i as f64)]);
        }
        s.enqueue(
            RoutedBatch {
                query: query.id,
                fragment: 0,
                ingress: Ingress::Source(src),
                batch: Batch::from_source_data(query.id, src, Timestamp(0), data),
            },
            Timestamp(0),
        );
        let (tx, _rx) = crossbeam::channel::unbounded();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let mut routing = ShardRouting {
            node_txs: vec![tx],
            results_tx,
        };
        s.tick(base, base, &mut routing);
        // 10 buffered > 3 fixed capacity, despite the cost model having
        // no reason to shed (zero synthetic cost).
        assert_eq!(s.report().shed_invocations, 1);
        assert!(s.report().shed_tuples >= 7);
        assert_eq!(s.report().ticks, 1);
        assert_eq!(
            pool.stats().recycled,
            1,
            "the shed batch went back to the pool"
        );
    }

    fn sic(s: &mut NodeState, query: u32, sic: f64) {
        s.apply_sic(&SicUpdate {
            query: QueryId(query),
            node: NodeId(0),
            sic: Sic(sic),
        });
    }

    #[test]
    fn sic_drift_is_the_largest_divergence_from_the_checkpoint() {
        let mut s = state(50, Instant::now());
        // Never checkpointed: distances count from zero, and the drift
        // keeps the widest one even after the query moves back.
        sic(&mut s, 0, 0.5);
        sic(&mut s, 0, 0.2);
        assert!((s.sic_drift() - 0.5).abs() < 1e-12);
        let snap = s.checkpoint();
        assert_eq!(snap.sic, vec![(QueryId(0), Sic(0.2))]);
        assert_eq!(s.sic_drift(), 0.0);
        // Measured from the checkpointed 0.2, not from zero.
        sic(&mut s, 0, 0.3);
        assert!((s.sic_drift() - 0.1).abs() < 1e-12);

        // Many queries each moving a little do not add up.
        let mut ids = IdGen::new();
        let mut s = NodeState::new(config(50), 0, Instant::now());
        for q in 0..160 {
            s.attach_fragment(&Template::Avg.build(QueryId(q), &mut ids), 0, None);
            sic(&mut s, q, 0.5);
        }
        s.checkpoint();
        for q in 0..160 {
            sic(&mut s, q, 0.51);
        }
        assert!((s.sic_drift() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn spin_roughly_waits() {
        let t0 = Instant::now();
        spin_for(200);
        let us = t0.elapsed().as_micros();
        assert!(us >= 200, "spun only {us}us");
    }
}
