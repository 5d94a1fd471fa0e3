//! Per-node state of the prototype engine: the shared Figure-5 [`Node`]
//! (`themis_query::node` — input buffer, overload detector, online cost
//! model, tuple shedder, operator execution, counters) on logical time.
//! It reads no clock: a tick stamps the `now` its driver gives it, and
//! feeds [`CostModel::observe_windowed`] the busy time of the
//! [`CostClock`] its driver supplies. What it adds is the drift/late-tick
//! reschedule below and the per-query SIC divergence from the last
//! checkpoint that triggers early checkpoints. The batch pool of
//! [`NodeConfig::pool`] goes to the node, which recycles its fragments'
//! spent batches and its shed ones.
//!
//! Extracting the node from the seed engine's one-OS-thread-per-node
//! worker lets one shard thread interleave thousands of nodes (see
//! [`crate::shard`], which keeps their deadlines and keeps a message
//! flood from starving the tick). Nodes are *dynamic*: fragments install
//! via [`NodeState::attach_fragment`] and depart via [`Node::detach`].
//!
//! **No drift storm** — a tick that overruns its period reschedules to the
//! next *future* deadline; the seed's `next_tick += interval` fired a burst
//! of zero-timeout catch-up ticks that fed the cost model's EWMA tiny
//! windows. Skipped periods are counted in [`NodeReport::late_ticks`], and
//! the cost model weighs observations by actual window length.

use std::collections::HashMap;

use themis_core::prelude::*;
use themis_operators::op::Emission;
use themis_query::prelude::*;

/// How long a tick's work took, for the node's cost model: supplied by
/// the driver, as `now` is.
pub trait CostClock {
    /// Runs `work` (one [`Node::tick`], returning the tuples it kept and
    /// the nanoseconds its shedder took) at a synthetic cost of `per_tuple`
    /// a kept tuple; returns the kept tuples and the busy time to charge.
    fn time(&self, per_tuple: TimeDelta, work: &mut dyn FnMut() -> (u64, u64)) -> (u64, TimeDelta);
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
    /// Artificial per-tuple processing cost, so that modest source rates
    /// overload the node reproducibly; the cost clock charges it. `ZERO`
    /// disables it.
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

/// The shared [`Node`] on a shard's logical clock, owned by a shard thread.
pub struct NodeState {
    /// Global node index (for routing and report scatter).
    pub node: usize,
    /// The shared node; the shard drives it directly where this adapter
    /// adds nothing (detach, restore, final counters).
    pub(crate) core: Node,
    synthetic_cost: TimeDelta,
    /// The shedding interval, clamped to 1 us: a zero interval would pin
    /// the deadline in the past forever, keeping the node the heap minimum
    /// and starving its shard-mates' ticks.
    pub(crate) interval: TimeDelta,
    /// When the last tick fired; `None` before the first.
    last_tick: Option<Timestamp>,
    /// The SIC table of the last checkpoint written to disk (empty before
    /// the first one; see [`NodeState::mark_checkpointed`]).
    checkpointed: HashMap<QueryId, Sic>,
    /// Largest distance of any updated query's SIC from its checkpointed
    /// value since the last checkpoint — the AF-Stream divergence measure
    /// that triggers early checkpoints.
    sic_drift: f64,
}

impl NodeState {
    /// Builds the (fragment-less) state for global node `node`; its
    /// driver keeps its shedding deadline. Fragments install through
    /// [`NodeState::attach_fragment`].
    pub(crate) fn build(config: NodeConfig, node: usize) -> Self {
        let detector = OverloadDetector::new(config.interval, config.initial_capacity);
        let mut core = Node::new(config.shedder, config.stw, detector);
        core.pin_capacity(config.fixed_capacity);
        if let Some(pool) = config.pool {
            core.set_pool(pool);
        }
        NodeState {
            node,
            core,
            synthetic_cost: config.synthetic_cost,
            interval: TimeDelta::from_micros(config.interval.as_micros().max(1)),
            last_tick: None,
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
        self.core.attach(query, fragment, downstream);
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

    /// Fires the tick due at `deadline`, at logical time `now` (see
    /// [`Node::tick`]): hands the fragments' emissions to `emit` as
    /// `(query, fragment, downstream, emissions)`, feeds the cost model
    /// the busy time `cost` reports, and returns the next deadline.
    pub(crate) fn fire(
        &mut self,
        deadline: Timestamp,
        now: Timestamp,
        cost: &dyn CostClock,
        mut emit: impl FnMut(QueryId, usize, Option<(usize, usize)>, Vec<Emission>),
    ) -> Timestamp {
        // The first tick's window counts as one full interval.
        let window = self.last_tick.map_or(self.interval, |last| now - last);
        self.last_tick = Some(now);
        let (select_ns, core) = (self.core.stats.shed_time_ns, &mut self.core);
        let (kept, busy) = cost.time(self.synthetic_cost, &mut || {
            let kept = core.tick(now, &mut emit);
            (kept, core.stats.shed_time_ns - select_ns)
        });
        let model = self.core.cost_model_mut();
        model.observe_windowed(busy, kept, window, self.interval);
        self.reschedule(deadline, now)
    }

    /// The deadline after `deadline`, fired at `now`: one period on, or,
    /// when `now` has overrun that, the first period boundary strictly
    /// after `now`, counting the tick late (the drift fix — no burst of
    /// zero-timeout catch-up ticks).
    fn reschedule(&mut self, deadline: Timestamp, now: Timestamp) -> Timestamp {
        let periods = (now - deadline).div(self.interval) + 1;
        if periods > 1 {
            self.core.stats.late_ticks += 1;
        }
        deadline + TimeDelta::from_micros(self.interval.as_micros() * periods)
    }
}

pub use replay::ShardRouting;

/// The benchmark replay builds nodes and fires their ticks by name on wall
/// instants, one channel message per emission: these thin adapters exist
/// for it alone, and ROADMAP 1(a) deletes them.
mod replay {
    use std::time::Instant;

    use crossbeam::channel::Sender;

    use super::*;
    use crate::messages::{EngineMsg, ResultEvent, ShardMsg};
    use crate::shard::WallClock;

    /// A per-emission channel sink around the replay's own channels.
    pub struct ShardRouting {
        /// Senders addressing every node (index = global node).
        pub node_txs: Vec<Sender<ShardMsg>>,
        /// Sink for query results.
        pub results_tx: Sender<ResultEvent>,
    }

    impl ShardRouting {
        /// Sends each emission to `downstream`'s node as one
        /// [`EngineMsg::Batch`], or to the results sink when `None`.
        fn route(
            &self,
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

    impl NodeState {
        /// A fragment-less node; the replay keeps its deadlines itself.
        pub fn new(config: NodeConfig, node: usize, _first_tick: Instant) -> Self {
            Self::build(config, node)
        }

        /// Fires one tick stamped `epoch.elapsed()`, timed on the wall
        /// clock, routing its emissions through `routing`.
        pub fn tick(&mut self, _now: Instant, epoch: Instant, routing: &mut ShardRouting) {
            let clock = WallClock { epoch };
            let now = clock.now();
            self.fire(now, now, &clock, |q, f, to, e| routing.route(q, f, to, e));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::shard::WallClock;
    use std::time::Instant;
    use themis_query::prelude::Template;

    /// The modelled cost clock: a tick's busy time is exactly its kept
    /// tuples times the synthetic per-tuple cost (what the wall clock
    /// would charge were the work itself free), so runs repeat exactly.
    pub(crate) struct Modelled;

    impl CostClock for Modelled {
        fn time(
            &self,
            per_tuple: TimeDelta,
            work: &mut dyn FnMut() -> (u64, u64),
        ) -> (u64, TimeDelta) {
            let (kept, _) = work();
            (kept, TimeDelta::from_micros(per_tuple.as_micros() * kept))
        }
    }

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

    fn state(interval_ms: u64) -> NodeState {
        let mut ids = IdGen::new();
        let query = Template::Avg.build(QueryId(0), &mut ids);
        let mut s = NodeState::build(config(interval_ms), 0);
        s.attach_fragment(&query, 0, None);
        s
    }

    #[test]
    fn deadline_advances_one_period_when_on_time() {
        let base = Timestamp::from_secs(60);
        let mut s = state(50);
        assert_eq!(s.reschedule(base, base), base + TimeDelta::from_millis(50));
        assert_eq!(s.report().late_ticks, 0);
    }

    #[test]
    fn overrun_skips_missed_periods_to_future_deadline() {
        let base = Timestamp::from_secs(60);
        let mut s = state(50);
        // The tick fires 5.7 intervals after its deadline (an overrunning
        // predecessor or a message flood held it up).
        let now = base + TimeDelta::from_micros(5_700 * 50);
        let next = s.reschedule(base, now);
        // Seed behaviour was `next_tick += interval`, leaving 5 deadlines
        // in the past — a storm of zero-timeout ticks. Fixed: the next
        // deadline is the first schedule point strictly after `now`.
        assert!(next > now, "deadline left in the past");
        assert_eq!(next, base + TimeDelta::from_millis(6 * 50));
        assert_eq!(s.report().late_ticks, 1);
    }

    #[test]
    fn exact_multiple_overrun_still_lands_in_future() {
        let base = Timestamp::from_secs(60);
        let mut s = state(50);
        let now = base + TimeDelta::from_millis(3 * 50);
        assert_eq!(
            s.reschedule(base, now),
            base + TimeDelta::from_millis(4 * 50)
        );
        assert_eq!(s.report().late_ticks, 1);
    }

    #[test]
    fn lateness_under_one_period_is_not_late() {
        let base = Timestamp::from_secs(60);
        let mut s = state(50);
        let now = base + TimeDelta::from_millis(20);
        assert_eq!(s.reschedule(base, now), base + TimeDelta::from_millis(50));
        assert_eq!(s.report().late_ticks, 0);
    }

    /// On the modelled cost clock an overloaded node without a fixed
    /// capacity learns exactly the synthetic per-tuple cost: its first
    /// tick keeps all 250 tuples under the initial 1 000, then the
    /// threshold settles at interval ÷ cost = 250 ms ÷ 2.5 ms = 100, as
    /// the simulator's node does (`simulated_cost_keeps_the_threshold`).
    /// The same input gives the same run twice: same thresholds, same
    /// counters (but for the shedder's own wall time, the measured §7.6
    /// overhead).
    #[test]
    fn modelled_cost_sets_the_threshold_and_repeats() {
        let run = || {
            let mut cfg = config(250);
            cfg.synthetic_cost = TimeDelta::from_micros(2_500);
            cfg.initial_capacity = 1_000;
            let mut ids = IdGen::new();
            let query = Template::Avg.build(QueryId(0), &mut ids);
            let mut s = NodeState::build(cfg, 0);
            s.attach_fragment(&query, 0, None);
            let mut thresholds = Vec::new();
            let mut deadline = Timestamp::from_millis(250);
            for _ in 0..8 {
                for k in 0..5 {
                    let at = deadline + TimeDelta::from_millis(k);
                    s.enqueue(avg_batch(&query, at, 50), at);
                }
                deadline = s.fire(deadline, deadline, &Modelled, |_, _, _, _| {});
                thresholds.push(s.core.threshold());
            }
            let mut report = s.report().clone();
            report.shed_time_ns = 0;
            (thresholds, format!("{report:?}"), report.kept_tuples)
        };
        let first = run();
        assert_eq!(first.0, [100; 8]);
        assert_eq!(first.2, 250 + 7 * 100);
        assert_eq!(first, run());
    }

    /// A source batch of `tuples` tuples for `query`'s only fragment,
    /// created at `at`.
    fn avg_batch(query: &QuerySpec, at: Timestamp, tuples: usize) -> RoutedBatch {
        let src = query.sources[0].id;
        let tuples = (0..tuples)
            .map(|j| Tuple::measurement(at, Sic(0.001), j as f64))
            .collect();
        RoutedBatch {
            query: query.id,
            fragment: 0,
            ingress: Ingress::Source(src),
            batch: Batch::from_source(query.id, src, at, tuples),
        }
    }

    #[test]
    fn enqueue_counts_arrivals() {
        let mut s = state(50);
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
        let mut s = NodeState::build(config(50), 0);
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

    /// Through the benchmark replay's wall-clock adapters.
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
        let mut s = state(50);
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
        let mut s = NodeState::build(config(50), 0);
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

    /// The wall cost clock spins the synthetic cost of each kept tuple
    /// and charges it as busy time.
    #[test]
    fn spin_roughly_waits() {
        let t0 = Instant::now();
        let per_tuple = TimeDelta::from_micros(100);
        let (kept, busy) = WallClock::start().time(per_tuple, &mut || (2, 0));
        let us = t0.elapsed().as_micros();
        assert_eq!(kept, 2);
        assert!(
            us >= 200 && busy.as_micros() >= 200,
            "spun {us}us, charged {busy}"
        );
    }
}
