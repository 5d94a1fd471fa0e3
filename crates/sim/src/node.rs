//! The simulated THEMIS node: the shared Figure-5 [`Node`] on a simulated
//! clock. What this adapter adds is only the simulated hardware — every
//! admitted tuple costs a fixed `1 / capacity` of processing time, which is
//! what the cost model observes — and the choice of the `updateSIC`-off
//! local-SIC fallback from [`SimConfig::coordinator`].

use std::ops::Deref;

use themis_core::prelude::*;
use themis_query::prelude::*;

use crate::config::SimConfig;

/// An output produced while processing a node tick.
#[derive(Debug)]
pub enum NodeOutput {
    /// The root of `fragment` emitted tuples that leave the fragment.
    FragmentOutput {
        /// Producing query.
        query: QueryId,
        /// Producing fragment.
        fragment: usize,
        /// Emission timestamp.
        at: Timestamp,
        /// The columnar output batch.
        batch: TupleBatch,
    },
}

/// One simulated FSPS node. Reads — counters (`stats`), buffer depth,
/// threshold — go straight to the shared [`Node`] through `Deref`.
pub struct SimNode {
    id: NodeId,
    /// True per-tuple processing cost (the simulated hardware).
    per_tuple_cost: TimeDelta,
    node: Node,
}

impl SimNode {
    /// Creates a node.
    ///
    /// `capacity_tps` is the true processing rate of the simulated
    /// hardware; the cost model starts from the matching threshold and
    /// keeps estimating it online from observed work.
    pub fn new(
        id: NodeId,
        capacity_tps: u32,
        interval: TimeDelta,
        stw: StwConfig,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        let per_tuple_cost =
            TimeDelta::from_micros((1_000_000 / capacity_tps.max(1) as u64).max(1));
        let initial_capacity =
            (interval.as_micros() / per_tuple_cost.as_micros().max(1)).max(1) as usize;
        let detector = OverloadDetector::new(interval, initial_capacity);
        let mut node = Node::new(config.policy.build(seed), stw, detector);
        node.use_local_sic(!config.coordinator);
        SimNode {
            id,
            per_tuple_cost,
            node,
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Recycles the node's spent and shed batches into `pool` (see
    /// [`Node::set_pool`]).
    pub fn set_pool(&mut self, pool: BatchPool) {
        self.node.set_pool(pool);
    }

    /// Deploys a fragment on this node.
    pub fn deploy(&mut self, query: &QuerySpec, fragment: usize) {
        self.node.attach(query, fragment, None);
    }

    /// Handles a batch arrival (see [`Node::enqueue`]).
    pub fn on_arrival(&mut self, now: Timestamp, rb: RoutedBatch) {
        self.node.enqueue(rb, now);
    }

    /// Receives a coordinator SIC update.
    pub fn on_sic_update(&mut self, update: &SicUpdate) {
        self.node.apply_sic(update);
    }

    /// Runs one shedding interval (see [`Node::tick`]) and charges the
    /// simulated hardware for the admitted tuples. Returns the fragment
    /// outputs to route.
    pub fn tick(&mut self, now: Timestamp) -> Vec<NodeOutput> {
        let mut outputs = Vec::new();
        // The simulation routes outputs by `(query, fragment)`, so the
        // fragment's downstream slot goes unused.
        let kept = self.node.tick(now, |query, fragment, _, emissions| {
            outputs.extend(emissions.into_iter().map(|e| NodeOutput::FragmentOutput {
                query,
                fragment,
                at: e.at,
                batch: e.into_batch(),
            }));
        });
        let busy = TimeDelta::from_micros(kept * self.per_tuple_cost.as_micros());
        self.node.cost_model_mut().observe(busy, kept);
        outputs
    }
}

impl Deref for SimNode {
    type Target = Node;

    fn deref(&self) -> &Node {
        &self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(capacity_tps: u32, config: &SimConfig) -> SimNode {
        SimNode::new(
            NodeId(0),
            capacity_tps,
            TimeDelta::from_millis(250),
            StwConfig::new(TimeDelta::from_secs(2), TimeDelta::from_millis(250)),
            config,
            42,
        )
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

    #[test]
    fn threshold_matches_capacity() {
        // 4000 t/s over 250 ms = 1000 tuples.
        assert_eq!(node(4000, &SimConfig::default()).threshold(), 1000);
    }

    #[test]
    fn simulated_cost_keeps_the_threshold() {
        // c = 100; every admitted tuple costs exactly 1/400 s, so the cost
        // model re-estimates the same threshold after a full interval.
        let q = Template::Avg.build(QueryId(0), &mut IdGen::new());
        let mut n = node(400, &SimConfig::default());
        n.deploy(&q, 0);
        for k in 0..5 {
            n.on_arrival(Timestamp::from_millis(10 + k), source_batch(&q, 10, 50));
        }
        n.tick(Timestamp::from_millis(250));
        assert_eq!(n.stats.kept_tuples, 100);
        assert_eq!(n.stats.shed_tuples, 150);
        assert_eq!(n.threshold(), 100);
    }

    #[test]
    fn outputs_carry_fragment_emissions() {
        let q = Template::Avg.build(QueryId(0), &mut IdGen::new());
        let mut n = node(40_000, &SimConfig::default());
        n.deploy(&q, 0);
        n.on_arrival(Timestamp::from_millis(10), source_batch(&q, 10, 100));
        let mut outputs = Vec::new();
        for t in [250u64, 500, 750, 1000, 1250, 1500, 1750] {
            outputs.extend(n.tick(Timestamp::from_millis(t)));
        }
        assert_eq!(outputs.len(), 1, "one AVG result window");
        let NodeOutput::FragmentOutput {
            query,
            fragment,
            batch,
            ..
        } = &outputs[0];
        assert_eq!((*query, *fragment), (q.id, 0));
        assert_eq!(batch.row(0).f64(0), 50.0);
    }

    #[test]
    fn coordinator_off_ignores_updates() {
        let config = SimConfig {
            coordinator: false,
            ..Default::default()
        };
        let q = Template::Avg.build(QueryId(0), &mut IdGen::new());
        let mut n = node(400, &config);
        n.deploy(&q, 0);
        n.on_sic_update(&SicUpdate {
            query: q.id,
            node: NodeId(0),
            sic: Sic(0.9),
        });
        assert_eq!(n.stats.sic_updates, 1);
        assert_eq!(n.checkpoint(0).sic, vec![], "update not applied");
    }
}
