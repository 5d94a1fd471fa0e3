//! Messages and reports exchanged inside the prototype engine.

use std::sync::Arc;

use themis_core::prelude::*;
use themis_query::prelude::{Ingress, QuerySpec};

use crate::node_state::NodeConfig;

/// A batch plus routing info (same shape as the simulator's).
#[derive(Debug, Clone)]
pub struct RoutedBatch {
    /// Owning query.
    pub query: QueryId,
    /// Destination fragment.
    pub fragment: usize,
    /// Entry point into the fragment.
    pub ingress: Ingress,
    /// Payload.
    pub batch: Batch,
}

/// Installs one fragment of a query on a node — the unit of runtime query
/// churn. The first attach addressed to a node *installs* the node's state
/// on its shard (using `config`); later attaches only add fragments.
pub struct AttachFragment {
    /// Global node index hosting the fragment.
    pub node: usize,
    /// Node configuration, consumed only when the node is not yet
    /// installed on its shard (the shedder instance inside is per-node).
    pub config: NodeConfig,
    /// The owning query (shared, immutable across shards).
    pub query: Arc<QuerySpec>,
    /// Fragment index within the query.
    pub fragment: usize,
    /// Where this fragment's emissions go: a downstream `(node, fragment)`
    /// of the same query, or `None` for the query-result sink.
    pub downstream: Option<(usize, usize)>,
}

/// Messages delivered to engine nodes.
pub enum EngineMsg {
    /// A data batch.
    Batch(RoutedBatch),
    /// A coordinator SIC update.
    Sic(SicUpdate),
    /// Install a query fragment on the addressed node (runtime query
    /// arrival; installs the node itself if absent).
    Attach(Box<AttachFragment>),
    /// Remove every fragment of `query` from the addressed node (runtime
    /// query departure). A node left hosting nothing is torn down: its
    /// counters freeze and its shedding deadline is abandoned, so it
    /// never ticks again.
    Detach {
        /// The departing query.
        query: QueryId,
    },
    /// Simulate a crash of the receiving shard: every node's state is
    /// dropped on the floor (reports are preserved for final accounting)
    /// and durability writes stop — a dead process writes nothing — until
    /// [`EngineMsg::Recover`] arrives. The thread and its channel stay up,
    /// so in-flight traffic drains exactly like messages addressed to a
    /// torn-down node.
    Crash,
    /// Restore the shard from its durable log under `dir` (fault-injection
    /// restart, or engine-wide [`crate::engine::Engine::restore_from`]). Arrives
    /// after the crashed nodes' fragments have been re-attached; overlays
    /// checkpointed SIC tables and window panes, then replays the WAL
    /// tail. Re-enables durability writes.
    Recover {
        /// Durability root directory (the shard reads `dir/shard-<i>/`).
        dir: std::path::PathBuf,
        /// The shard's own index under `dir`.
        shard: usize,
    },
    /// Stop the receiving shard (all of its nodes).
    Shutdown,
}

/// Envelope delivered to a shard thread: the destination node plus the
/// payload. Every sender addressing node `n` holds a clone of the owning
/// shard's channel, so one shard multiplexes messages for all of its nodes.
pub struct ShardMsg {
    /// Global node index the payload is for (ignored for
    /// [`EngineMsg::Shutdown`], which stops the whole shard).
    pub node: usize,
    /// Payload.
    pub msg: EngineMsg,
}

/// A query-result emission observed by the coordinator thread.
#[derive(Debug, Clone)]
pub struct ResultEvent {
    /// The emitting query.
    pub query: QueryId,
    /// Emission timestamp (logical).
    pub at: Timestamp,
    /// SIC mass of the emission.
    pub sic: Sic,
}

/// Counters accumulated by one node worker.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Tuples arrived (pre-shedding).
    pub arrived_tuples: u64,
    /// Tuples admitted.
    pub kept_tuples: u64,
    /// Tuples shed.
    pub shed_tuples: u64,
    /// Batches shed.
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
    /// (starved by message pressure or delayed by an overrunning
    /// predecessor); the skipped periods are dropped, not replayed.
    pub late_ticks: u64,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_shed_time() {
        let mut r = NodeReport::default();
        assert_eq!(r.mean_shed_time_us(), 0.0);
        r.shed_time_ns = 3_000_000;
        r.shed_decisions = 3;
        assert_eq!(r.mean_shed_time_us(), 1000.0);
    }
}
