//! Messages and reports exchanged inside the prototype engine.

use std::sync::Arc;

use themis_core::prelude::*;
use themis_query::prelude::{QuerySpec, RoutedBatch};

use crate::node_state::NodeConfig;

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
    /// Work for many nodes of one shard in one message: a source-pump
    /// beat's batches or a coordinator round's SIC updates. The envelope's
    /// `node` is ignored; every entry names its own.
    Bundle(Bundle),
    /// Install a query fragment on the addressed node (runtime query
    /// arrival; installs the node itself if absent).
    Attach(AttachFragment),
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

/// The payload of [`EngineMsg::Bundle`]: what would otherwise be one
/// message per batch or update, so a shard wakes once per source-pump
/// beat and once per coordinator round instead of once per item.
#[derive(Default)]
pub struct Bundle {
    /// Data batches, each with its destination global node.
    pub batches: Vec<(usize, RoutedBatch)>,
    /// Coordinator SIC updates; each names its destination node.
    pub sic: Vec<SicUpdate>,
}

impl Bundle {
    /// True when the bundle carries nothing.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty() && self.sic.is_empty()
    }
}

/// Envelope delivered to a shard thread: the destination node plus the
/// payload. Every sender addressing node `n` holds a clone of the owning
/// shard's channel, so one shard multiplexes messages for all of its nodes.
pub struct ShardMsg {
    /// Global node index the payload is for (ignored for
    /// [`EngineMsg::Bundle`], whose entries carry their own, and for
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
