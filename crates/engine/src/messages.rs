//! Messages and reports exchanged inside the prototype engine.

use std::sync::Arc;

use themis_core::prelude::*;
use themis_query::prelude::{QuerySpec, RoutedBatch};
use themis_workloads::prelude::SourceProfile;

/// Installs one fragment of a query on the node its [`ShardMsg`] names —
/// the unit of runtime query churn. An attach carries only the fragment:
/// when the node is not installed on its shard (first attach, re-attach
/// after a teardown or a crash), the shard builds it from the node recipe
/// it was spawned with; otherwise the attach only adds the fragment.
pub struct AttachFragment {
    /// The owning query (shared, immutable across shards).
    pub query: Arc<QuerySpec>,
    /// Fragment index within the query.
    pub fragment: usize,
    /// Where this fragment's emissions go: a downstream `(node, fragment)`
    /// of the same query, or `None` for the query-result sink.
    pub downstream: Option<(usize, usize)>,
    /// How the sources feeding this fragment emit, for the shard's own
    /// pump to drive them. `None` when no source feeds it, when remote
    /// source processes drive them, and on a shard restart's re-attach
    /// (the pump kept driving them through the crash).
    pub sources: Option<FragmentSources>,
}

/// What a shard needs to drive one fragment's sources itself. It derives
/// their bindings from the attached query
/// ([`themis_workloads::pump::fragment_bindings`]), so an attach carries
/// no list that one thread allocates and another frees.
#[derive(Debug, Clone, Copy)]
pub struct FragmentSources {
    /// The profile every source of the fragment emits with.
    pub profile: SourceProfile,
    /// The scenario seed the drivers' seeds derive from
    /// ([`themis_workloads::pump::source_seed`]).
    pub seed: u64,
    /// The query's arrival on the engine's logical clock: the sources'
    /// schedules start here (plus each one's de-phasing offset), so a
    /// shard that takes the attach late emits on the same timeline.
    pub arrival: Timestamp,
}

/// Messages delivered to engine nodes.
pub enum EngineMsg {
    /// A data batch.
    Batch(RoutedBatch),
    /// One coordinator SIC update; only the benchmark replay sends it.
    Sic(SicUpdate),
    /// Work for many nodes of one shard in one message: a coordinator
    /// round's SIC updates, or the batches one shard service pass routed
    /// to this shard's nodes. The envelope's `node` is ignored; every
    /// entry names its own.
    Bundle(Bundle),
    /// Install a query fragment on the addressed node (runtime query
    /// arrival; builds the node from the shard's recipe if absent).
    Attach(AttachFragment),
    /// Remove every fragment of `query` from the addressed node (runtime
    /// query departure). A node left hosting nothing is torn down: its
    /// counters freeze and its shedding deadline is abandoned, so it
    /// never ticks again.
    Detach {
        /// The departing query.
        query: QueryId,
    },
    /// Simulate a crash of the receiving shard
    /// ([`crate::engine::Engine::kill_shard`]): every node's state is
    /// dropped on the floor (reports are preserved for final accounting)
    /// and durability writes stop — a dead process writes nothing — until
    /// [`EngineMsg::Recover`] arrives. The thread and its channel stay up,
    /// so in-flight traffic drains exactly like messages addressed to a
    /// torn-down node.
    Crash,
    /// Restore the shard from its durable log under `dir`
    /// ([`crate::engine::Engine::restart_shard`], or engine-wide
    /// [`crate::engine::Engine::restore_from`]). Arrives after the crashed
    /// nodes' fragments have been re-attached; overlays checkpointed SIC
    /// tables and window panes, then replays the WAL tail. Re-enables
    /// durability writes.
    Recover {
        /// Durability root directory (the shard reads `dir/shard-<i>/`).
        dir: std::path::PathBuf,
        /// The shard's own index under `dir`.
        shard: usize,
    },
    /// Opens the receiving shard's run window
    /// ([`crate::engine::Engine::run_for`]): its pump sweeps its sources
    /// until `until`, and not after. The window replaces any earlier one.
    Run {
        /// The end of the window, in logical time.
        until: Timestamp,
    },
    /// Stop the receiving shard (all of its nodes).
    Shutdown,
}

/// The payload of [`EngineMsg::Bundle`]: what would otherwise be one
/// message per batch or update, so a shard wakes at most once per
/// coordinator round and once per sending shard's service pass, instead
/// of once per item.
#[derive(Debug, Default)]
pub struct Bundle {
    /// Data batches, each with its destination global node.
    pub batches: Vec<(usize, RoutedBatch)>,
    /// Coordinator SIC updates; each names its destination node, a node
    /// whose shedder has run (the coordinator feeds no other).
    pub sic: Vec<SicUpdate>,
}

impl Bundle {
    /// True when the bundle carries nothing.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty() && self.sic.is_empty()
    }
}

/// Envelope delivered to a shard thread: the destination node plus the
/// payload. A message for node `n` goes on the channel of the shard that
/// owns it ([`crate::shard::shard_of`]), so one shard multiplexes messages
/// for all of its nodes.
pub struct ShardMsg {
    /// Global node index the payload is for (ignored for
    /// [`EngineMsg::Bundle`], whose entries carry their own, and for
    /// [`EngineMsg::Shutdown`], which stops the whole shard).
    pub node: usize,
    /// Payload.
    pub msg: EngineMsg,
}

/// A query-result emission observed by the engine's control loop.
#[derive(Debug, Clone)]
pub struct ResultEvent {
    /// The emitting query.
    pub query: QueryId,
    /// SIC mass of the emission.
    pub sic: Sic,
}

/// What one shard service pass reports to the engine's control loop, as
/// one message.
#[derive(Debug, Default)]
pub struct PassResults {
    /// Every result the pass emitted, in emission order.
    pub events: Vec<ResultEvent>,
    /// Nodes whose shedder ran for the first time in their incarnation
    /// during the pass: from then on the coordinator sends them SIC
    /// updates.
    pub first_shed: Vec<usize>,
}

impl PassResults {
    /// True when the pass has nothing to report.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.first_shed.is_empty()
    }
}
