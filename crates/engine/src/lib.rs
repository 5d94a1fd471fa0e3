//! # themis-engine
//!
//! The multi-threaded THEMIS prototype (Figure 5 of the paper), sharded:
//! a bounded pool of shard threads ([`shard`]) hosts every FSPS node's
//! state ([`node_state`]) — input buffer, wall-clock overload detector,
//! online cost model, tuple shedder, fragment runtimes — alongside one
//! control loop that paces the sources and disseminates result SIC
//! values.
//!
//! Each shard is a clock-free state machine ([`shard::Shard`]: nodes,
//! their shedding deadlines, the rest of a bundle, durability bookkeeping)
//! that reads time only from the `now` its driver passes in;
//! [`shard::run_shard`] drives one per OS thread on the wall clock, so
//! 1000+-node scenarios run in a single process with `shards + 1` threads
//! (pool + the control loop on the calling thread). Ticks fire whenever
//! their deadline has passed — a message flood cannot starve the
//! overload detector — and an overrunning tick skips its missed periods
//! instead of storming.
//!
//! Queries **churn at runtime**: [`engine::Engine::attach_query`] installs
//! a fresh query's fragments on the least-loaded running nodes (shards
//! install node states on demand) and
//! [`engine::Engine::detach_query`] removes them again, tearing down
//! nodes left hosting nothing so their shedding deadlines never fire
//! again — the engine analogue of the simulator's query
//! arrival/departure dynamics.
//!
//! The engine complements the deterministic simulator: it demonstrates the
//! system on real threads and channels and provides the measured shedder
//! execution times reported in the §7.6 overhead experiment.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod messages;
pub mod node_state;
pub mod shard;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::engine::{
        default_shards, run_engine, Engine, EngineConfig, EngineError, EngineReport,
    };
    pub use crate::messages::{AttachFragment, Bundle, EngineMsg, ResultEvent, ShardMsg};
    pub use crate::node_state::{EmissionSink, NodeConfig, NodeState, ShardRouting};
    pub use crate::shard::{run_shard, shard_of, Outgoing, Shard, ShardDurability};
    pub use themis_core::shedder::{lookup_policy, Policy};
    pub use themis_query::node::{NodeReport, RoutedBatch};
}
