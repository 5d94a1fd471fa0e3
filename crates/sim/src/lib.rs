//! # themis-sim
//!
//! A deterministic discrete-event simulator of a federated stream
//! processing system — this repo's substitute for the paper's Emulab
//! test-bed (Table 2). The shedding decisions under study depend on
//! arrival order and load, not on real hardware, so a seeded event clock
//! reproduces them while making every run bit-for-bit repeatable.
//!
//! The simulation wires a [`themis_workloads::scenario::Scenario`] into:
//!
//! * [`node::SimNode`]s — the Figure-5 node shared with the prototype
//!   engine ([`themis_query::node::Node`]: input buffer, overload
//!   detector, online cost model, the configured tuple shedder) on a
//!   simulated per-tuple cost;
//! * the shared source pump ([`themis_workloads::pump::SourcePump`]),
//!   each query's sources live from its arrival to its departure;
//! * links with configurable one-way latency (LAN 5 ms / WAN 50 ms);
//! * the shared coordinator ([`themis_core::coordinator::Coordinator`])
//!   disseminating result SIC values (`updateSIC`), with an ablation
//!   switch to disable it, and sampling every query's `qSIC` for the
//!   report on its own schedule (once per simulated second, off the
//!   round grid).
//!
//! ```
//! use themis_core::prelude::*;
//! use themis_query::prelude::*;
//! use themis_workloads::prelude::*;
//! use themis_sim::prelude::*;
//!
//! let scenario = ScenarioBuilder::new("doc", 1)
//!     .nodes(2)
//!     .capacity_tps(200)
//!     .duration(TimeDelta::from_secs(10))
//!     .warmup(TimeDelta::from_secs(5))
//!     .add_queries(
//!         Template::Cov { fragments: 2 },
//!         4,
//!         SourceProfile::steady(40, 4, Dataset::Uniform),
//!     )
//!     .build()
//!     .unwrap();
//! let report = run_scenario(scenario, SimConfig::default());
//! assert_eq!(report.per_query.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod node;
pub mod report;
pub mod sim;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::config::SimConfig;
    pub use crate::node::{NodeOutput, SimNode};
    pub use crate::report::{NodeStats, QueryStats, SimReport};
    pub use crate::sim::{run_scenario, Simulation};
    pub use themis_core::shedder::{lookup_policy, Policy};
    pub use themis_query::node::RoutedBatch;
}
