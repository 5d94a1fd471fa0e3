//! # themis-workloads
//!
//! Workload generation for the THEMIS evaluation (§7): the five dataset
//! distributions of Figures 6/7 ([`datasets`]), Table-2 source models
//! under programmable rate patterns — steady, paper-bursty, flash-crowd
//! replays, arrival-trace replay ([`traces`]), correlated shared loads
//! and a tick-gaming adversarial source ([`sources`], [`testbed`]) — the
//! scenario builder that assembles queries, placement and capacities
//! into a simulator-ready [`scenario::Scenario`], and the one source
//! pacer ([`pump`]) that the engine's shards and the remote generator
//! ([`remote`]) both drive.
//!
//! ```
//! use themis_core::prelude::*;
//! use themis_query::prelude::*;
//! use themis_workloads::prelude::*;
//!
//! let scenario = ScenarioBuilder::new("quick", 42)
//!     .nodes(2)
//!     .capacity_tps(1000)
//!     .add_queries(
//!         Template::Cov { fragments: 2 },
//!         8,
//!         SourceProfile::emulab(Dataset::Uniform),
//!     )
//!     .build()
//!     .unwrap();
//! assert!(scenario.overload_factor() > 1.0); // permanently overloaded
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod pump;
pub mod remote;
pub mod scenario;
pub mod sources;
pub mod testbed;
pub mod traces;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::datasets::{Dataset, ValueGen};
    pub use crate::remote::{run_remote_sources, RemotePumpStats};
    pub use crate::scenario::{Scenario, ScenarioBuilder};
    pub use crate::sources::{RatePattern, SharedLoad, SourceDriver, SourceProfile};
    pub use crate::testbed::{Testbed, EMULAB, LOCAL, WAN};
    pub use crate::traces::{load_trace, TraceData, TraceError, TraceId};
}
