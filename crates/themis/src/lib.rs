//! # themis
//!
//! Facade crate for the THEMIS reproduction — *THEMIS: Fairness in
//! Federated Stream Processing under Overload* (Kalyvianaki, Fiscato,
//! Salonidis & Pietzuch, SIGMOD 2016).
//!
//! Re-exports the component crates:
//!
//! * [`core`] — SIC metric, BALANCE-SIC shedder (Algorithm 1), fairness
//!   metrics, cost model, coordinator;
//! * [`operators`] — SIC-propagating windowed operators;
//! * [`query`] — query graphs, fragments, Table-1 templates, placement;
//! * [`workloads`] — datasets, source models, scenario builder;
//! * [`sim`] — deterministic discrete-event FSPS simulator;
//! * [`engine`] — multi-threaded prototype engine (sharded worker pool);
//! * [`baselines`] — §7.5 related-work baselines (FIT LP, log utility).
//!
//! ```
//! use themis::prelude::*;
//!
//! // Build an overloaded two-node federation and run it.
//! let scenario = ScenarioBuilder::new("readme", 7)
//!     .nodes(2)
//!     .capacity_tps(150)
//!     .duration(TimeDelta::from_secs(10))
//!     .warmup(TimeDelta::from_secs(6))
//!     .stw_window(TimeDelta::from_secs(4))
//!     .add_queries(
//!         Template::Cov { fragments: 2 },
//!         6,
//!         SourceProfile::steady(40, 4, Dataset::Uniform),
//!     )
//!     .build()
//!     .unwrap();
//! let report = run_scenario(scenario, SimConfig::default());
//! assert!(report.jain() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use themis_baselines as baselines;
pub use themis_core as core;
pub use themis_engine as engine;
pub use themis_operators as operators;
pub use themis_query as query;
pub use themis_sim as sim;
pub use themis_workloads as workloads;

/// Everything most applications need.
pub mod prelude {
    pub use themis_baselines::prelude::*;
    pub use themis_core::prelude::*;
    pub use themis_engine::prelude::{
        default_shards, run_engine, Engine, EngineConfig, EngineMsg, EngineReport, ResultEvent,
        ShardMsg,
    };
    pub use themis_operators::prelude::*;
    pub use themis_query::prelude::*;
    pub use themis_sim::prelude::*;
    pub use themis_workloads::prelude::*;
}
