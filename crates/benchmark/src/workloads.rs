//! The four fixed workloads of `BENCHMARK.json`. Each builds its scenario
//! from the seed alone; the engine (or simulator) receives only that
//! scenario. Sizes fit a 2-core box with `shards: Some(1)`: pump, shard
//! and coordinator threads plus, on `federated-durable`, one generator
//! process.

use std::time::Duration;

use themis_core::prelude::*;
use themis_engine::prelude::EngineConfig;
use themis_query::prelude::{PlacementPolicy, Template};
use themis_workloads::prelude::*;
use themis_workloads::remote::{build_federated_scenario, FederatedParams};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "many-sources",
    "overload-mixed",
    "federated-durable",
    "sim-paper",
];

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 30 000 single-tuple-batch sources, nothing shed: per-batch and
    /// per-query overhead.
    ManySources,
    /// The paper's mixed Table-1 deployment at 3x enforced overload:
    /// per-tuple work in shedder, windows, kernels, routing.
    OverloadMixed,
    /// One forked generator over TCP into a WAL-backed engine at 1.5x
    /// overload: net codec/transport/listener and the durability layer.
    FederatedDurable,
    /// The simulator over the mixed deployment on 64 nodes: the shared
    /// layers under the other node implementation, single-threaded.
    SimPaper,
}

/// Sources hosted per node on `many-sources`.
const SOURCES_PER_NODE: usize = 64;

/// `(template, count)` of the mixed Table-1 deployment.
const MIX: [(Template, usize); 6] = [
    (Template::Avg, 800),
    (Template::Max, 800),
    (Template::Count, 800),
    (Template::Cov { fragments: 2 }, 200),
    (Template::Top5 { fragments: 2 }, 80),
    (Template::AvgAll { fragments: 3 }, 80),
];

/// Engine checkpoint cadence on `federated-durable`.
pub const CHECKPOINT_EVERY: Duration = Duration::from_millis(500);

/// SIC drift past which a `federated-durable` shard checkpoints early.
pub const SIC_DIVERGENCE_BOUND: f64 = 0.5;

impl Workload {
    /// Every workload, in [`NAMES`] order.
    pub const ALL: [Workload; 4] = [
        Workload::ManySources,
        Workload::OverloadMixed,
        Workload::FederatedDurable,
        Workload::SimPaper,
    ];

    /// Resolves a workload by its `BENCHMARK.json` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }

    /// Declared demand over enforced capacity; `None` where capacity is
    /// not enforced and nothing should be shed.
    pub fn overload(self) -> Option<f64> {
        match self {
            Workload::ManySources => None,
            Workload::OverloadMixed | Workload::SimPaper => Some(3.0),
            Workload::FederatedDurable => Some(1.5),
        }
    }

    /// Placement policy the scenario was built with.
    pub fn placement(self) -> PlacementPolicy {
        match self {
            Workload::OverloadMixed | Workload::SimPaper => PlacementPolicy::UniformRandom,
            Workload::ManySources | Workload::FederatedDurable => PlacementPolicy::RoundRobin,
        }
    }

    /// Whether the scenario's sources run in a forked generator process.
    pub fn federated(self) -> bool {
        self == Workload::FederatedDurable
    }

    /// Parameters of the canonical federated scenario, shared verbatim
    /// with the generator child so both sides rebuild the same scenario.
    pub fn federated_params(self, seed: u64, quick: bool, run: Duration) -> FederatedParams {
        let nodes = 4;
        let queries = if quick { 64 } else { 640 };
        let rate_tps = 1_000;
        let per_node = (queries / nodes) as f64 * rate_tps as f64;
        FederatedParams {
            seed,
            nodes,
            queries,
            rate_tps,
            batches_per_sec: 10,
            capacity_tps: (per_node / 1.5) as u32,
            stw_ms: 1_500,
            warmup_ms: warmup_of(run).as_millis() as u64,
            duration_ms: (run - warmup_of(run)).as_millis() as u64,
        }
    }

    /// Builds the scenario for a run of `run` wall (or, for the
    /// simulator, simulated) time. `quick` divides the source count by
    /// ten.
    pub fn scenario(self, seed: u64, quick: bool, run: Duration) -> Scenario {
        let div = if quick { 10 } else { 1 };
        let delta = |d: Duration| TimeDelta::from_micros(d.as_micros() as u64);
        let warmup = delta(warmup_of(run));
        let duration = delta(run - warmup_of(run));
        match self {
            Workload::ManySources => {
                let sources: usize = 30_000 / div;
                ScenarioBuilder::new(self.name(), seed)
                    .nodes(sources.div_ceil(SOURCES_PER_NODE))
                    .capacity_tps(1_000_000)
                    .stw_window(TimeDelta::from_secs(2))
                    .warmup(warmup)
                    .duration(duration)
                    .add_queries(
                        Template::Avg,
                        sources,
                        SourceProfile::steady(1, 1, Dataset::Uniform),
                    )
                    .build()
                    .expect("single-fragment placement")
            }
            Workload::OverloadMixed => {
                let b = ScenarioBuilder::new(self.name(), seed)
                    .nodes(8)
                    .stw_window(TimeDelta::from_secs(2))
                    .warmup(warmup)
                    .duration(duration);
                mixed(b, div, 3.0)
            }
            Workload::SimPaper => {
                // The paper's 10 s STW and a warm-up that fills it:
                // simulated time is cheap.
                let stw = Duration::from_secs(if quick { 2 } else { 10 });
                let b = ScenarioBuilder::new(self.name(), seed)
                    .nodes(64)
                    .stw_window(delta(stw))
                    .warmup(delta(stw))
                    .duration(delta(run.saturating_sub(stw)));
                mixed(b, div, 3.0)
            }
            Workload::FederatedDurable => {
                build_federated_scenario(&self.federated_params(seed, quick, run))
            }
        }
    }

    /// Engine configuration of the engine-backed workloads.
    pub fn engine_config(self, durability_dir: Option<std::path::PathBuf>) -> EngineConfig {
        let base = EngineConfig {
            shards: Some(1),
            enforce_capacity: self.overload().is_some(),
            ..Default::default()
        };
        if self.federated() {
            EngineConfig {
                ingest_listen: Some("127.0.0.1:0".to_string()),
                remote_sources: true,
                checkpoint_every: Some(CHECKPOINT_EVERY),
                durability_dir,
                sic_divergence_bound: SIC_DIVERGENCE_BOUND,
                ..base
            }
        } else {
            base
        }
    }
}

/// Warm-up excluded from SIC sampling: two STWs where the run allows,
/// never more than a quarter of it.
pub fn warmup_of(run: Duration) -> Duration {
    (run / 4).min(Duration::from_secs(4))
}

/// Adds the mixed Table-1 deployment (Emulab source profile, random
/// placement) and pins every node's capacity to its own demand over
/// `overload`, so each node is overloaded by the same factor.
fn mixed(mut b: ScenarioBuilder, div: usize, overload: f64) -> Scenario {
    b = b.placement(Workload::OverloadMixed.placement());
    for (template, count) in MIX {
        b = b.add_queries(
            template,
            count / div,
            SourceProfile::emulab(Dataset::Uniform),
        );
    }
    let mut scenario = b.build().expect("mixed deployment fits its nodes");
    scenario.node_capacity_tps = scenario
        .demand_per_node_tps()
        .iter()
        .map(|d| ((d / overload) as u32).max(1))
        .collect();
    scenario
}
