//! Engine scale: 1000+-node scenarios on a bounded shard pool.
//!
//! The seed engine burned one OS thread per FSPS node, capping experiments
//! at a few dozen nodes; the sharded engine multiplexes every node onto a
//! fixed pool, so the whole process runs on `shards + 2` threads (pool +
//! the calling thread, which runs the engine's control loop, + a sampler
//! here). This experiment runs an N-node federation wall-clock, samples
//! the process's peak thread count from `/proc/self/status`, and reports
//! it next to the shed/tick counters — CI runs it at `--nodes=1024` as a
//! smoke against the bounded-thread property regressing ([`claims`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_query::prelude::Template;
use themis_workloads::prelude::*;

use crate::table::{f, Claim, TextTable};

/// Outcome of one scale run.
#[derive(Debug, Clone, Default)]
pub struct ScaleRow {
    /// Nodes in the scenario.
    pub nodes: usize,
    /// Shard threads used.
    pub shards: usize,
    /// Peak OS threads observed in the process (`None` off Linux);
    /// includes the sampler thread itself.
    pub peak_threads: Option<usize>,
    /// The bound the sharded engine must hold: pool + control loop (the
    /// calling thread) + sampler.
    pub thread_budget: usize,
    /// Wall time of the run in seconds.
    pub wall_secs: f64,
    /// Tuples arriving across all nodes.
    pub arrived: u64,
    /// Fraction of arrived tuples shed.
    pub shed: f64,
    /// Detector ticks fired across all nodes.
    pub ticks: u64,
    /// Ticks that slipped at least one full interval.
    pub late_ticks: u64,
    /// Result emissions across all queries.
    pub results: usize,
}

/// The thread-budget gate: the peak thread count stays within
/// `shards + 2`. Where `/proc` is unavailable nothing was sampled, so
/// there is no claim to fail.
pub fn claims(row: &ScaleRow) -> Vec<Claim> {
    row.peak_threads
        .map(|p| Claim::at_most("peak_threads", p as f64, row.thread_budget as f64))
        .into_iter()
        .collect()
}

/// Reads the current thread count of this process from `/proc/self/status`
/// (Linux only).
pub fn current_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Runs an `n_nodes`-node federation for `secs` wall seconds on a pool of
/// `shards` threads (`None`: available parallelism), sampling the peak
/// process thread count throughout.
pub fn scale(n_nodes: usize, shards: Option<usize>, secs: u64, seed: u64) -> ScaleRow {
    let scenario = ScenarioBuilder::new("scale", seed)
        .nodes(n_nodes)
        .capacity_tps(1_000_000)
        .duration(TimeDelta::from_millis(secs.max(1) * 1000))
        .warmup(TimeDelta::from_millis(500))
        .stw_window(TimeDelta::from_secs(1))
        .add_queries(
            Template::Avg,
            n_nodes,
            SourceProfile::steady(10, 2, Dataset::Uniform),
        )
        .build()
        .expect("placement");

    let stop = Arc::new(AtomicBool::new(false));
    let sampler_stop = stop.clone();
    let sampler = std::thread::spawn(move || {
        let mut peak = current_threads();
        while !sampler_stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
            if let (Some(p), Some(c)) = (peak, current_threads()) {
                peak = Some(p.max(c));
            }
        }
        peak
    });

    let t0 = Instant::now();
    let report = run_engine(
        &scenario,
        EngineConfig {
            shards,
            ..Default::default()
        },
    );
    let wall_secs = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let peak_threads = sampler.join().expect("sampler panicked");

    ScaleRow {
        nodes: n_nodes,
        shards: report.shards,
        peak_threads,
        // Shard pool + control loop (calling thread) + the sampler itself.
        thread_budget: report.shards + 2,
        wall_secs,
        arrived: report.nodes.iter().map(|n| n.arrived_tuples).sum(),
        shed: report.shed_fraction(),
        ticks: report.nodes.iter().map(|n| n.ticks).sum(),
        late_ticks: report.nodes.iter().map(|n| n.late_ticks).sum(),
        results: report.result_counts.values().sum(),
    }
}

/// Renders the scale row.
pub fn render(row: &ScaleRow) -> TextTable {
    let mut t = TextTable::new(
        "Engine scale: nodes on a bounded shard pool",
        &[
            "nodes",
            "shards",
            "peak-threads",
            "thread-budget",
            "wall-s",
            "arrived",
            "shed",
            "ticks",
            "late-ticks",
            "results",
        ],
    );
    t.row(vec![
        row.nodes.to_string(),
        row.shards.to_string(),
        row.peak_threads
            .map(|p| p.to_string())
            .unwrap_or_else(|| "n/a".into()),
        row.thread_budget.to_string(),
        f(row.wall_secs),
        row.arrived.to_string(),
        f(row.shed),
        row.ticks.to_string(),
        row.late_ticks.to_string(),
        row.results.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(peak_threads: Option<usize>) -> bool {
        let row = ScaleRow {
            peak_threads,
            thread_budget: 5,
            ..Default::default()
        };
        claims(&row).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        assert!(passes(Some(5)));
        assert!(!passes(Some(6)));
        // No `/proc` sample (off Linux): nothing measured, nothing failed.
        assert!(passes(None));
    }
}
