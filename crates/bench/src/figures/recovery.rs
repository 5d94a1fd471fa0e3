//! Kill-mid-overload recovery: a shard dies under load, restarts, and
//! restores its state from checkpoint + WAL tail.
//!
//! The durability layer (themis-core's `wal` module plus the engine's
//! checkpoint/restore path) follows the AF-Stream observation that
//! approximate stream state only needs *divergence-bounded* fault
//! tolerance: deliberately-shed tuples never need recovery, so a
//! checkpoint of the SIC tables and open window panes plus a replayed
//! SIC-delta tail restores fairness state to within the configured
//! divergence bound.
//!
//! This experiment runs the same overloaded balance-sic scenario twice
//! with the same seed: a **control** arm that runs uninterrupted, and a
//! **faulted** arm that kills one shard mid-overload
//! ([`Engine::kill_shard`], 45% into the run) and restarts it
//! ([`Engine::restart_shard`], 55% in) with a restore from the durable
//! log. Both arms record per-query SIC series; the gate compares
//! the tail window (the last 20% of the run, well after recovery), in
//! [`claims`]:
//!
//! * mean absolute per-query SIC error between the arms must stay within
//!   [`SIC_ERROR_BOUND`];
//! * the Jain fairness difference must stay within [`JAIN_DIFF_BOUND`];
//! * the killed shard must have left a readable durable log (inspected
//!   post-run with `wal::restore_shard`);
//! * neither arm may report an [`EngineError`], and the faulted arm must
//!   actually have shed tuples (otherwise the crash hit an idle system).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use themis_core::fairness::mean;
use themis_core::prelude::*;
use themis_core::wal;
use themis_engine::prelude::*;
use themis_query::prelude::Template;
use themis_workloads::prelude::*;

use super::window_means;
use crate::table::{f, Claim, TextTable};

/// Allowed mean absolute per-query SIC error between the faulted arm and
/// the uninterrupted control, over the post-recovery window. Both arms
/// also use it as their per-query divergence bound, so no checkpoint lags
/// a query's live SIC by more than the gate allows.
pub const SIC_ERROR_BOUND: f64 = 0.25;

/// Allowed |Jain(faulted) - Jain(control)| over the post-recovery window.
pub const JAIN_DIFF_BOUND: f64 = 0.12;

/// One arm of the experiment (control or faulted).
#[derive(Debug, Clone, Default)]
pub struct RecoveryArm {
    /// Arm name (`control`, `faulted`).
    pub name: &'static str,
    /// Jain's index over the per-query window means.
    pub jain: f64,
    /// Mean per-query SIC over the window.
    pub mean_sic: f64,
    /// Fraction of arrived tuples shed over the whole run.
    pub shed_fraction: f64,
    /// Shard-thread failures the engine reported (must be 0; the injected
    /// crash is a controlled state drop, not a thread loss).
    pub engine_errors: usize,
    /// Durable checkpoints the arm's shards cut.
    pub checkpoints: u64,
    /// Of those, the ones the divergence bound cut before the cadence.
    pub early_checkpoints: u64,
}

/// Outcome of the recovery experiment.
#[derive(Debug, Default)]
pub struct RecoveryOutcome {
    /// Nodes in the engine.
    pub nodes: usize,
    /// Shard threads used.
    pub shards: usize,
    /// Queries attached (2 per node).
    pub queries: usize,
    /// The shard the faulted arm killed.
    pub killed_shard: usize,
    /// Kill time (seconds after warm-up ends).
    pub kill_s: f64,
    /// Restart/restore time (seconds after warm-up ends).
    pub restart_s: f64,
    /// Post-recovery measurement window (seconds after warm-up ends).
    pub measure_from_s: f64,
    /// End of the measurement window.
    pub measure_to_s: f64,
    /// The two arms, `control` first.
    pub arms: Vec<RecoveryArm>,
    /// Mean absolute per-query SIC difference between the arms over the
    /// measurement window.
    pub mean_abs_error: f64,
    /// Node snapshots readable from the killed shard's durable log after
    /// the run (latest checkpoint).
    pub checkpoint_snapshots: usize,
    /// SIC deltas readable from the killed shard's WAL tail after the run.
    pub wal_deltas: usize,
    /// Whether the tail ended in a torn (incomplete) record — tolerated,
    /// recorded for the artifact trail.
    pub torn_tail: bool,
}

impl RecoveryOutcome {
    /// The named arm (the run always produces both).
    pub fn arm(&self, name: &str) -> &RecoveryArm {
        self.arms
            .iter()
            .find(|a| a.name == name)
            .expect("arm present")
    }

    /// |Jain(faulted) - Jain(control)| over the measurement window.
    pub fn jain_diff(&self) -> f64 {
        (self.arm("faulted").jain - self.arm("control").jain).abs()
    }
}

/// The recovery gate: post-recovery SIC error and Jain difference within
/// bounds, a readable durable log, genuine overload, and no shard-thread
/// failures in either arm.
pub fn claims(out: &RecoveryOutcome) -> Vec<Claim> {
    let engine_errors: usize = out.arms.iter().map(|a| a.engine_errors).sum();
    vec![
        Claim::at_most("mean_abs_sic_error", out.mean_abs_error, SIC_ERROR_BOUND),
        Claim::at_most("jain_diff", out.jain_diff(), JAIN_DIFF_BOUND),
        Claim::above(
            "durable_records",
            (out.checkpoint_snapshots + out.wal_deltas) as f64,
            0.0,
        ),
        Claim::above(
            "faulted.shed_fraction",
            out.arm("faulted").shed_fraction,
            0.0,
        ),
        Claim::at_most("engine_errors", engine_errors as f64, 0.0),
    ]
}

/// One arm's run: the overloaded scenario under balance-sic with
/// durability into `dir`; with `kill`, that shard dies at 45% of the run
/// and restarts at 55%. Returns the per-query window means over the last
/// 20% of the run plus the arm summary.
fn run_arm(
    name: &'static str,
    scenario: &Scenario,
    dir: &std::path::Path,
    secs: u64,
    kill: Option<usize>,
) -> (RecoveryArm, HashMap<QueryId, f64>, f64, f64) {
    let total = Duration::from_secs(secs);
    let warmup = Duration::from_micros(scenario.warmup.as_micros());
    let cfg = EngineConfig {
        enforce_capacity: true,
        record_series: true,
        shards: Some(4),
        checkpoint_every: Some(Duration::from_millis(250)),
        durability_dir: Some(dir.to_path_buf()),
        sic_divergence_bound: SIC_ERROR_BOUND,
        ..Default::default()
    };
    let mut engine = Engine::start(scenario, cfg);
    engine.run_for(warmup);
    let t0 = engine.now();
    engine.run_for(total.mul_f64(0.45));
    if let Some(shard) = kill {
        engine.kill_shard(shard);
    }
    engine.run_for(total.mul_f64(0.1));
    if let Some(shard) = kill {
        engine.restart_shard(shard);
    }
    engine.run_for(total.mul_f64(0.25));
    let measure_from = engine.now();
    engine.run_for(total.mul_f64(0.2));
    let measure_to = engine.now();
    let report = engine.finish();
    let means = window_means(&report.sic_series, measure_from, measure_to);
    let window: Vec<f64> = means.values().copied().collect();
    let arm = RecoveryArm {
        name,
        jain: jain_index(&window),
        mean_sic: mean(&window),
        shed_fraction: report.shed_fraction(),
        engine_errors: report.errors.len(),
        checkpoints: report.checkpoints,
        early_checkpoints: report.early_checkpoints,
    };
    let from_s = (measure_from.as_secs_f64() - t0.as_secs_f64()).max(0.0);
    let to_s = (measure_to.as_secs_f64() - t0.as_secs_f64()).max(0.0);
    (arm, means, from_s, to_s)
}

/// Runs the recovery experiment: 16 AVG queries on 8 nodes (4 shards),
/// every node at 1.5x its declared capacity under balance-sic, durable
/// checkpoints every 250 ms. The faulted arm kills shard 0 at 45% of the
/// run and restores it at 55%; the control arm runs uninterrupted with
/// the same seed. `secs` sizes the post-warm-up run length.
pub fn recovery(secs: u64, seed: u64) -> RecoveryOutcome {
    let secs = secs.max(4);
    let nodes = 8usize;
    let queries = 16usize;
    let killed_shard = 0usize;
    let stw = TimeDelta::from_millis(1500);
    // 2 queries x 300 t/s per node against a declared 400 t/s capacity:
    // 1.5x overload. 20 batches/s keeps single batches (15 tuples) well
    // below the per-interval capacity, so batch-granular shedding still
    // admits load and results keep flowing.
    let scenario = ScenarioBuilder::new("recovery", seed)
        .nodes(nodes)
        .capacity_tps(400)
        .stw_window(stw)
        .warmup(TimeDelta::from_micros(stw.as_micros() + 500_000))
        .add_queries(
            Template::Avg,
            queries,
            SourceProfile::steady(300, 20, Dataset::Uniform),
        )
        .build()
        .expect("placement");

    let root = std::env::temp_dir().join(format!("themis-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let control_dir: PathBuf = root.join("control");
    let faulted_dir: PathBuf = root.join("faulted");

    let total = Duration::from_secs(secs);
    let (control, control_means, _, _) = run_arm("control", &scenario, &control_dir, secs, None);
    let (faulted, faulted_means, from_s, to_s) =
        run_arm("faulted", &scenario, &faulted_dir, secs, Some(killed_shard));

    // Per-query error between the arms over the measurement window, for
    // every query either arm sampled (a query missing from one arm counts
    // its full SIC as error).
    let ids: std::collections::BTreeSet<QueryId> = control_means
        .keys()
        .chain(faulted_means.keys())
        .copied()
        .collect();
    let errors: Vec<f64> = ids
        .iter()
        .map(|q| {
            (control_means.get(q).copied().unwrap_or(0.0)
                - faulted_means.get(q).copied().unwrap_or(0.0))
            .abs()
        })
        .collect();
    let mean_abs_error = mean(&errors);

    // Post-hoc artifact inspection: the killed shard's durable log must
    // still be readable after the run.
    let (checkpoint_snapshots, wal_deltas, torn_tail) =
        match wal::restore_shard(&faulted_dir, killed_shard) {
            Ok(Some(restore)) => (
                restore.snapshots.len(),
                restore.deltas.len(),
                restore.torn_tail,
            ),
            Ok(None) => (0, 0, false),
            Err(e) => {
                eprintln!("(recovery: unreadable durable log: {e})");
                (0, 0, false)
            }
        };
    let _ = std::fs::remove_dir_all(&root);

    RecoveryOutcome {
        nodes,
        shards: 4,
        queries,
        killed_shard,
        kill_s: total.mul_f64(0.45).as_secs_f64(),
        restart_s: total.mul_f64(0.55).as_secs_f64(),
        measure_from_s: from_s,
        measure_to_s: to_s,
        arms: vec![control, faulted],
        mean_abs_error,
        checkpoint_snapshots,
        wal_deltas,
        torn_tail,
    }
}

/// Renders the recovery arms.
pub fn render(out: &RecoveryOutcome) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Kill-mid-overload recovery: shard {} of {} killed at {:.1}s, restored at {:.1}s \
             ({} queries on {} nodes; window {:.1}s-{:.1}s; log {} snapshots + {} deltas{})",
            out.killed_shard,
            out.shards,
            out.kill_s,
            out.restart_s,
            out.queries,
            out.nodes,
            out.measure_from_s,
            out.measure_to_s,
            out.checkpoint_snapshots,
            out.wal_deltas,
            if out.torn_tail { ", torn tail" } else { "" }
        ),
        &[
            "arm",
            "jain",
            "mean-sic",
            "shed-%",
            "engine-errors",
            "checkpoints",
            "early",
        ],
    );
    for a in &out.arms {
        t.row(vec![
            a.name.to_string(),
            f(a.jain),
            f(a.mean_sic),
            format!("{:.1}", a.shed_fraction * 100.0),
            a.engine_errors.to_string(),
            a.checkpoints.to_string(),
            a.early_checkpoints.to_string(),
        ]);
    }
    t.row(vec![
        "error".to_string(),
        f(out.jain_diff()),
        f(out.mean_abs_error),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean outcome with `edit` moving one clause towards its bound.
    fn passes(edit: impl FnOnce(&mut RecoveryOutcome)) -> bool {
        let arm = |name| RecoveryArm {
            name,
            jain: 0.9,
            shed_fraction: 0.3,
            ..Default::default()
        };
        let mut out = RecoveryOutcome {
            arms: vec![arm("control"), arm("faulted")],
            mean_abs_error: 0.1,
            checkpoint_snapshots: 2,
            wal_deltas: 5,
            ..Default::default()
        };
        edit(&mut out);
        claims(&out).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        assert!(passes(|o| o.mean_abs_error = SIC_ERROR_BOUND - 1e-6));
        assert!(!passes(|o| o.mean_abs_error = SIC_ERROR_BOUND + 1e-6));
        assert!(passes(|o| o.arms[1].jain = 0.9 - JAIN_DIFF_BOUND + 1e-6));
        assert!(!passes(|o| o.arms[1].jain = 0.9 - JAIN_DIFF_BOUND - 1e-6));
        assert!(passes(|o| o.checkpoint_snapshots = 0));
        assert!(passes(|o| o.wal_deltas = 0));
        assert!(!passes(|o| (o.checkpoint_snapshots, o.wal_deltas) = (0, 0)));
        assert!(passes(|o| o.arms[1].shed_fraction = 1e-9));
        assert!(!passes(|o| o.arms[1].shed_fraction = 0.0));
        assert!(!passes(|o| o.arms[0].engine_errors = 1));
        assert!(!passes(|o| o.arms[1].engine_errors = 1));
    }
}
