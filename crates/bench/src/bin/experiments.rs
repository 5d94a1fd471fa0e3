//! Regenerates the THEMIS evaluation tables and figures.
//!
//! ```text
//! experiments [all|table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|fig12|
//!              fig13|fig14|related|overhead|ablation|dynamics|policies|
//!              scale|churn|queries|trace|correlated|adversarial|
//!              recovery|federated]
//!             [--quick] [--policy=<name>] [--query='<text>'] [--nodes=<n>]
//!             [--shards=<k>] [--secs=<s>] [--sources-procs=<n>]
//!             [--file=<path>] [--beat-ms=<ms>]
//! ```
//!
//! Each experiment prints the series the paper plots and writes a CSV
//! under `results/`. Flags are validated against the selected
//! experiments (`themis_bench::cli`): an unknown flag, or one that none
//! of the selected experiments accepts, exits 2 listing the valid flags
//! for the selection. `--quick` switches to the reduced scale used for
//! smoke runs. `--policy=<name>` restricts the `policies` parity
//! experiment to one policy looked up in the shedding
//! registry (e.g. `balance-sic`, `fifo`, or any name registered at
//! startup); an unknown name exits 2 listing the registered policies.
//! `--nodes`/`--shards`/`--secs` size the `scale` experiment (default
//! 1024 nodes on the machine's parallelism); `scale` exits non-zero when
//! the process's peak thread count exceeds the sharded engine's
//! `shards + 3` budget, which is what the CI smoke asserts — for that
//! reason it only runs when named explicitly, never as part of `all`.
//! `churn` runs a 512+-node engine scenario (sized by `--nodes`/
//! `--shards`/`--secs`) with a flash-crowd query cohort attaching and
//! detaching mid-run, writes `results/BENCH_churn.json`, and exits
//! non-zero if resident Jain fairness fails to recover after the cohort
//! departs — the CI churn smoke. `queries` runs the declarative
//! frontend parity gate: every Table-1 template's canonical query text
//! must compile to the same graph and simulate to bitwise-identical
//! SIC/Jain numbers as the preset path under every registry policy, and
//! a declarative `GROUP BY` attached to the live engine must dispatch
//! the dictionary group-by kernel; it writes
//! `results/BENCH_queries.json` and exits non-zero on any mismatch —
//! the CI queries smoke. `--query='<text>'` additionally runs one
//! ad-hoc declarative query end-to-end on the engine (parse errors exit
//! 2 with the frontend's message). `trace` replays an arrival-trace file
//! (`--file=<path>`, default `traces/flashcrowd-spike.json`; `.csv` or
//! `.json`, validated with actionable errors; `--beat-ms` rescales the
//! replay beat) through the engine and gates on replay accuracy against
//! the trace-declared mean plus Jain under `balance-sic`, writing
//! `results/BENCH_trace.json`. `correlated` races one shared
//! (simultaneous) burst process against the independent-burst control at
//! identical declared demand and gates the correlated run's Jain within
//! a slack of the control, writing `results/BENCH_correlated.json`.
//! `adversarial` runs a strategic tick-phase-locked source against
//! honest peers under every registered policy and gates the strategic
//! SIC advantage ≤ epsilon under the `balance-sic` family (non-SIC
//! baselines are documented, not asserted), writing
//! `results/BENCH_adversarial.json`. `recovery` kills a shard
//! mid-overload under balance-sic, restores it from checkpoint + WAL
//! tail, and gates the post-recovery SIC error and Jain difference
//! against an uninterrupted same-seed control, writing
//! `results/BENCH_recovery.json`. `federated` forks
//! `--sources-procs=<n>` source subprocesses (this same binary,
//! re-executed in a hidden child mode) that ship their batches to the
//! engine's TCP ingest listener over loopback, and gates every
//! registered policy's federated SIC/Jain within 2% of the in-process
//! control, writing `results/BENCH_federated.json`. All five are
//! explicit-only CI smokes, like `churn`. Built to be run with
//! `--release`. Performance is not measured here: `BENCHMARK.json` and
//! `cargo run --release -p themis-benchmark` are the one perf harness.

use std::time::Instant;

use themis_bench::cli;
use themis_bench::figures::correlation::{correlation, render as render_corr, CorrelationQuery};
use themis_bench::figures::fairness::{fig10, fig11, fig8, fig9, render as render_fair};
use themis_bench::figures::federated as federated_fig;
use themis_bench::figures::overhead::{overhead, render as render_overhead};
use themis_bench::figures::parity::{policy_parity, render as render_parity};
use themis_bench::figures::queries;
use themis_bench::figures::recovery;
use themis_bench::figures::related::{related_work, render as render_related};
use themis_bench::figures::scalability::{fig12, fig13, fig14, render as render_scal};
use themis_bench::figures::scale as engine_scale;
use themis_bench::figures::{ablation, dynamics, tables};
use themis_bench::figures::{adversarial, churn, correlated, trace as trace_fig};
use themis_bench::scenarios::Scale;
use themis_bench::table::TextTable;
use themis_core::shedder::{lookup_policy, registered_policies, Policy};

const SEED: u64 = 20160626; // SIGMOD'16 started June 26.
const RESULTS_DIR: &str = "results";

fn emit(name: &str, table: TextTable) {
    println!("{}", table.render());
    if let Err(e) = table.write_csv(RESULTS_DIR, name) {
        eprintln!("(could not write {RESULTS_DIR}/{name}.csv: {e})");
    }
}

/// Writes `results/BENCH_<name>.json` atomically: the payload lands in a
/// temp file first and is renamed into place, so a reader (CI collecting
/// artifacts, a dashboard tailing results) never observes a half-written
/// JSON document even if the process dies mid-write.
fn write_bench_json(name: &str, json: &str) {
    let json_path = format!("{RESULTS_DIR}/BENCH_{name}.json");
    let tmp_path = format!("{json_path}.tmp");
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&tmp_path, json))
        .and_then(|()| std::fs::rename(&tmp_path, &json_path))
    {
        eprintln!("(could not write {json_path}: {e})");
    }
}

fn main() {
    // Hidden child mode: `experiments --source-pump-child --addr=... ...`
    // runs this binary as a remote source pump and exits. The `federated`
    // experiment forks itself this way (via `current_exe`) because
    // `cargo run -p themis-bench` does not build sibling packages'
    // binaries, so the standalone `source-pump` may not exist yet.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--source-pump-child") {
        match themis_workloads::remote::pump_main(&raw[1..]) {
            Ok(stats) => {
                eprintln!(
                    "source-pump-child: emitted {} batches, wrote {}, shed {}",
                    stats.emitted_batches, stats.sent_batches, stats.shed_batches
                );
                return;
            }
            Err(e) => {
                eprintln!("source-pump-child: {e}");
                std::process::exit(1);
            }
        }
    }
    let opts = match cli::parse(raw) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let quick = opts.quick;
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::default_scale()
    };
    let (nodes_arg, shards_arg) = (opts.nodes, opts.shards);
    let secs_arg = opts.secs;
    let query_arg = opts.query.as_deref();
    let policies: Vec<Policy> = match opts.policy.as_deref() {
        Some(name) => match lookup_policy(name) {
            Ok(p) => vec![p],
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        None => registered_policies(),
    };
    let run = |name: &str| opts.selected(name);
    let t0 = Instant::now();

    if run("table1") {
        emit("table1", tables::table1());
    }
    if run("table2") {
        emit("table2", tables::table2());
    }
    if run("fig6") {
        for (q, name) in [
            (CorrelationQuery::Avg, "fig6a_avg"),
            (CorrelationQuery::Count, "fig6b_count"),
            (CorrelationQuery::Max, "fig6c_max"),
        ] {
            let pts = correlation(q, &scale, SEED);
            emit(name, render_corr(q, &pts));
        }
    }
    if run("fig7") {
        for (q, name) in [
            (CorrelationQuery::Top5, "fig7a_top5"),
            (CorrelationQuery::Cov, "fig7b_cov"),
        ] {
            let pts = correlation(q, &scale, SEED);
            emit(name, render_corr(q, &pts));
        }
    }
    if run("fig8") {
        let pts = fig8(&scale, SEED);
        emit(
            "fig08",
            render_fair("Figure 8: single-node fairness", "queries", &pts),
        );
    }
    if run("fig9") {
        let pts = fig9(&scale, SEED);
        emit(
            "fig09",
            render_fair("Figure 9: shedding interval", "interval", &pts),
        );
    }
    if run("fig10") {
        let pts = fig10(&scale, SEED);
        emit(
            "fig10",
            render_fair(
                "Figure 10: BALANCE-SIC vs random across 18 nodes",
                "fragments",
                &pts,
            ),
        );
    }
    if run("fig11") {
        let pts = fig11(&scale, SEED);
        emit(
            "fig11",
            render_fair("Figure 11: multi-fragmentation ratio", "ratio-3frag", &pts),
        );
    }
    if run("fig12") {
        let pts = fig12(&scale, SEED);
        emit(
            "fig12",
            render_scal("Figure 12: scaling nodes", "nodes", &pts),
        );
    }
    if run("fig13") {
        let pts = fig13(&scale, SEED);
        emit(
            "fig13",
            render_scal("Figure 13: scaling queries", "queries", &pts),
        );
    }
    if run("fig14") {
        let pts = fig14(&scale, SEED);
        emit(
            "fig14",
            render_scal(
                "Figure 14: burstiness and wide-area latency",
                "deployment",
                &pts,
            ),
        );
    }
    if run("related") {
        let rows = related_work(&scale, SEED);
        emit("related", render_related(&rows));
    }
    if run("overhead") {
        let secs = if quick { 4 } else { 10 };
        let rows = overhead(secs, SEED);
        emit("overhead", render_overhead(&rows));
    }
    if run("ablation") {
        let pts = ablation::update_sic_ablation(&scale, SEED);
        emit(
            "ablation_update_sic",
            ablation::render(
                "Ablation: updateSIC dissemination (Figure 4 at scale)",
                &pts,
            ),
        );
        let pts = ablation::batch_order_ablation(&scale, SEED);
        emit(
            "ablation_batch_order",
            ablation::render("Ablation: Algorithm 1 batch-admission order", &pts),
        );
        let pts = ablation::policy_comparison(&scale, SEED);
        emit(
            "ablation_policies",
            ablation::render("Extension: shedding-policy comparison", &pts),
        );
    }
    if run("policies") {
        let secs = if quick { 1 } else { 3 };
        let rows = policy_parity(&policies, &scale, secs, SEED);
        emit("policies", render_parity(&rows));
    }
    if run("dynamics") {
        let (pts, arrive, depart) = dynamics::dynamics(&scale, SEED);
        emit("dynamics", dynamics::render(&pts, arrive, depart));
    }
    // Explicit-only (not part of `all`), like `scale`: a CI smoke whose
    // fairness-recovery gate exits non-zero. Runs a 512+-node engine
    // scenario wall-clock with a flash-crowd cohort attaching and
    // detaching mid-run, and asserts resident Jain fairness recovers.
    if opts.named("churn") {
        let nodes = nodes_arg.unwrap_or(512) as usize;
        let shards = shards_arg.map(|k| k as usize);
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 4 });
        let outcome = churn::churn(nodes, shards, secs, SEED);
        emit("churn", churn::render(&outcome));
        write_bench_json("churn", &churn::to_json(&outcome));
        let baseline = outcome.phase("baseline").resident_jain;
        let recovery = outcome.phase("recovery").resident_jain;
        if outcome.fairness_recovered() {
            eprintln!(
                "churn: resident Jain recovered to {recovery:.4} \
                 (baseline {baseline:.4}, shed {:.1}%)",
                outcome.shed_fraction * 100.0
            );
        } else {
            eprintln!(
                "FAIL: resident Jain did not recover after the cohort departed \
                 (baseline {baseline:.4}, recovery {recovery:.4}, shed {:.3}) ",
                outcome.shed_fraction
            );
            std::process::exit(1);
        }
    }
    // Explicit-only (not part of `all`), like `churn`: a CI smoke whose
    // parity gate exits non-zero — the declarative frontend must match
    // the Table-1 presets structurally and behaviourally, and a
    // declarative GROUP BY must reach the dictionary kernel on the live
    // engine.
    if opts.named("queries") {
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 4 });
        let outcome = queries::queries(secs, SEED);
        emit("queries", queries::render(&outcome));
        write_bench_json("queries", &queries::to_json(&outcome));
        if let Some(text) = query_arg {
            match queries::run_declarative(text, secs, SEED) {
                Ok(run) => emit("query_adhoc", queries::render_declarative(&run)),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
        if outcome.all_match() {
            eprintln!(
                "queries: all {} templates match under {} policies; GROUP BY \
                 dispatched {} kernel calls",
                outcome.parity.len(),
                outcome.parity.first().map_or(0, |r| r.policies.len()),
                outcome.group_by.kernel_calls
            );
        } else {
            let bad: Vec<&str> = outcome
                .parity
                .iter()
                .filter(|r| !r.matches())
                .map(|r| r.template.as_str())
                .collect();
            eprintln!(
                "FAIL: declarative parity gate (mismatched templates: [{}], group-by \
                 dispatched: {})",
                bad.join(", "),
                outcome.group_by.dispatched()
            );
            std::process::exit(1);
        }
    }
    // Explicit-only (not part of `all`): a CI smoke with a thread-budget
    // assertion that exits non-zero, not an evaluation figure — it must
    // not fail a figure-regeneration run on a machine with a stray thread.
    if opts.named("scale") {
        let nodes = nodes_arg.unwrap_or(1024) as usize;
        let shards = shards_arg.map(|k| k as usize);
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 6 });
        let row = engine_scale::scale(nodes, shards, secs, SEED);
        emit("scale", engine_scale::render(&row));
        if !row.within_budget() {
            eprintln!(
                "FAIL: peak thread count {} exceeds the shards+3 budget of {}",
                row.peak_threads.unwrap_or(0),
                row.thread_budget
            );
            std::process::exit(1);
        }
    }
    // Explicit-only (not part of `all`), like `churn`: a CI smoke whose
    // replay-accuracy and fairness gates exit non-zero. Replays a
    // validated arrival-trace file through the engine under balance-sic.
    if opts.named("trace") {
        let file = opts
            .file
            .clone()
            .unwrap_or_else(|| "traces/flashcrowd-spike.json".to_string());
        let secs = secs_arg.unwrap_or(if quick { 3 } else { 8 });
        let data = match themis_workloads::traces::TraceData::load(&file) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        let data = match opts.beat_ms {
            Some(0) => {
                eprintln!("invalid value `0` for --beat-ms=<ms> — the beat must be positive");
                std::process::exit(2);
            }
            Some(ms) => data.with_beat(themis_core::prelude::TimeDelta::from_millis(ms)),
            None => data,
        };
        let mut outcome = trace_fig::trace_replay(std::sync::Arc::new(data), secs, SEED);
        outcome.file = file;
        emit("trace", trace_fig::render(&outcome));
        write_bench_json("trace", &trace_fig::to_json(&outcome));
        let mut failed = false;
        if !outcome.accurate() {
            eprintln!(
                "FAIL: replayed volume off by {:.1}% from the trace-declared expectation \
                 (expected {:.0}, arrived {}, tolerance {:.0}%)",
                outcome.accuracy_error() * 100.0,
                outcome.expected_tuples,
                outcome.arrived_tuples,
                trace_fig::TRACE_ACCURACY_TOLERANCE * 100.0
            );
            failed = true;
        }
        if !outcome.fair() {
            eprintln!(
                "FAIL: Jain {:.4} under the trace shape (floor {}, shed {:.1}%)",
                outcome.jain,
                trace_fig::TRACE_JAIN_FLOOR,
                outcome.shed_fraction * 100.0
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "trace: `{}` replayed within {:.1}% of declared volume, Jain {:.4}, shed {:.1}%",
            outcome.trace_name,
            outcome.accuracy_error() * 100.0,
            outcome.jain,
            outcome.shed_fraction * 100.0
        );
    }
    // Explicit-only (not part of `all`), like `trace`: a CI smoke whose
    // correlated-fairness gate exits non-zero. Races one shared burst
    // process against the independent-burst control at identical
    // declared demand.
    if opts.named("correlated") {
        let secs = secs_arg.unwrap_or(if quick { 3 } else { 8 });
        let outcome = correlated::correlated(secs, SEED);
        emit("correlated", correlated::render(&outcome));
        write_bench_json("correlated", &correlated::to_json(&outcome));
        let corr = outcome.arm("correlated");
        let indep = outcome.arm("independent");
        if outcome.fair_under_correlation() {
            eprintln!(
                "correlated: Jain {:.4} under simultaneous bursts vs {:.4} independent \
                 (shed {:.1}% vs {:.1}%)",
                corr.jain,
                indep.jain,
                corr.shed_fraction * 100.0,
                indep.shed_fraction * 100.0
            );
        } else {
            eprintln!(
                "FAIL: correlated-burst Jain {:.4} fell more than {} below the \
                 independent control {:.4} (correlated shed {:.1}%)",
                corr.jain,
                correlated::CORRELATED_JAIN_SLACK,
                indep.jain,
                corr.shed_fraction * 100.0
            );
            std::process::exit(1);
        }
    }
    // Explicit-only (not part of `all`), like `churn`: a CI smoke whose
    // durability gate exits non-zero. Kills a shard mid-overload,
    // restores it from checkpoint + WAL tail, and asserts the
    // post-recovery SIC/Jain numbers stay within bounds of an
    // uninterrupted control run with the same seed.
    if opts.named("recovery") {
        let secs = secs_arg.unwrap_or(if quick { 5 } else { 8 });
        let outcome = recovery::recovery(secs, SEED);
        emit("recovery", recovery::render(&outcome));
        write_bench_json("recovery", &recovery::to_json(&outcome));
        if outcome.recovered() {
            eprintln!(
                "recovery: shard {} restored from {} snapshots + {} WAL deltas; \
                 post-recovery SIC error {:.4} (bound {}), Jain diff {:.4} (bound {}), \
                 shed {:.1}%",
                outcome.killed_shard,
                outcome.checkpoint_snapshots,
                outcome.wal_deltas,
                outcome.mean_abs_error,
                recovery::SIC_ERROR_BOUND,
                outcome.jain_diff(),
                recovery::JAIN_DIFF_BOUND,
                outcome.arm("faulted").shed_fraction * 100.0
            );
        } else {
            eprintln!(
                "FAIL: recovery gate (SIC error {:.4} vs bound {}, Jain diff {:.4} vs \
                 bound {}, snapshots {}, deltas {}, shed {:.3}, engine errors {})",
                outcome.mean_abs_error,
                recovery::SIC_ERROR_BOUND,
                outcome.jain_diff(),
                recovery::JAIN_DIFF_BOUND,
                outcome.checkpoint_snapshots,
                outcome.wal_deltas,
                outcome.arm("faulted").shed_fraction,
                outcome.arms.iter().map(|a| a.engine_errors).sum::<usize>()
            );
            std::process::exit(1);
        }
    }
    // Explicit-only (not part of `all`), like `trace`: a CI smoke whose
    // strategic-advantage gate exits non-zero. Runs the tick-phase-locked
    // attacker under every registered policy; only the balance-sic family
    // is asserted, the baselines' leak is documented.
    if opts.named("adversarial") {
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 4 });
        let outcome = adversarial::adversarial(secs, SEED);
        emit("adversarial", adversarial::render(&outcome));
        write_bench_json("adversarial", &adversarial::to_json(&outcome));
        if outcome.sic_policies_hold() {
            for r in outcome.rows.iter().filter(|r| r.sic_aware) {
                eprintln!(
                    "adversarial: {} holds the strategic source to {:+.1}% \
                     (epsilon {:.0}%, shed {:.1}%)",
                    r.policy,
                    r.advantage() * 100.0,
                    adversarial::ADVERSARIAL_EPSILON * 100.0,
                    r.shed_fraction * 100.0
                );
            }
        } else {
            for r in outcome
                .rows
                .iter()
                .filter(|r| r.sic_aware && !r.within_epsilon())
            {
                eprintln!(
                    "FAIL: {} let the strategic source take {:+.1}% over its honest peers \
                     (epsilon {:.0}%, shed {:.1}%)",
                    r.policy,
                    r.advantage() * 100.0,
                    adversarial::ADVERSARIAL_EPSILON * 100.0,
                    r.shed_fraction * 100.0
                );
            }
            std::process::exit(1);
        }
    }

    // Explicit-only (not part of `all`), like `recovery`: a CI smoke
    // whose multi-process parity gate exits non-zero. Forks
    // `--sources-procs` source subprocesses feeding the engine's TCP
    // ingest listener over loopback and asserts every policy's federated
    // SIC/Jain lands within 2% of the in-process control.
    if opts.named("federated") {
        let procs = opts.sources_procs.unwrap_or(4) as usize;
        let secs = secs_arg.unwrap_or(if quick { 3 } else { 5 });
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("federated: cannot locate own binary to fork pumps: {e}");
                std::process::exit(1);
            }
        };
        let outcome = federated_fig::federated(&policies, procs.max(1), secs, SEED, &exe);
        emit("federated", federated_fig::render(&outcome));
        write_bench_json("federated", &federated_fig::to_json(&outcome));
        if outcome.passed() {
            eprintln!(
                "federated: {} policies within {:.0}% SIC / {:.2} Jain of in-process \
                 parity across {} source processes",
                outcome.arms.len(),
                federated_fig::SIC_REL_BOUND * 100.0,
                federated_fig::JAIN_ABS_BOUND,
                outcome.sources_procs
            );
        } else {
            for a in outcome.arms.iter().filter(|a| !a.within_bounds()) {
                eprintln!(
                    "FAIL: {}: sic {:.4} vs {:.4} (rel {:.2}%), jain {:.4} vs {:.4} \
                     (diff {:.4}), wire batches {}, engine errors {}",
                    a.policy,
                    a.federated_sic,
                    a.control_sic,
                    a.sic_rel_diff() * 100.0,
                    a.federated_jain,
                    a.control_jain,
                    a.jain_diff(),
                    a.remote_batches,
                    a.engine_errors
                );
            }
            std::process::exit(1);
        }
    }

    eprintln!("total time: {:.1}s", t0.elapsed().as_secs_f64());
}
