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
//! smoke runs. `--policy=<name>` restricts `policies` and `federated`
//! to one policy looked up in the shedding registry (e.g. `balance-sic`,
//! `fifo`, or any name registered at startup); an unknown name exits 2
//! listing the registered policies. `--nodes`/`--shards` size the
//! `scale` and `churn` engine runs, `--secs` the engine gates' measured
//! time. `--query='<text>'` additionally runs one ad-hoc declarative
//! query end-to-end on the engine after `queries` (parse errors exit 2
//! with the frontend's message). `trace` replays an arrival-trace file
//! (`--file=<path>`, default `traces/flashcrowd-spike.json`; `--beat-ms`
//! rescales the replay beat); `federated` forks `--sources-procs=<n>`
//! source subprocesses (this same binary, re-executed in a hidden child
//! mode) that feed the engine's TCP ingest listener over loopback.
//!
//! Eight experiments are gates and run only when named explicitly, never
//! as part of `all`: `scale` (the sharded engine's `shards + 3` thread
//! budget), `churn` (resident Jain recovers after a flash-crowd cohort
//! departs), `queries` (declarative text matches the Table-1 presets
//! bitwise under every policy, and a `GROUP BY` reaches the dictionary
//! kernel), `trace` (replay volume and Jain under a recorded shape),
//! `correlated` (simultaneous bursts cost little Jain against an
//! independent control), `adversarial` (tick-gaming held to epsilon
//! under `balance-sic*`), `recovery` (a shard killed mid-overload and
//! restored from checkpoint + WAL stays within SIC/Jain bounds of a
//! control) and `federated` (forked source processes over TCP reproduce
//! every policy's in-process SIC/Jain within 2%). Each figure module's
//! `claims` turns the outcome into [`Claim`]s; every named gate runs,
//! prints one `pass`/`FAIL` line per claim, writes its table to
//! `results/<name>.csv` and `results/BENCH_<name>.json`, and the process
//! exits 1 at the end if any claim failed (2 on bad input). Built to be
//! run with `--release`. Performance is not measured here:
//! `BENCHMARK.json` and `cargo run --release -p themis-benchmark` are
//! the one perf harness.

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
use themis_bench::table::{Claim, TextTable};
use themis_core::shedder::{lookup_policy, registered_policies, Policy};

const SEED: u64 = 20160626; // SIGMOD'16 started June 26.
const RESULTS_DIR: &str = "results";

fn emit(name: &str, table: TextTable) {
    println!("{}", table.render());
    if let Err(e) = table.write_csv(RESULTS_DIR, name) {
        eprintln!("(could not write {RESULTS_DIR}/{name}.csv: {e})");
    }
}

/// The one output path of a gated experiment: prints the table and one
/// `pass`/`FAIL` line per claim (observed vs bound), writes the CSV, and
/// writes `results/BENCH_<name>.json` atomically (temp file, then
/// rename, so a reader never sees a half-written document even if the
/// process dies mid-write). True when every claim held.
fn gate(name: &str, table: TextTable, claims: &[Claim]) -> bool {
    let json = table.to_json(claims);
    emit(name, table);
    for c in claims {
        let verdict = if c.holds { "pass" } else { "FAIL" };
        let (id, observed, cmp, bound) = (&c.id, c.observed, c.cmp.symbol(), c.bound);
        eprintln!("{verdict} {name}.{id}: {observed} {cmp} {bound}");
    }
    let json_path = format!("{RESULTS_DIR}/BENCH_{name}.json");
    let tmp_path = format!("{json_path}.tmp");
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&tmp_path, json))
        .and_then(|()| std::fs::rename(&tmp_path, &json_path))
    {
        eprintln!("(could not write {json_path}: {e})");
    }
    claims.iter().all(|c| c.holds)
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
    // The gates below are explicit-only (never part of `all`): each
    // returns claims, `gate` prints and records them, and the run exits 1
    // at the end if any claim failed, so one run reports every gate.
    let mut passed = true;
    if opts.named("churn") {
        let nodes = nodes_arg.unwrap_or(512) as usize;
        let shards = shards_arg.map(|k| k as usize);
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 4 });
        let out = churn::churn(nodes, shards, secs, SEED);
        passed &= gate("churn", churn::render(&out), &churn::claims(&out));
    }
    if opts.named("queries") {
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 4 });
        let out = queries::queries(secs, SEED);
        passed &= gate("queries", queries::render(&out), &queries::claims(&out));
        if let Some(text) = query_arg {
            match queries::run_declarative(text, secs, SEED) {
                Ok(run) => emit("query_adhoc", queries::render_declarative(&run)),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        }
    }
    if opts.named("scale") {
        let nodes = nodes_arg.unwrap_or(1024) as usize;
        let shards = shards_arg.map(|k| k as usize);
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 6 });
        let row = engine_scale::scale(nodes, shards, secs, SEED);
        passed &= gate(
            "scale",
            engine_scale::render(&row),
            &engine_scale::claims(&row),
        );
    }
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
        let mut out = trace_fig::trace_replay(std::sync::Arc::new(data), secs, SEED);
        out.file = file;
        passed &= gate("trace", trace_fig::render(&out), &trace_fig::claims(&out));
    }
    if opts.named("correlated") {
        let secs = secs_arg.unwrap_or(if quick { 3 } else { 8 });
        let out = correlated::correlated(secs, SEED);
        passed &= gate(
            "correlated",
            correlated::render(&out),
            &correlated::claims(&out),
        );
    }
    if opts.named("recovery") {
        let secs = secs_arg.unwrap_or(if quick { 5 } else { 8 });
        let out = recovery::recovery(secs, SEED);
        passed &= gate("recovery", recovery::render(&out), &recovery::claims(&out));
    }
    if opts.named("adversarial") {
        let secs = secs_arg.unwrap_or(if quick { 2 } else { 4 });
        let out = adversarial::adversarial(secs, SEED);
        passed &= gate(
            "adversarial",
            adversarial::render(&out),
            &adversarial::claims(&out),
        );
    }
    if opts.named("federated") {
        let procs = opts.sources_procs.unwrap_or(4) as usize;
        let secs = secs_arg.unwrap_or(if quick { 3 } else { 5 });
        match std::env::current_exe() {
            Ok(exe) => {
                let out = federated_fig::federated(&policies, procs.max(1), secs, SEED, &exe);
                passed &= gate(
                    "federated",
                    federated_fig::render(&out),
                    &federated_fig::claims(&out),
                );
            }
            Err(e) => {
                eprintln!("FAIL federated: cannot locate own binary to fork pumps: {e}");
                passed = false;
            }
        }
    }

    eprintln!("total time: {:.1}s", t0.elapsed().as_secs_f64());
    if !passed {
        std::process::exit(1);
    }
}
