//! Regenerates the THEMIS evaluation tables and figures and runs the
//! fairness/robustness gates.
//!
//! ```text
//! experiments [all|<experiment>...] [--quick] [--policy=<name>]
//!             [--query='<text>'] [--nodes=<n>] [--shards=<k>] [--secs=<s>]
//!             [--sources-procs=<n>] [--file=<path>] [--beat-ms=<ms>]
//! ```
//!
//! Every experiment is one row of `themis_bench::experiments::EXPERIMENTS`
//! (name, explicit-only gate or not, accepted value flags, runner). The
//! selected rows run in table order; `all`, the default, is every row
//! that is not a gate. `themis_bench::cli` rejects an unknown flag, or
//! one no selected row accepts, listing the valid flags (exit 2).
//! `--quick` switches to the reduced scale used for smoke runs.
//!
//! Every table leaves through [`output`]. The process exits 1 at the end
//! if any claim failed, 2 on bad input. Built to be run with
//! `--release`. Performance is not measured here: `BENCHMARK.json` and
//! `cargo run --release -p themis-benchmark` are the one perf harness.

use std::time::Instant;

use themis_bench::cli;
use themis_bench::experiments::EXPERIMENTS;
use themis_bench::table::{Claim, TextTable};

const RESULTS_DIR: &str = "results";

/// The one output path: prints the table and one `pass`/`FAIL` line per
/// claim (observed vs bound), writes `results/<name>.csv`, and writes
/// `results/BENCH_<name>.json` atomically (temp file, then rename, so a
/// reader never sees a half-written document even if the process dies
/// mid-write). True when every claim held.
fn output(name: &str, table: TextTable, claims: &[Claim]) -> bool {
    println!("{}", table.render());
    if let Err(e) = table.write_csv(RESULTS_DIR, name) {
        eprintln!("(could not write {RESULTS_DIR}/{name}.csv: {e})");
    }
    for c in claims {
        let verdict = if c.holds { "pass" } else { "FAIL" };
        let (id, observed, cmp, bound) = (&c.id, c.observed, c.cmp.symbol(), c.bound);
        eprintln!("{verdict} {name}.{id}: {observed} {cmp} {bound}");
    }
    let json_path = format!("{RESULTS_DIR}/BENCH_{name}.json");
    let tmp_path = format!("{json_path}.tmp");
    if let Err(e) = std::fs::write(&tmp_path, table.to_json(claims))
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
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let mut passed = true;
    for experiment in EXPERIMENTS.iter().filter(|e| opts.selected(e.name)) {
        let outputs = (experiment.run)(&opts).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        for (name, table, claims) in outputs {
            passed &= output(name, table, &claims);
        }
    }
    eprintln!("total time: {:.1}s", t0.elapsed().as_secs_f64());
    if !passed {
        std::process::exit(1);
    }
}
