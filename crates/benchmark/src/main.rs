//! `themis-benchmark`: the one command behind `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release -p themis-benchmark -- [--workload=<name>] [--seed=<u64>]
//!     [--seconds=<n>] [--quick] [--repeat=<n>] [--trace=<0|1>]
//! ```
//!
//! Without `--trace` every selected workload gets a timed run (end-to-end
//! metrics) followed by a traced run (per-layer metrics and
//! `out/trace-<workload>.json`). With `--trace=0|1` — the driver's form —
//! exactly one of the two runs happens and the last line of standard
//! output is one JSON object. Flags take `--key=value` or `--key value`.

use std::process::ExitCode;
use std::time::Duration;

use themis_benchmark::run::{self, Outcome};
use themis_benchmark::workloads::{self, Workload};
use themis_benchmark::{checks, layers, spec, stats};

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    run: Duration,
    quick: bool,
    repeat: Option<usize>,
    trace: Option<bool>,
}

const USAGE: &str = "usage: themis-benchmark [--workload=<many-sources|overload-mixed|\
federated-durable|sim-paper>] [--seed=<u64>] [--seconds=<n>] [--quick] [--repeat=<n>] \
[--trace=<0|1>]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 20160626,
        run: Duration::ZERO,
        quick: false,
        repeat: None,
        trace: None,
    };
    let mut seconds = None;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        if arg == "--quick" {
            args.quick = true;
            continue;
        }
        let (key, value) = match arg.split_once('=') {
            Some((k, v)) => (k, v.to_string()),
            None => (
                arg.as_str(),
                it.next()
                    .ok_or_else(|| format!("flag {arg} needs a value"))?
                    .clone(),
            ),
        };
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{key} needs {what}, got {value}"))
        };
        match key {
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value}; choose from {:?}",
                        workloads::NAMES
                    )
                })?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = number("an unsigned integer")?,
            "--seconds" => seconds = Some(number("whole seconds")?.max(1)),
            "--repeat" => args.repeat = Some(number("a count of at least 2")?.max(2) as usize),
            "--trace" => args.trace = Some(number("0 or 1")? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let default_seconds = if args.quick { 2 } else { spec::RUN_SECONDS };
    args.run = Duration::from_secs(seconds.unwrap_or(default_seconds));
    if args.trace.is_some() && args.workloads.len() != 1 {
        return Err("--trace needs exactly one --workload".into());
    }
    if args.trace.is_some() && args.repeat.is_some() {
        return Err("--trace and --repeat exclude each other".into());
    }
    Ok(args)
}

/// Prints one `metric <workload> <name> <value> <unit>` line per metric.
fn print_metrics(workload: Workload, metrics: &[(&str, f64)]) {
    for (name, value) in metrics {
        println!(
            "metric {} {name} {value} {}",
            workload.name(),
            unit_of(name)
        );
    }
}

/// The unit `BENCHMARK.json` declares for metric `name`.
fn unit_of(name: &str) -> &'static str {
    let end_to_end = spec::END_TO_END.iter().map(|m| (m.0, m.1));
    end_to_end
        .chain(spec::PER_LAYER)
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Runs the checks over `outcome`, printing each failure; true when all
/// passed and every metric is finite.
fn verify(outcome: &Outcome, metrics: &[(&str, f64)]) -> bool {
    let mut failures = checks::check(outcome);
    failures.extend(
        metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, v)| format!("metric {n} is not finite: {v}")),
    );
    for f in &failures {
        println!("check-failed {} {f}", outcome.workload.name());
    }
    failures.is_empty()
}

fn timed_run(args: &Args, workload: Workload, seed: u64) -> Result<(Outcome, bool), String> {
    let outcome = run::run_workload(workload, seed, args.quick, args.run, false)?;
    let metrics = outcome.end_to_end();
    print_metrics(workload, &metrics);
    println!(
        "info {} attempted {} failed {} arrived {} wall_s {:.3} cpu_s {:.2} reps {}",
        workload.name(),
        outcome.scheduled,
        outcome.failed(),
        outcome.arrived,
        outcome.wall_s,
        outcome.cpu_s,
        outcome.reps
    );
    let correct = verify(&outcome, &metrics);
    Ok((outcome, correct))
}

/// `--repeat=<n>`: n timed runs per workload on consecutive seeds, then
/// median, quartiles and relative spread of every end-to-end metric
/// against its bound.
fn repeat_mode(args: &Args, n: usize) -> Result<bool, String> {
    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for i in 0..n {
            let (outcome, correct) = timed_run(args, workload, args.seed + i as u64)?;
            all_correct &= correct;
            for (col, (_, v)) in columns.iter_mut().zip(outcome.end_to_end()) {
                col.push(v);
            }
        }
        for ((name, unit, _, bound), values) in spec::END_TO_END.iter().zip(&columns) {
            let (q1, q2, q3) = stats::quartiles(values);
            let spread = (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE);
            let verdict = if spread > *bound { "unresolved" } else { "ok" };
            println!(
                "repeat {} {name} median {q2} q1 {q1} q3 {q3} {unit} spread {spread:.4} bound {bound} {verdict}",
                workload.name()
            );
        }
    }
    Ok(all_correct)
}

/// The traced run of `workload`; prints the per-layer metrics and checks
/// the sampled run like a timed one.
fn traced_run(
    args: &Args,
    workload: Workload,
    budget: Duration,
    reference: Option<&Outcome>,
) -> Result<(layers::Traced, bool), String> {
    let traced = layers::traced_run(workload, args.seed, args.quick, budget, reference)?;
    print_metrics(workload, &traced.metrics);
    let correct = verify(&traced.sampled, &traced.metrics);
    Ok((traced, correct))
}

fn real_main(raw: &[String]) -> Result<bool, String> {
    let args = parse_args(raw).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some(n) = args.repeat {
        return repeat_mode(&args, n);
    }
    let mut all_correct = true;
    for &workload in &args.workloads {
        match args.trace {
            // The driver's forms: one run, one JSON line.
            Some(false) => {
                let (o, correct) = timed_run(&args, workload, args.seed)?;
                all_correct &= correct;
                let line = json_line(correct, o.scheduled, o.failed(), &o.end_to_end());
                println!("{line}");
            }
            Some(true) => {
                let (t, correct) = traced_run(&args, workload, args.run, None)?;
                all_correct &= correct;
                let (attempted, failed) = (t.sampled.scheduled, t.sampled.failed());
                println!("{}", json_line(correct, attempted, failed, &t.metrics));
            }
            // Everything: the timed run, then a traced run half as long
            // measured against it.
            None => {
                let (outcome, correct) = timed_run(&args, workload, args.seed)?;
                let budget = args.run * 3 / 2;
                let (_, traced_correct) = traced_run(&args, workload, budget, Some(&outcome))?;
                all_correct &= correct && traced_correct;
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(run::GENERATOR_CHILD_FLAG) {
        return match run::generator_child(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("generator: {e}");
                ExitCode::from(2)
            }
        };
    }
    match real_main(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("themis-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
