//! Full-system runs, measured from outside the program: `Engine::start /
//! run_for / finish` (or `Simulation::new / run`), the report they return,
//! and `/proc`.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::Scenario;

use crate::procfs::{self, TaskSampler};
use crate::workloads::Workload;

/// Set-ups are timed repeatedly — `setup_s` is their median — until this
/// much wall time is spent on them (sub-millisecond set-ups need many
/// samples to give a steady median), within these counts. The last one is
/// the engine that then takes the load.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=100;

/// Length of the slices process CPU is read at during an engine run.
const CPU_SLICE: Duration = Duration::from_secs(2);

/// Wall time the engine keeps serving after the generator's schedule
/// ends, so the child can flush its queue and say bye.
const FEDERATED_DRAIN: Duration = Duration::from_millis(800);

/// First argument of the hidden child mode (see [`generator_child`]).
pub const GENERATOR_CHILD_FLAG: &str = "--generator-child";

/// What the forked generator reported, plus its CPU once reaped.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneratorStats {
    /// Child CPU seconds (`cutime + cstime` delta).
    pub cpu_s: f64,
    /// Batches its drivers emitted.
    pub emitted: u64,
    /// Batches it wrote to the socket.
    pub sent: u64,
}

/// Engine-side counters of a run, for the per-layer metrics and checks.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    /// Shedding ticks fired, all nodes.
    pub ticks: u64,
    /// Ticks that fired a full interval late.
    pub late_ticks: u64,
    /// Shedder invocations under overload.
    pub shed_invocations: u64,
    /// Wall nanoseconds inside `select_to_keep`.
    pub shed_time_ns: u64,
    /// Timed shedder calls.
    pub shed_decisions: u64,
    /// Coordinator updates sent.
    pub coordinator_messages: u64,
    /// Engine batch-pool traffic.
    pub pool: PoolStats,
    /// Batches the ingest listener decoded.
    pub remote_batches: u64,
    /// Batches the generator's bye said it wrote.
    pub remote_sent_batches: u64,
    /// Batches the generator's bye said it shed.
    pub remote_shed_batches: u64,
    /// The forked generator's own accounting (`federated-durable`).
    pub generator: Option<GeneratorStats>,
    /// CPU seconds per thread-name group (sampled runs only).
    pub threads: BTreeMap<String, f64>,
    /// Process CPU seconds while the sampler ran.
    pub sampled_cpu_s: f64,
}

/// Everything one full-system run yields.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Wall time asked for (`--seconds`, or the traced run's slice).
    pub run: Duration,
    /// Wall seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds from the end of set-up to the return of `finish()`.
    /// Simulator: of the fastest repetition, which every count below
    /// describes too.
    pub wall_s: f64,
    /// Process CPU seconds of the run. Engine: the median over
    /// 2 s slices of the run, times the slice count — the
    /// schedule is steady, so the start-up transient and a co-tenant's
    /// burst each land in a few slices and stay out of the figure (as
    /// does `finish()`). Simulator: of the fastest repetition.
    pub cpu_s: f64,
    /// Wall seconds of `finish()` alone (0 for the simulator).
    pub drain_s: f64,
    /// Tuples arrived at nodes.
    pub arrived: u64,
    /// Tuples admitted.
    pub kept: u64,
    /// Tuples shed.
    pub shed: u64,
    /// Tuples the schedule called for over the measured interval.
    pub scheduled: u64,
    /// Scheduled tuples known lost before reaching a node (transport-shed
    /// batches).
    pub lost_in_transport: u64,
    /// Offered tuples per shedding interval (bounds the buffered gap).
    pub offered_per_interval: f64,
    /// One beat of every source: the resolution of `scheduled`.
    pub one_beat: u64,
    /// Mean settled per-query SIC.
    pub mean_sic: f64,
    /// Jain's index over the per-query SIC values.
    pub jain: f64,
    /// Share of arrived tuples not shed.
    pub kept_fraction: f64,
    /// Settled SIC of every query.
    pub per_query_sic: Vec<f64>,
    /// Queries that emitted at least one result (`None`: not observable).
    pub queries_with_results: Option<usize>,
    /// `EngineReport::errors`, child failures.
    pub errors: Vec<String>,
    /// `VmHWM` at the end of the run, MB.
    pub peak_rss_mb: f64,
    /// Engine counters (`None` for the simulator).
    pub engine: Option<EngineCounters>,
    /// Simulator only: every repetition agreed with the first bit for bit.
    pub deterministic: Option<bool>,
    /// Simulator only: repetitions run.
    pub reps: usize,
    /// Simulator only: events of known classes scheduled (source
    /// emissions and their arrivals, node ticks, coordinator rounds and
    /// the updates they sent) — a lower bound on the event queue's work.
    pub sim_events: u64,
}

impl Outcome {
    /// Median of the timed set-ups.
    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// CPU nanoseconds per arrived tuple.
    pub fn cpu_ns_per_tuple(&self) -> f64 {
        self.cpu_s * 1e9 / self.arrived.max(1) as f64
    }

    /// Arrived tuples per wall second.
    pub fn tuples_per_s(&self) -> f64 {
        self.arrived as f64 / self.wall_s.max(1e-9)
    }

    /// Scheduled tuples that never reached a node: transport-shed batches
    /// plus any shortfall beyond the one-beat resolution of the schedule.
    pub fn failed(&self) -> u64 {
        let shortfall = self
            .scheduled
            .saturating_sub(self.one_beat)
            .saturating_sub(self.arrived + self.lost_in_transport);
        self.lost_in_transport + shortfall
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_median_s()),
            ("cpu_ns_per_tuple", self.cpu_ns_per_tuple()),
            ("tuples_per_s", self.tuples_per_s()),
            ("mean_sic", self.mean_sic),
            ("jain", self.jain),
            ("kept_fraction", self.kept_fraction),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values` (0 when empty).
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The benchmark's scratch directory (`crates/benchmark/out`, ignored by
/// git): trace files and the temporary WAL root live here, inside the
/// checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop — every exit
/// path, unwinding included, cleans the WAL up.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `out/<label>-<pid>`, replacing any stale one.
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The forked generator; killed and reaped on drop unless already waited.
struct Generator(Option<Child>);

impl Generator {
    /// Re-executes this binary in its hidden child mode, pumping the
    /// federated scenario's sources at the engine listening on `addr`.
    fn spawn(
        workload: Workload,
        seed: u64,
        quick: bool,
        run: Duration,
        addr: std::net::SocketAddr,
        start_unix_us: u64,
    ) -> Result<Self, String> {
        let p = workload.federated_params(seed, quick, run);
        let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
        Command::new(exe)
            .arg(GENERATOR_CHILD_FLAG)
            .arg(format!("--addr={addr}"))
            .arg(format!("--run-ms={}", run.as_millis()))
            .arg(format!("--start-unix-us={start_unix_us}"))
            .arg(format!("--seed={}", p.seed))
            .arg(format!("--nodes={}", p.nodes))
            .arg(format!("--queries={}", p.queries))
            .arg(format!("--rate={}", p.rate_tps))
            .arg(format!("--batches={}", p.batches_per_sec))
            .arg(format!("--capacity={}", p.capacity_tps))
            .arg(format!("--stw-ms={}", p.stw_ms))
            .arg(format!("--warmup-ms={}", p.warmup_ms))
            .arg(format!("--duration-ms={}", p.duration_ms))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map(|c| Generator(Some(c)))
            .map_err(|e| format!("fork generator: {e}"))
    }

    /// Waits (bounded) for the child and parses the stats line it prints.
    fn wait(mut self, timeout: Duration) -> Result<GeneratorStats, String> {
        let mut child = self.0.take().expect("generator waited once");
        let cpu0 = procfs::children_cpu_seconds();
        let deadline = Instant::now() + timeout;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("generator hung past its schedule; killed".into());
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("wait for generator: {e}"));
                }
            }
        };
        if !status.success() {
            return Err(format!("generator exited {status}"));
        }
        let mut line = String::new();
        if let Some(mut out) = child.stdout.take() {
            let _ = out.read_to_string(&mut line);
        }
        let nums: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        let [emitted, sent] = nums[..] else {
            return Err(format!("generator printed {line:?}, expected two counts"));
        };
        Ok(GeneratorStats {
            cpu_s: procfs::children_cpu_seconds() - cpu0,
            emitted,
            sent,
        })
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The hidden child mode: pumps the federated scenario's sources over one
/// TCP connection and prints its `emitted sent` batch counts (what it
/// shed travels in its bye and surfaces in the engine's report).
pub fn generator_child(args: &[String]) -> Result<(), String> {
    let stats = themis_workloads::remote::pump_main(args)?;
    println!("{} {}", stats.emitted_batches, stats.sent_batches);
    Ok(())
}

/// Tuples the scenario's schedule calls for over `run`, one beat of every
/// source, and the tuples offered per shedding interval.
fn schedule(scenario: &Scenario, run: Duration) -> (u64, u64, f64) {
    let demand = scenario.total_demand_tps();
    let one_beat: usize = scenario.profiles.values().map(|p| p.batch_size()).sum();
    (
        (demand * run.as_secs_f64()) as u64,
        one_beat as u64,
        demand * scenario.shedding_interval.as_micros() as f64 / 1e6,
    )
}

/// Runs an engine-backed workload for `run` wall time after timing
/// repeated set-ups. With `sample_threads`, a `/proc` task sampler
/// attributes CPU per thread (the traced run; never the timed one).
pub fn run_engine_workload(
    workload: Workload,
    seed: u64,
    quick: bool,
    run: Duration,
    sample_threads: bool,
) -> Result<Outcome, String> {
    let wal = if workload.federated() {
        Some(TempDir::new("wal").map_err(|e| format!("create WAL dir: {e}"))?)
    } else {
        None
    };
    let mut setup_s = Vec::new();
    let setting_up = Instant::now();
    let (scenario, mut engine) = loop {
        // Each set-up gets its own WAL namespace so a discarded engine's
        // checkpoints cannot be mistaken for the measured one's.
        let dir = wal
            .as_ref()
            .map(|d| d.path().join(format!("setup-{}", setup_s.len())));
        let t = Instant::now();
        let scenario = workload.scenario(seed, quick, run);
        let engine = Engine::start(&scenario, workload.engine_config(dir));
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = setup_s.len() >= *SETUP_REPS.start() && setting_up.elapsed() >= SETUP_BUDGET;
        if enough || setup_s.len() >= *SETUP_REPS.end() {
            break (scenario, engine);
        }
        engine.finish();
    };

    let generator = if workload.federated() {
        let addr = engine.ingest_addr().ok_or("ingest listener not bound")?;
        Some(Generator::spawn(
            workload,
            seed,
            quick,
            run,
            addr,
            engine.epoch_unix_us(),
        )?)
    } else {
        None
    };

    let pool = engine.batch_pool().clone();
    let sampler = sample_threads.then(TaskSampler::start);
    let cpu0 = procfs::cpu_seconds();
    let t0 = Instant::now();
    // CPU is read every slice so the median slice can stand for the run.
    let slices = (run.as_secs_f64() / CPU_SLICE.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let mut cpu_slices = Vec::with_capacity(slices as usize);
    let mut cpu_last = cpu0;
    for _ in 0..slices {
        engine.run_for(run / slices);
        let cpu = procfs::cpu_seconds();
        cpu_slices.push(cpu - cpu_last);
        cpu_last = cpu;
    }
    let mut errors = Vec::new();
    let generator = match generator {
        Some(g) => {
            // The idle wire's windowed SIC decay stays out of the mean.
            engine.pause_sampling();
            engine.run_for(FEDERATED_DRAIN);
            match g.wait(Duration::from_secs(10)) {
                Ok(stats) => Some(stats),
                Err(e) => {
                    errors.push(e);
                    None
                }
            }
        }
        None => None,
    };
    // Engine threads must still be alive for their CPU to be readable.
    let threads = sampler.map(TaskSampler::finish).unwrap_or_default();
    let sampled_cpu_s = procfs::cpu_seconds() - cpu0;
    let t_drain = Instant::now();
    let report = engine.finish();
    let drain_s = t_drain.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();

    errors.extend(report.errors.iter().map(ToString::to_string));
    let sum = |f: fn(&NodeReport) -> u64| report.nodes.iter().map(f).sum::<u64>();
    let (scheduled, one_beat, offered_per_interval) = schedule(&scenario, run);
    let batch_tuples = scenario
        .profiles
        .values()
        .next()
        .map_or(0, |p| p.batch_size() as u64);
    Ok(Outcome {
        workload,
        run,
        setup_s,
        wall_s,
        cpu_s: median(&cpu_slices) * slices as f64,
        drain_s,
        arrived: sum(|n| n.arrived_tuples),
        kept: sum(|n| n.kept_tuples),
        shed: sum(|n| n.shed_tuples),
        scheduled,
        lost_in_transport: report.remote_shed_batches * batch_tuples,
        offered_per_interval,
        one_beat,
        mean_sic: report.fairness.mean,
        jain: report.fairness.jain,
        kept_fraction: 1.0 - report.shed_fraction(),
        per_query_sic: report.per_query_sic.iter().map(|&(_, s)| s).collect(),
        queries_with_results: Some(report.result_counts.len()),
        errors,
        peak_rss_mb: procfs::peak_rss_mb(),
        engine: Some(EngineCounters {
            ticks: sum(|n| n.ticks),
            late_ticks: sum(|n| n.late_ticks),
            shed_invocations: sum(|n| n.shed_invocations),
            shed_time_ns: sum(|n| n.shed_time_ns),
            shed_decisions: sum(|n| n.shed_decisions),
            coordinator_messages: report.coordinator_messages,
            pool: pool.stats(),
            remote_batches: report.remote_batches,
            remote_sent_batches: report.remote_sent_batches,
            remote_shed_batches: report.remote_shed_batches,
            generator,
            threads,
            sampled_cpu_s,
        }),
        deterministic: None,
        reps: 1,
        sim_events: 0,
    })
}

/// Simulated seconds per repetition of `sim-paper`.
pub fn sim_rep_length(quick: bool) -> Duration {
    Duration::from_secs(if quick { 6 } else { 20 })
}

/// Runs `sim-paper`: repetitions of one fixed-length simulation of one
/// seed until `run` wall time is spent (at least two). Every repetition
/// must reproduce the first bit for bit. They are identical work, so the
/// fastest one — the one co-tenants of the host disturbed least — gives
/// the job's speed (over ten runs it spread half as wide as the median).
pub fn run_sim_workload(workload: Workload, seed: u64, quick: bool, run: Duration) -> Outcome {
    let length = sim_rep_length(quick);
    let started = Instant::now();
    let (mut setup_s, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Scenario, SimReport)> = None;
    let mut deterministic = true;
    let mut longest = 0.0f64;
    while wall.len() < 2 || started.elapsed().as_secs_f64() + longest <= run.as_secs_f64() {
        let t = Instant::now();
        let scenario = workload.scenario(seed, quick, length);
        let sim = Simulation::new(scenario.clone(), SimConfig::default());
        setup_s.push(t.elapsed().as_secs_f64());
        let cpu0 = procfs::cpu_seconds();
        let t0 = Instant::now();
        let report = sim.run();
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push(procfs::cpu_seconds() - cpu0);
        longest = longest.max(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some((scenario, report)),
            Some((_, f)) => {
                deterministic &= f.mean_sic().to_bits() == report.mean_sic().to_bits()
                    && f.jain().to_bits() == report.jain().to_bits()
                    && f.shed_fraction().to_bits() == report.shed_fraction().to_bits();
            }
        }
    }
    let (scenario, report) = first.expect("at least two repetitions ran");
    let sum = |f: fn(&NodeStats) -> u64| report.nodes.iter().map(f).sum::<u64>();
    let (scheduled, one_beat, offered_per_interval) = schedule(&scenario, length);
    let emissions: f64 = scenario
        .profiles
        .values()
        .map(|p| p.batches_per_sec as f64 * length.as_secs_f64())
        .sum();
    let rounds = length.as_micros() as u64 / scenario.shedding_interval.as_micros().max(1);
    Outcome {
        workload,
        run,
        setup_s,
        wall_s: fastest(&wall),
        cpu_s: fastest(&cpu),
        drain_s: 0.0,
        arrived: sum(|n| n.arrived_tuples),
        kept: sum(|n| n.kept_tuples),
        shed: sum(|n| n.shed_tuples),
        scheduled,
        lost_in_transport: 0,
        offered_per_interval,
        one_beat,
        mean_sic: report.mean_sic(),
        jain: report.jain(),
        kept_fraction: 1.0 - report.shed_fraction(),
        per_query_sic: report.per_query.iter().map(|q| q.mean_sic).collect(),
        queries_with_results: None,
        errors: Vec::new(),
        peak_rss_mb: procfs::peak_rss_mb(),
        engine: None,
        deterministic: Some(deterministic),
        reps: wall.len(),
        sim_events: 2 * emissions as u64
            + rounds * (scenario.n_nodes as u64 + 1)
            + report.coordinator_messages,
    }
}

/// Runs `workload` once, dispatching on its kind.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    quick: bool,
    run: Duration,
    sample_threads: bool,
) -> Result<Outcome, String> {
    match workload {
        Workload::SimPaper => Ok(run_sim_workload(workload, seed, quick, run)),
        _ => run_engine_workload(workload, seed, quick, run, sample_threads),
    }
}
