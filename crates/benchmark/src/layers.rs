//! The traced run: a thread-sampled full-system run, the layer replay, and
//! the per-layer metrics of `BENCHMARK.json` assembled from both. Never
//! the source of an end-to-end number.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use themis_query::prelude::place;

use crate::replay::{self, span, Replay};
use crate::run::{self, Outcome, TempDir};
use crate::spec;
use crate::trace::Layer;
use crate::workloads::Workload;

/// What a traced run yields.
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The thread-sampled run (the reference run on `sim-paper`, which has
    /// no threads to sample).
    pub sampled: Outcome,
}

/// Mean microseconds per query of scenario build minus placement
/// (`compile`), and of placement alone (`place`).
fn setup_probes(workload: Workload, seed: u64, quick: bool) -> (f64, f64) {
    let run = Duration::from_secs(spec::RUN_SECONDS);
    let t = Instant::now();
    let scenario = workload.scenario(seed, quick, run);
    let build_us = t.elapsed().as_secs_f64() * 1e6;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let t = Instant::now();
    let placed = place(
        &scenario.queries,
        scenario.n_nodes,
        workload.placement(),
        &mut rng,
    );
    let place_us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(placed.is_ok());
    let queries = scenario.queries.len().max(1) as f64;
    ((build_us - place_us).max(0.0) / queries, place_us / queries)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced run of `workload` within roughly `budget` wall time.
/// `reference` is an untraced run to compare against; without one a short
/// one is made first.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    quick: bool,
    budget: Duration,
    reference: Option<&Outcome>,
) -> Result<Traced, String> {
    let slice = (budget / 3).max(Duration::from_secs(1));
    let made;
    let reference = match reference {
        Some(r) => r,
        None => {
            made = run::run_workload(workload, seed, quick, slice, false)?;
            &made
        }
    };
    let sampled = if workload == Workload::SimPaper {
        reference.clone()
    } else {
        run::run_workload(workload, seed, quick, slice, true)?
    };

    let wal = workload
        .federated()
        .then(|| TempDir::new("replay-wal"))
        .transpose()
        .map_err(|e| format!("create replay WAL dir: {e}"))?;
    let replay = replay::replay(
        workload,
        seed,
        quick,
        replay::replay_length(quick),
        wal.as_ref().map(TempDir::path),
    );
    drop(wal);
    let path = run::out_dir().join(format!("trace-{}.json", workload.name()));
    replay
        .tracer
        .write(&path, workload.name())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("info {} trace {}", workload.name(), path.display());

    let (compile_us, place_us) = setup_probes(workload, seed, quick);
    let metrics = assemble(reference, &sampled, &replay, compile_us, place_us, slice);
    Ok(Traced { metrics, sampled })
}

/// Maps the measurements onto the metric names of `BENCHMARK.json`.
fn assemble(
    reference: &Outcome,
    sampled: &Outcome,
    replay: &Replay,
    compile_us: f64,
    place_us: f64,
    slice: Duration,
) -> Vec<(&'static str, f64)> {
    let layers: HashMap<&str, Layer> = replay.tracer.layers().into_iter().collect();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| {
        let l = layer(name);
        ratio(l.total_ns as f64, l.calls as f64)
    };
    let per_item = |name: &str| {
        let l = layer(name);
        ratio(l.total_ns as f64, l.items as f64)
    };
    let e = sampled.engine.clone().unwrap_or_default();
    let thread = |group: &str| e.threads.get(group).copied().unwrap_or(0.0);
    let share = |cpu: f64| ratio(cpu, e.sampled_cpu_s);
    let generator = e.generator.unwrap_or_default();
    let delivered = match e.generator {
        Some(g) => ratio(e.remote_batches as f64, g.emitted as f64),
        None => ratio(sampled.arrived as f64, sampled.scheduled as f64).min(1.0),
    };
    let p = &replay.probes;
    let replay_ns = replay.ns_per_tuple();
    let values: Vec<(&'static str, f64)> = vec![
        ("workloads.sources.emit_ns_per_batch", per_call(span::EMIT)),
        ("workloads.sources.emit_ns_per_tuple", per_item(span::EMIT)),
        ("engine.pump.cpu_share", share(thread("source-pump"))),
        ("engine.shard.cpu_share", share(thread("shard"))),
        ("core.coordinator.cpu_share", share(thread("main"))),
        ("engine.shard.mailbox_ns_per_msg", per_item(span::MAILBOX)),
        (
            "engine.node_state.enqueue_ns_per_batch",
            per_item(span::ENQUEUE),
        ),
        ("core.stw.stamp_ns_per_batch", p.stamp.per_item()),
        (
            "engine.node_state.tick_ns_per_call",
            per_call(span::NODE_TICK),
        ),
        (
            "engine.node_state.tick_ns_per_tuple",
            per_item(span::NODE_TICK),
        ),
        ("engine.node_state.ticks", e.ticks as f64),
        (
            "engine.node_state.late_tick_fraction",
            ratio(e.late_ticks as f64, e.ticks as f64),
        ),
        (
            "core.shedder.select_ns_per_call",
            ratio(e.shed_time_ns as f64, e.shed_decisions as f64),
        ),
        ("core.shedder.select_ns_per_candidate", p.select.per_item()),
        ("core.shedder.invocations", e.shed_invocations as f64),
        ("query.runtime.ingest_ns_per_tuple", p.ingest.per_item()),
        (
            "operators.window.push_ns_per_tuple",
            p.window_push.per_item(),
        ),
        (
            "operators.window.close_ns_per_pane",
            p.pane_close.per_item(),
        ),
        ("operators.kernels.ns_per_row", p.kernel.per_item()),
        (
            "core.batch.pool_reuse_fraction",
            ratio(e.pool.reused as f64, (e.pool.reused + e.pool.fresh) as f64),
        ),
        (
            "core.batch.allocs_per_tuple",
            ratio(replay.batch_allocs as f64, replay.tuples as f64),
        ),
        (
            "core.coordinator.tick_ns_per_query",
            per_item(span::COORD_TICK),
        ),
        (
            "core.coordinator.msgs_per_s",
            ratio(e.coordinator_messages as f64, slice.as_secs_f64()),
        ),
        ("query.spec.compile_us_per_query", compile_us),
        ("query.placement.place_us_per_query", place_us),
        ("net.codec.encode_ns_per_tuple", per_item(span::ENCODE)),
        ("net.codec.decode_ns_per_tuple", per_item(span::DECODE)),
        (
            "net.codec.bytes_per_tuple",
            ratio(replay.wire_bytes as f64, layer(span::ENCODE).items as f64),
        ),
        ("net.transport.send_ns_per_batch", p.send.per_item()),
        ("net.transport.shed_batches", e.remote_shed_batches as f64),
        (
            "net.listener.cpu_share",
            share(thread("net-ingest") + thread("net-accept")),
        ),
        ("core.wal.checkpoint_ms", per_call(span::CHECKPOINT) / 1e6),
        (
            "core.wal.bytes_per_checkpoint",
            ratio(replay.checkpoint_bytes as f64, replay.checkpoints as f64),
        ),
        ("core.wal.append_ns_per_delta", per_item(span::WAL_APPEND)),
        ("core.wal.restore_ms", replay.restore_ms),
        ("sim.tick_ns_per_tuple", per_item(span::SIM_TICK)),
        (
            "sim.events_per_s",
            ratio(sampled.sim_events as f64, sampled.wall_s),
        ),
        ("engine.drain_s", sampled.drain_s),
        ("generator.cpu_s", generator.cpu_s),
        ("generator.delivered_fraction", delivered),
        ("replay.ns_per_tuple", replay_ns),
        (
            "replay.unattributed_share",
            1.0 - ratio(replay_ns, reference.cpu_ns_per_tuple()),
        ),
        ("replay.batches", replay.batches as f64),
        ("replay.tuples", replay.tuples as f64),
        ("replay.shed_tuples", replay.shed_tuples as f64),
        (
            "trace.overhead_ratio",
            ratio(sampled.cpu_ns_per_tuple(), reference.cpu_ns_per_tuple()),
        ),
        ("trace.thread_cpu_coverage", share(e.threads.values().sum())),
    ];
    debug_assert!(
        values
            .iter()
            .map(|v| v.0)
            .eq(spec::PER_LAYER.iter().map(|m| m.0)),
        "per-layer metrics drifted from spec::PER_LAYER"
    );
    values
}
