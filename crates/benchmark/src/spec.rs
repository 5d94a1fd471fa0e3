//! The metric tables of `BENCHMARK.json`, as the harness prints them. The
//! crate's test holds the two in step.

/// An end-to-end metric: `(name, unit, higher is better, bound)`. The
/// bound is the share of the parent's median by which the metric may get
/// worse before a change counts as a regression. Each is at least three
/// times the widest run-to-run spread seen on a shared 2-core sandbox
/// (see the README), capped at the contract's 0.25.
pub const END_TO_END: [(&str, &str, bool, f64); 7] = [
    ("setup_s", "s", false, 0.25),
    ("cpu_ns_per_tuple", "ns", false, 0.25),
    ("tuples_per_s", "1/s", true, 0.15),
    ("mean_sic", "sic", true, 0.12),
    ("jain", "ratio", true, 0.015),
    ("kept_fraction", "ratio", true, 0.1),
    ("peak_rss_mb", "MB", false, 0.25),
];

/// A per-layer metric: `(name, unit)`. Layers are module names.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.sources.emit_ns_per_batch", "ns"),
    ("workloads.sources.emit_ns_per_tuple", "ns"),
    ("engine.pump.cpu_share", "ratio"),
    ("engine.shard.cpu_share", "ratio"),
    ("core.coordinator.cpu_share", "ratio"),
    ("engine.shard.mailbox_ns_per_msg", "ns"),
    ("engine.node_state.enqueue_ns_per_batch", "ns"),
    ("core.stw.stamp_ns_per_batch", "ns"),
    ("engine.node_state.tick_ns_per_call", "ns"),
    ("engine.node_state.tick_ns_per_tuple", "ns"),
    ("engine.node_state.ticks", "count"),
    ("engine.node_state.late_tick_fraction", "ratio"),
    ("core.shedder.select_ns_per_call", "ns"),
    ("core.shedder.select_ns_per_candidate", "ns"),
    ("core.shedder.invocations", "count"),
    ("query.runtime.ingest_ns_per_tuple", "ns"),
    ("operators.window.push_ns_per_tuple", "ns"),
    ("operators.window.close_ns_per_pane", "ns"),
    ("operators.kernels.ns_per_row", "ns"),
    ("core.batch.pool_reuse_fraction", "ratio"),
    ("core.batch.allocs_per_tuple", "ratio"),
    ("core.coordinator.tick_ns_per_query", "ns"),
    ("core.coordinator.msgs_per_s", "1/s"),
    ("query.spec.compile_us_per_query", "us"),
    ("query.placement.place_us_per_query", "us"),
    ("net.codec.encode_ns_per_tuple", "ns"),
    ("net.codec.decode_ns_per_tuple", "ns"),
    ("net.codec.bytes_per_tuple", "B"),
    ("net.transport.send_ns_per_batch", "ns"),
    ("net.transport.shed_batches", "count"),
    ("net.listener.cpu_share", "ratio"),
    ("core.wal.checkpoint_ms", "ms"),
    ("core.wal.bytes_per_checkpoint", "B"),
    ("core.wal.append_ns_per_delta", "ns"),
    ("core.wal.restore_ms", "ms"),
    ("sim.tick_ns_per_tuple", "ns"),
    ("sim.events_per_s", "1/s"),
    ("engine.drain_s", "s"),
    ("generator.cpu_s", "s"),
    ("generator.delivered_fraction", "ratio"),
    ("replay.ns_per_tuple", "ns"),
    ("replay.unattributed_share", "ratio"),
    ("replay.batches", "count"),
    ("replay.tuples", "count"),
    ("replay.shed_tuples", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.thread_cpu_coverage", "ratio"),
];

/// Run length the driver passes as `--seconds` (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;
