//! Remote source pump: drives a partition of a scenario's sources from a
//! *separate process* and ships their batches to an engine's ingest
//! listener over TCP.
//!
//! Determinism is the whole point: the partition keeps every `parts`-th
//! of the very bindings the engine's installer enumerates (queries in
//! scenario order, then [`crate::pump::query_bindings`], seeded by
//! [`crate::pump::source_seed`]), and paces them with the engine's own
//! [`SourcePump`] — so N source processes collectively emit the very
//! tuple streams the in-process pump would have, and the federated parity
//! gate compares like with like. Both sides rebuild the scenario from the
//! same parameters; nothing about placement or seeding crosses the wire.

use std::thread;
use std::time::{Duration, Instant};

use themis_core::prelude::Timestamp;
use themis_net::codec::{NetError, WireBatch};
use themis_net::transport::PeerSender;

use crate::datasets::Dataset;
use crate::pump::{scenario_bindings, SourceBinding, SourcePump};
use crate::scenario::{Scenario, ScenarioBuilder};
use crate::sources::SourceProfile;

pub use themis_net::transport::NetConfig;

/// Parameters of the canonical federated scenario. The engine process,
/// every source-pump process and the in-process control arm all call
/// [`build_federated_scenario`] with the *same* values, which is what
/// guarantees identical query ids, placements and source seeds across
/// process boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederatedParams {
    /// Scenario seed (drives placement and every source RNG).
    pub seed: u64,
    /// FSPS nodes.
    pub nodes: usize,
    /// Single-fragment `Avg` queries, placed round-robin.
    pub queries: usize,
    /// Per-source steady rate, tuples/second.
    pub rate_tps: u32,
    /// Emissions per second per source.
    pub batches_per_sec: u32,
    /// Declared per-node capacity, tuples/second (enforced in the
    /// engine, so overload is deterministic).
    pub capacity_tps: u32,
    /// SIC tracker window, milliseconds.
    pub stw_ms: u64,
    /// Warm-up before sampling, milliseconds.
    pub warmup_ms: u64,
    /// Measured duration, milliseconds.
    pub duration_ms: u64,
}

impl Default for FederatedParams {
    fn default() -> Self {
        FederatedParams {
            seed: 20160626,
            nodes: 4,
            queries: 12,
            rate_tps: 300,
            batches_per_sec: 30,
            capacity_tps: 600,
            stw_ms: 1500,
            warmup_ms: 2000,
            duration_ms: 4000,
        }
    }
}

/// Aggregation window of the federated scenario's queries. Much shorter
/// than the Table-1 second so each query lands several result records
/// per STW: the parity gate compares windowed result-SIC sums, and with
/// only one record per window a millisecond of transport skew could
/// swing a sample by a whole record. At 250 ms the comparison averages
/// over ~6 records per window and transport phase noise stays well
/// inside the gate's 2% tolerance.
pub const FEDERATED_WINDOW_MS: u64 = 250;

/// Builds the canonical federated scenario: `queries` steady short-window
/// `AVG` queries over `nodes` nodes at 1.5× default overload, uniform
/// data.
pub fn build_federated_scenario(p: &FederatedParams) -> Scenario {
    use themis_core::prelude::TimeDelta;
    use themis_query::prelude::{AggFunc, QueryDef, StreamDef};
    let query = QueryDef::aggregate(AggFunc::Avg, "value")
        .from_stream(StreamDef::new("src", 1))
        .named("AVG-fed")
        .window(TimeDelta::from_millis(FEDERATED_WINDOW_MS))
        .validate()
        .expect("federated query is valid by construction");
    ScenarioBuilder::new("federated", p.seed)
        .nodes(p.nodes)
        .capacity_tps(p.capacity_tps)
        .stw_window(TimeDelta::from_millis(p.stw_ms))
        .warmup(TimeDelta::from_millis(p.warmup_ms))
        .duration(TimeDelta::from_millis(p.duration_ms))
        .add_query_defs(
            &query,
            p.queries,
            SourceProfile::steady(p.rate_tps, p.batches_per_sec, Dataset::Uniform),
        )
        .build()
        .expect("valid federated scenario")
}

/// The `--key=value` command line of one source-pump process:
/// [`PumpArgs::parse`] reads it and [`PumpArgs::to_args`] writes it, so
/// whoever forks a pump and the pump itself agree on every flag.
/// `--addr` and `--run-ms` are required.
#[derive(Debug, Clone, PartialEq)]
pub struct PumpArgs {
    /// The engine's ingest listener, `HOST:PORT`.
    pub addr: String,
    /// Wall time to pump for, from the timeline epoch, in milliseconds.
    pub run_ms: u64,
    /// This process's partition of the scenario's sources.
    pub part: usize,
    /// Partitions in the federation.
    pub parts: usize,
    /// Name in the engine's error reports (default `source-pump-<part>`).
    pub peer: Option<String>,
    /// Shared timeline anchor, microseconds since the Unix epoch (see
    /// [`run_remote_sources`]).
    pub start_unix_us: Option<u64>,
    /// The canonical scenario every side rebuilds.
    pub params: FederatedParams,
}

impl PumpArgs {
    /// Parses the `--key=value` flags of a source-pump process.
    pub fn parse(args: &[String]) -> Result<PumpArgs, String> {
        let mut addr: Option<String> = None;
        let mut run_ms: Option<u64> = None;
        let (mut part, mut parts) = (0usize, 1usize);
        let mut peer: Option<String> = None;
        let mut start_unix_us: Option<u64> = None;
        let mut p = FederatedParams::default();
        for arg in args {
            let malformed = || format!("malformed pump flag {arg} (expected --key=value)");
            let (key, value) = arg.split_once('=').ok_or_else(malformed)?;
            let uint = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("flag {key} needs an unsigned integer, got {value}"))
            };
            match key {
                "--addr" => addr = Some(value.to_string()),
                "--peer" => peer = Some(value.to_string()),
                "--run-ms" => run_ms = Some(uint()?),
                "--part" => part = uint()? as usize,
                "--parts" => parts = (uint()? as usize).max(1),
                "--start-unix-us" => start_unix_us = Some(uint()?),
                "--seed" => p.seed = uint()?,
                "--nodes" => p.nodes = uint()? as usize,
                "--queries" => p.queries = uint()? as usize,
                "--rate" => p.rate_tps = uint()? as u32,
                "--batches" => p.batches_per_sec = uint()? as u32,
                "--capacity" => p.capacity_tps = uint()? as u32,
                "--stw-ms" => p.stw_ms = uint()?,
                "--warmup-ms" => p.warmup_ms = uint()?,
                "--duration-ms" => p.duration_ms = uint()?,
                other => return Err(format!("unknown pump flag {other}")),
            }
        }
        if part >= parts {
            return Err(format!(
                "pump flag --part={part} is out of range for --parts={parts} \
                 (partitions are numbered 0..{parts})"
            ));
        }
        Ok(PumpArgs {
            addr: addr.ok_or("missing required pump flag --addr=HOST:PORT")?,
            run_ms: run_ms.ok_or("missing required pump flag --run-ms=N")?,
            part,
            parts,
            peer,
            start_unix_us,
            params: p,
        })
    }

    /// The flags [`PumpArgs::parse`] reads back as `self`.
    pub fn to_args(&self) -> Vec<String> {
        let p = &self.params;
        let mut args = vec![
            format!("--addr={}", self.addr),
            format!("--run-ms={}", self.run_ms),
            format!("--part={}", self.part),
            format!("--parts={}", self.parts),
        ];
        args.extend(self.peer.iter().map(|peer| format!("--peer={peer}")));
        args.extend(self.start_unix_us.map(|at| format!("--start-unix-us={at}")));
        args.extend([
            format!("--seed={}", p.seed),
            format!("--nodes={}", p.nodes),
            format!("--queries={}", p.queries),
            format!("--rate={}", p.rate_tps),
            format!("--batches={}", p.batches_per_sec),
            format!("--capacity={}", p.capacity_tps),
            format!("--stw-ms={}", p.stw_ms),
            format!("--warmup-ms={}", p.warmup_ms),
            format!("--duration-ms={}", p.duration_ms),
        ]);
        args
    }
}

/// Parses a source-pump command line ([`PumpArgs`]) and runs the remote
/// pump to completion. Shared by the standalone `source-pump` binary and
/// the hidden child mode of the bench `experiments` binary, so a forked
/// child behaves identically whichever binary hosts it. The send queue
/// holds two shedding intervals of the partition's frames
/// ([`NetConfig::send_queue`], at least the default).
pub fn pump_main(args: &[String]) -> Result<RemotePumpStats, String> {
    let args = PumpArgs::parse(args)?;
    let scenario = build_federated_scenario(&args.params);
    let cfg = NetConfig {
        send_queue: send_queue_frames(&scenario, args.part, args.parts),
        ..NetConfig::default()
    };
    run_remote_sources(&scenario, &args, &cfg).map_err(|e| e.to_string())
}

/// Final accounting of one remote pump run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemotePumpStats {
    /// Batches the pump emitted, each handed to the send queue (quiet
    /// beats emit none).
    pub emitted_batches: u64,
    /// Batches actually written to the socket.
    pub sent_batches: u64,
    /// Batches shed oldest-first from the full send queue.
    pub shed_batches: u64,
}

/// Partition `part` of `parts`: every `parts`-th of the installer's
/// bindings, starting at `part`.
fn partition_sources(
    scenario: &Scenario,
    part: usize,
    parts: usize,
) -> impl Iterator<Item = SourceBinding> + '_ {
    scenario_bindings(scenario).skip(part).step_by(parts)
}

/// Frames the generator's send queue holds: everything partition `part`
/// emits in two shedding intervals, and never fewer than the transport
/// default. Sized in time, the queue rides out the same stall however
/// many sources the partition drives.
fn send_queue_frames(scenario: &Scenario, part: usize, parts: usize) -> usize {
    let per_sec: u64 = partition_sources(scenario, part, parts)
        .map(|b| u64::from(b.profile.batches_per_sec))
        .sum();
    let frames = per_sec * 2 * scenario.shedding_interval.as_micros() / 1_000_000;
    (frames as usize).max(NetConfig::default().send_queue)
}

/// Drives partition `args.part` of `args.parts` of the scenario's
/// sources against the engine ingest listener at `args.addr` for
/// `args.run_ms` of wall time (from the timeline epoch), then closes with
/// a bye carrying the exact sent/shed accounting. `args.peer` names this
/// process in the engine's error reports.
///
/// `args.start_unix_us`, when given, anchors the pump's timeline epoch to
/// a shared wall-clock instant — typically the moment the engine process
/// started. An anchor still in the future is slept to; one already in
/// the past back-dates the epoch and the drivers fast-forward over the
/// missed emissions. Either way every pump in a federation (and the
/// engine they feed) shares one schedule epoch, so the cross-partition
/// interleaving order-sensitive shedding policies see matches the
/// in-process pump's. Without an anchor the epoch is simply now.
///
/// The emission loop is the engine pump's: the same [`SourcePump`],
/// stepped on the wall clock, with a socket as its sink.
///
/// # Panics
///
/// Panics when `args.part >= args.parts` (that partition is empty).
pub fn run_remote_sources(
    scenario: &Scenario,
    args: &PumpArgs,
    cfg: &NetConfig,
) -> Result<RemotePumpStats, NetError> {
    let (part, parts) = (args.part, args.parts);
    assert!(part < parts, "partition {part} of {parts} is empty");
    let mut pump = SourcePump::default();
    pump.add(Timestamp::ZERO, partition_sources(scenario, part, parts));
    let peer = args
        .peer
        .clone()
        .unwrap_or_else(|| format!("source-pump-{part}"));
    let start_at = args
        .start_unix_us
        .map(|at| std::time::UNIX_EPOCH + Duration::from_micros(at));
    let link = PeerSender::connect(&args.addr, &peer, cfg)?;
    let epoch = match start_at {
        Some(target) => {
            while let Ok(rem) = target.duration_since(std::time::SystemTime::now()) {
                if rem.is_zero() {
                    break;
                }
                thread::sleep(rem.min(Duration::from_millis(5)));
            }
            // Back-date the epoch by however far past the anchor we are
            // (process spawn latency): the pump fast-forwards the drivers
            // straight onto the shared timeline.
            match std::time::SystemTime::now().duration_since(target) {
                Ok(behind) => Instant::now() - behind,
                Err(_) => Instant::now(),
            }
        }
        None => Instant::now(),
    };
    let deadline = epoch + Duration::from_millis(args.run_ms);
    let mut emitted = 0u64;
    loop {
        let now_wall = Instant::now();
        if now_wall >= deadline {
            break;
        }
        let now = Timestamp(now_wall.duration_since(epoch).as_micros() as u64);
        let next = pump.step(now, |node, rb| {
            emitted += 1;
            link.send_batch(&WireBatch {
                node: node as u32,
                query: rb.query,
                fragment: rb.fragment as u32,
                source: rb.batch.source().expect("pump batches carry their source"),
                created: rb.batch.created(),
                batch: rb.batch.into_data(),
            });
        });
        // Sleep until the next due emission (like the engine's own
        // pump), not a fixed poll beat: quantising emissions to a coarse
        // tick would shift batches across the engine's shedding-tick
        // boundaries relative to the in-process timeline.
        let next = next
            .map_or(deadline, |at| epoch + Duration::from_micros(at.as_micros()))
            .min(deadline);
        thread::sleep(next.saturating_duration_since(Instant::now()));
    }
    let send = link.close()?;
    Ok(RemotePumpStats {
        emitted_batches: emitted,
        sent_batches: send.sent_batches,
        shed_batches: send.shed_batches,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::pump::source_seed;
    use themis_core::prelude::{SourceId, TimeDelta};
    use themis_query::prelude::{Ingress, RoutedBatch, Template};

    fn scenario(seed: u64) -> Scenario {
        ScenarioBuilder::new("remote-test", seed)
            .nodes(2)
            .add_queries(
                Template::Avg,
                4,
                SourceProfile::steady(100, 10, Dataset::Uniform),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn partitions_cover_every_source_exactly_once() {
        let s = scenario(9);
        let total: usize = s.queries.iter().map(|q| q.sources.len()).sum();
        let parts = 3;
        let mut seen = 0usize;
        for p in 0..parts {
            seen += partition_sources(&s, p, parts).count();
        }
        assert_eq!(seen, total);
    }

    /// Per source: `(node, fragment, created, len, values)` of every
    /// batch that reached a sink, in emission order.
    type Streams = HashMap<SourceId, Vec<(usize, usize, Timestamp, usize, Vec<f64>)>>;

    fn record(streams: &mut Streams, node: usize, rb: RoutedBatch) {
        let Ingress::Source(source) = rb.ingress else {
            panic!("pump emitted a non-source batch");
        };
        let data = rb.batch.data();
        let value = data.schema().expect("typed source batch").len() - 1;
        let values = data.f64_column(value).expect("f64 value column").to_vec();
        streams.entry(source).or_default().push((
            node,
            rb.fragment,
            rb.batch.created(),
            rb.batch.len(),
            values,
        ));
    }

    /// The federation-parity property: on one virtual clock, the union
    /// of a 3-way partition emits exactly the per-source streams of one
    /// whole pump over the installer's bindings.
    #[test]
    fn partitions_together_emit_the_whole_pumps_streams() {
        let s = build_federated_scenario(&FederatedParams {
            nodes: 2,
            queries: 7,
            ..FederatedParams::default()
        });
        // Seeded by the formula `crates/sim/tests/golden.rs` pins.
        assert!(scenario_bindings(&s).all(|b| b.seed == source_seed(s.seed, b.spec.id)));
        let mut whole = SourcePump::default();
        whole.add(Timestamp::ZERO, scenario_bindings(&s));
        let mut parts: Vec<SourcePump> = (0..3)
            .map(|part| {
                let mut pump = SourcePump::default();
                pump.add(Timestamp::ZERO, partition_sources(&s, part, 3));
                pump
            })
            .collect();
        let (mut expected, mut federated) = (Streams::new(), Streams::new());
        let mut now = Timestamp::ZERO;
        while now <= Timestamp::from_secs(2) {
            whole.step(now, |node, rb| record(&mut expected, node, rb));
            for pump in &mut parts {
                pump.step(now, |node, rb| record(&mut federated, node, rb));
            }
            now += TimeDelta::from_millis(1);
        }
        assert_eq!(expected.len(), 7, "every source emitted");
        assert!(expected.values().all(|batches| batches.len() >= 59));
        assert_eq!(federated, expected);
    }

    #[test]
    fn an_out_of_range_partition_is_rejected() {
        let args: Vec<String> = ["--addr=127.0.0.1:9", "--run-ms=1", "--part=4", "--parts=4"]
            .map(String::from)
            .to_vec();
        let err = pump_main(&args).expect_err("partition 4 of 4 pumps nothing");
        assert!(
            err.contains("--part=4") && err.contains("--parts=4"),
            "{err}"
        );
    }

    #[test]
    fn pump_args_round_trip_through_writer_and_parser() {
        // Every field off its default, so a field the writer drops, and
        // the parser then defaults, fails the comparison.
        let every = PumpArgs {
            addr: "10.0.0.2:9".to_string(),
            run_ms: 1,
            part: 2,
            parts: 3,
            peer: Some("pump-x".to_string()),
            start_unix_us: Some(1_700_000_000_000_000),
            params: FederatedParams {
                seed: 7,
                nodes: 5,
                queries: 11,
                rate_tps: 13,
                batches_per_sec: 17,
                capacity_tps: 19,
                stw_ms: 23,
                warmup_ms: 29,
                duration_ms: 31,
            },
        };
        assert_eq!(PumpArgs::parse(&every.to_args()), Ok(every));
    }

    #[test]
    fn the_send_queue_holds_two_shedding_intervals() {
        // federated-durable: 640 sources × 10 batches/s × 2 × 250 ms.
        let durable = build_federated_scenario(&FederatedParams {
            queries: 640,
            rate_tps: 1_000,
            batches_per_sec: 10,
            ..FederatedParams::default()
        });
        assert_eq!(durable.shedding_interval, TimeDelta::from_millis(250));
        assert_eq!(send_queue_frames(&durable, 0, 1), 3_200);
        assert_eq!(send_queue_frames(&durable, 1, 2), 1_600);
        // The federated gate's 12 sources × 30 batches/s fill 180 frames
        // in two intervals: the 256-frame floor holds.
        let gate = build_federated_scenario(&FederatedParams::default());
        assert_eq!(send_queue_frames(&gate, 0, 1), 256);
    }
}
