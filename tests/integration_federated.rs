//! Cross-process federation: real source processes over loopback TCP
//! against a live engine.
//!
//! The test binary re-executes itself as the source-pump child (the
//! [`source_pump_child_mode`] "test" is a no-op unless `THEMIS_PUMP_ARGS`
//! is set), so the pump really runs in a separate process with its own
//! scheduler, allocator and sockets — the thing the in-process tests
//! cannot pin. Two properties are pinned here:
//!
//! * **parity** — two source processes collectively reproduce the
//!   in-process control's resident SIC within a loose tolerance (the
//!   strict 2% gate over all six policies is the `experiments --
//!   federated` benchmark; this tier-1 test only has to catch transport
//!   that drops, duplicates or mis-routes load);
//! * **survival** — killing one source process mid-run leaves the
//!   engine serving the survivors: the run finishes cleanly, results
//!   keep flowing, and the dead peer is recorded in
//!   [`EngineReport::errors`] instead of panicking anything.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use themis::engine::prelude::EngineError;
use themis::prelude::*;
use themis::workloads::remote::{build_federated_scenario, pump_main, FederatedParams, PumpArgs};

/// Child-process hook: when `THEMIS_PUMP_ARGS` is set this "test" runs a
/// remote source pump to completion and the surrounding harness exit
/// code reports its success. Without the variable it does nothing, so
/// ordinary test runs see an instant pass.
#[test]
fn source_pump_child_mode() {
    let Ok(raw) = std::env::var("THEMIS_PUMP_ARGS") else {
        return;
    };
    let args: Vec<String> = raw.split_whitespace().map(str::to_string).collect();
    match pump_main(&args) {
        Ok(stats) => eprintln!(
            "pump child: emitted {} sent {} shed {}",
            stats.emitted_batches, stats.sent_batches, stats.shed_batches
        ),
        Err(e) => panic!("pump child failed: {e}"),
    }
}

/// A quick federated scenario: 8 queries on 2 nodes at 1.5× overload,
/// sized so one arm runs in about six seconds.
fn params() -> FederatedParams {
    FederatedParams {
        nodes: 2,
        queries: 8,
        warmup_ms: 2500,
        duration_ms: 3000,
        ..FederatedParams::default()
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        enforce_capacity: true,
        shards: Some(2),
        ..EngineConfig::default()
    }
}

fn spawn_pump(args: &PumpArgs) -> Child {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "source_pump_child_mode", "--nocapture"])
        .env("THEMIS_PUMP_ARGS", args.to_args().join(" "))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("re-exec test binary as source pump")
}

fn reap(mut child: Child, label: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{label} hung past shutdown");
            }
        }
    }
}

/// Runs the federated arm with `parts` source processes; when
/// `kill_first`, source process 0 is killed halfway through the measured
/// window. Returns the engine report.
fn run_federated(p: &FederatedParams, parts: usize, kill_first: bool) -> EngineReport {
    let scenario = build_federated_scenario(p);
    let cfg = EngineConfig {
        ingest_listen: Some("127.0.0.1:0".to_string()),
        remote_sources: true,
        ..engine_config()
    };
    let mut engine = Engine::start(&scenario, cfg);
    let addr = engine
        .ingest_addr()
        .expect("ingest listener bound")
        .to_string();
    let start_unix_us = engine.epoch_unix_us();
    let pump = |part| PumpArgs {
        addr: addr.clone(),
        run_ms: p.warmup_ms + p.duration_ms,
        part,
        parts,
        peer: Some(format!("itest-pump-{part}")),
        start_unix_us: Some(start_unix_us),
        params: *p,
    };
    let mut children: Vec<Option<Child>> = (0..parts)
        .map(|part| Some(spawn_pump(&pump(part))))
        .collect();
    engine.run_for(Duration::from_millis(p.warmup_ms));
    if kill_first {
        engine.run_for(Duration::from_millis(p.duration_ms / 2));
        let mut victim = children[0].take().expect("victim spawned");
        victim.kill().expect("kill source process 0");
        let _ = victim.wait();
        engine.run_for(Duration::from_millis(p.duration_ms - p.duration_ms / 2));
    } else {
        engine.run_for(Duration::from_millis(p.duration_ms));
    }
    // Idle-wire tail: let the surviving children finish and say bye
    // without sampling the decaying windowed SIC.
    engine.pause_sampling();
    engine.run_for(Duration::from_millis(600));
    for (part, child) in children.into_iter().enumerate() {
        if let Some(child) = child {
            reap(child, &format!("source pump {part}"));
        }
    }
    engine.finish()
}

/// Two source processes over loopback reproduce the in-process SIC.
#[test]
fn federation_matches_in_process_control() {
    let p = params();
    let control = run_engine(&build_federated_scenario(&p), engine_config());
    assert!(control.fairness.mean > 0.0, "control produced no SIC");

    // Both arms are live wall-clock runs; one retry absorbs a scheduler
    // stall on small machines without masking a systematic gap.
    let mut last_diff = f64::INFINITY;
    for attempt in 0..2 {
        let fed = run_federated(&p, 2, false);
        assert!(
            fed.errors.is_empty(),
            "clean federation must report no errors: {:?}",
            fed.errors
        );
        assert!(fed.remote_batches > 0, "the wire carried no batches");
        assert_eq!(
            fed.remote_shed_batches, 0,
            "loopback at this rate must not shed on the link"
        );
        last_diff = (fed.fairness.mean - control.fairness.mean).abs() / control.fairness.mean;
        if last_diff <= 0.25 {
            return;
        }
        eprintln!("(attempt {attempt}: sic rel diff {last_diff:.3}; retrying)");
    }
    panic!("federated SIC diverged from in-process control by {last_diff:.3} (> 0.25)");
}

/// Killing a source process mid-run: the engine keeps serving the
/// survivors, shuts down cleanly, and records the dead peer.
#[test]
fn engine_survives_a_killed_source_process() {
    let p = params();
    let report = run_federated(&p, 2, true);

    assert!(
        report.remote_batches > 0,
        "survivors stopped feeding the engine"
    );
    assert!(
        report.fairness.mean > 0.0,
        "surviving sources must keep resident SIC alive"
    );
    // The kill must be *recorded*, not amplified: the dead peer shows up
    // as an ingest error and nothing else breaks.
    assert!(
        !report.errors.is_empty(),
        "a killed source process must be recorded in EngineReport::errors"
    );
    for e in &report.errors {
        match e {
            EngineError::Ingest { peer, detail } => {
                assert!(
                    peer.contains("itest-pump") || peer.contains("127.0.0.1"),
                    "ingest error should name the peer: {peer}: {detail}"
                );
            }
            other => panic!("only ingest errors are acceptable here, got {other}"),
        }
    }
}
