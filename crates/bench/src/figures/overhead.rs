//! §7.6 — the overhead of BALANCE-SIC shedding: mean shedder execution
//! time per invocation (fair vs random), batch-header bytes and
//! coordinator traffic. The coordinator feeds a node only once its
//! shedder has run, so the traffic is ∝ shedding hosts × their queries
//! per round; here every node is overloaded, so that is every host.

use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_workloads::prelude::*;

use crate::scenarios::complex_mix;
use crate::table::{f, TextTable};

/// Overhead measurements of one engine run.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Shedding policy.
    pub policy: String,
    /// Mean shedder execution time per invocation (µs).
    pub mean_shed_us: f64,
    /// Fraction of tuples shed.
    pub shed_fraction: f64,
    /// Coordinator SIC updates sent during the run, to nodes that had
    /// shed.
    pub coordinator_messages: u64,
    /// Coordinator bytes (30 B per message).
    pub coordinator_bytes: u64,
}

/// Builds the mixed-workload engine scenario used for the overhead
/// measurement. Wall-clock seconds, so keep `secs` small.
fn overhead_scenario(secs: u64, seed: u64) -> Scenario {
    let mut b = ScenarioBuilder::new("overhead", seed)
        .nodes(2)
        .capacity_tps(1_000_000)
        .duration(TimeDelta::from_secs(secs))
        .warmup(TimeDelta::from_secs(2))
        .stw_window(TimeDelta::from_secs(4));
    for i in 0..6usize {
        b = b.add_queries(
            complex_mix(2, i),
            1,
            SourceProfile::steady(200, 5, Dataset::Uniform),
        );
    }
    b.build().expect("placement")
}

/// Runs the §7.6 overhead comparison on the real engine: same workload,
/// fair vs random shedder, with a synthetic per-tuple cost that forces
/// constant overload.
pub fn overhead(secs: u64, seed: u64) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for policy in ["balance-sic", "random"] {
        let scn = overhead_scenario(secs, seed);
        let cfg = EngineConfig {
            policy: lookup_policy(policy).expect("builtin policy"),
            synthetic_cost: TimeDelta::from_micros(300),
            ..Default::default()
        };
        let report = run_engine(&scn, cfg);
        rows.push(OverheadRow {
            policy: report.policy.clone(),
            mean_shed_us: report.mean_shed_time_us(),
            shed_fraction: report.shed_fraction(),
            coordinator_messages: report.coordinator_messages,
            coordinator_bytes: report.coordinator_messages * SicUpdate::WIRE_BYTES as u64,
        });
    }
    rows
}

/// Renders the overhead table, including the static wire costs of §7.6.
pub fn render(rows: &[OverheadRow]) -> TextTable {
    let mut t = TextTable::new(
        "§7.6 shedder overhead (batch header: 10 B, SIC update: 30 B)",
        &[
            "policy",
            "shed-us/invocation",
            "shed-fraction",
            "coord-msgs",
            "coord-bytes",
        ],
    );
    for r in rows {
        t.row(vec![
            r.policy.to_string(),
            f(r.mean_shed_us),
            f(r.shed_fraction),
            r.coordinator_messages.to_string(),
            r.coordinator_bytes.to_string(),
        ]);
    }
    if rows.len() == 2 && rows[1].mean_shed_us > 0.0 {
        let ratio = rows[0].mean_shed_us / rows[1].mean_shed_us;
        t.row(vec![
            "overhead-ratio".into(),
            f(ratio),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}
