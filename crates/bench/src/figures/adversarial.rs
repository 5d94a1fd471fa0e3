//! Adversarial tick-gaming: can a strategic source inflate its SIC share
//! by phase-locking its bursts against the shedding tick?
//!
//! The strategic source ([`RatePattern::Adversarial`]) emits its entire
//! per-tick volume in the first beat after each tick boundary and stays
//! silent for the rest — identical long-run demand to an honest steady
//! source, but by the time the next shedding tick fires, its batches are
//! the **oldest** in the buffer. Age-ordered policies (`fifo`) keep
//! exactly those; id-ordered ones (`priority`) favour it because it
//! registered first. A SIC-balancing shedder should not care *when* the
//! tuples arrived — only what information survives per source — so under
//! the `balance-sic` family the strategic source's advantage over its
//! honest peers must stay within [`ADVERSARIAL_EPSILON`].
//!
//! The experiment runs one overloaded node (strategic query attached
//! first, 7 honest peers at the same mean rate, capacity at half the
//! demand) under **every registered policy**: the SIC-aware rows are the
//! gate, the rest are documentation of how much a timing attack extracts
//! from timing-sensitive baselines. [`claims`] holds every `balance-sic*`
//! row to epsilon, and `tests/integration_adversarial.rs` runs the same
//! attack through [`run_policy`].

use std::time::Duration;

use themis_core::fairness::mean;
use themis_core::prelude::*;
use themis_core::shedder::{registered_policies, Policy};
use themis_engine::prelude::*;
use themis_query::prelude::Template;
use themis_workloads::prelude::*;

use crate::table::{f, Claim, TextTable};

/// Maximum tolerated SIC advantage of the strategic source over the mean
/// of its honest peers, under the SIC-aware (`balance-sic*`) policies.
pub const ADVERSARIAL_EPSILON: f64 = 0.15;

/// One policy's outcome under the attack.
#[derive(Debug, Default)]
pub struct AdversarialRow {
    /// Policy name (registry key).
    pub policy: String,
    /// Whether the policy sheds on SIC (the `balance-sic` family) — the
    /// rows the gate asserts on.
    pub sic_aware: bool,
    /// Mean sampled SIC of the strategic query.
    pub strategic_sic: f64,
    /// Mean of the honest queries' mean SICs.
    pub honest_mean_sic: f64,
    /// Jain's index over the honest peers.
    pub honest_jain: f64,
    /// How many honest queries the run reported a SIC for: a starved
    /// query must show up with SIC 0, not vanish from the report.
    pub honest_reported: usize,
    /// Fraction of arrived tuples shed.
    pub shed_fraction: f64,
}

impl AdversarialRow {
    /// The strategic source's relative SIC advantage over its peers
    /// (0 = perfectly fair, 1 = double the honest share).
    pub fn advantage(&self) -> f64 {
        if self.honest_mean_sic <= 0.0 {
            return if self.strategic_sic > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        (self.strategic_sic - self.honest_mean_sic) / self.honest_mean_sic
    }
}

/// Outcome across all registered policies.
#[derive(Debug, Default)]
pub struct AdversarialOutcome {
    /// Honest peers per run.
    pub honest: usize,
    /// Per-source mean rate (strategic and honest alike), t/s.
    pub rate_tps: u32,
    /// Enforced node capacity, t/s (half the demand).
    pub capacity_tps: u32,
    /// The shedding tick the strategic source phase-locks against.
    pub tick_ms: u64,
    /// One row per policy.
    pub rows: Vec<AdversarialRow>,
}

/// The gate: every SIC-aware row holds the strategic source within
/// epsilon, on a genuinely overloaded node. Baseline rows are documented,
/// not asserted.
pub fn claims(out: &AdversarialOutcome) -> Vec<Claim> {
    out.rows
        .iter()
        .filter(|r| r.sic_aware)
        .flat_map(|r| {
            [
                Claim::at_most(
                    format!("{}.advantage", r.policy),
                    r.advantage(),
                    ADVERSARIAL_EPSILON,
                ),
                Claim::above(format!("{}.shed_fraction", r.policy), r.shed_fraction, 0.1),
            ]
        })
        .collect()
}

/// Runs the attack under one policy for `secs` measured seconds (at
/// least 2, after warm-up) and measures the strategic share.
pub fn run_policy(policy: Policy, secs: u64, seed: u64) -> AdversarialRow {
    let honest = 7usize;
    let rate = 200u32;
    let tick = TimeDelta::from_millis(250);
    // 20 batches/s: the 50 ms emission interval divides the 250 ms tick,
    // so the adversarial mean factor is exactly 1 (honest-looking).
    let strategic_profile = SourceProfile::steady(rate, 20, Dataset::Uniform)
        .with_pattern(RatePattern::Adversarial { tick });
    let honest_profile = SourceProfile::steady(rate, 20, Dataset::Uniform);
    let stw = TimeDelta::from_secs(2);
    let warmup = TimeDelta::from_micros(stw.as_micros() + 500_000);
    // Capacity at half the declared demand: every tick must shed ~50%.
    let capacity = (honest + 1) as u32 * rate / 2;

    let scenario = ScenarioBuilder::new("adversarial", seed)
        .nodes(1)
        .capacity_tps(capacity)
        .shedding_interval(tick)
        .stw_window(stw)
        .warmup(warmup)
        // Attached first: QueryId 0, the most favourable spot an
        // id-ordered baseline can hand the attacker.
        .add_queries(Template::Avg, 1, strategic_profile)
        .add_queries(Template::Avg, honest, honest_profile)
        .build()
        .expect("placement");
    let strategic = scenario.queries[0].id;

    let mut engine = Engine::start(
        &scenario,
        EngineConfig {
            policy,
            enforce_capacity: true,
            ..Default::default()
        },
    );
    engine.run_for(Duration::from_micros(warmup.as_micros()));
    engine.run_for(Duration::from_secs(secs.max(2)));
    let report = engine.finish();

    let strategic_sic = report
        .per_query_sic
        .iter()
        .find(|&&(q, _)| q == strategic)
        .map(|&(_, s)| s)
        .unwrap_or(0.0);
    let honest_sics: Vec<f64> = report
        .per_query_sic
        .iter()
        .filter(|&&(q, _)| q != strategic)
        .map(|&(_, s)| s)
        .collect();

    AdversarialRow {
        sic_aware: report.policy.starts_with("balance-sic"),
        policy: report.policy.clone(),
        strategic_sic,
        honest_mean_sic: mean(&honest_sics),
        honest_jain: jain_index(&honest_sics),
        honest_reported: honest_sics.len(),
        shed_fraction: report.shed_fraction(),
    }
}

/// Runs the attack under every registered policy.
pub fn adversarial(secs: u64, seed: u64) -> AdversarialOutcome {
    let rows = registered_policies()
        .into_iter()
        .map(|p| run_policy(p, secs, seed))
        .collect();
    AdversarialOutcome {
        honest: 7,
        rate_tps: 200,
        capacity_tps: 8 * 200 / 2,
        tick_ms: 250,
        rows,
    }
}

/// Renders the per-policy attack table.
pub fn render(out: &AdversarialOutcome) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Adversarial tick-gaming: 1 strategic + {} honest at {} t/s, capacity {} t/s, tick {} ms",
            out.honest, out.rate_tps, out.capacity_tps, out.tick_ms
        ),
        &[
            "policy",
            "strategic-sic",
            "honest-mean-sic",
            "advantage",
            "honest-jain",
            "shed",
        ],
    );
    for r in &out.rows {
        t.row(vec![
            r.policy.clone(),
            f(r.strategic_sic),
            f(r.honest_mean_sic),
            format!("{:+.1}%", r.advantage() * 100.0),
            f(r.honest_jain),
            format!("{:.1}%", r.shed_fraction * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(policy: &str, strategic_sic: f64, shed_fraction: f64) -> AdversarialRow {
        AdversarialRow {
            policy: policy.to_string(),
            sic_aware: policy.starts_with("balance-sic"),
            strategic_sic,
            honest_mean_sic: 1.0,
            shed_fraction,
            ..Default::default()
        }
    }

    fn passes(rows: Vec<AdversarialRow>) -> bool {
        let out = AdversarialOutcome {
            rows,
            ..Default::default()
        };
        claims(&out).iter().all(|c| c.holds)
    }

    #[test]
    fn gate_boundaries() {
        let edge = 1.0 + ADVERSARIAL_EPSILON;
        assert!(passes(vec![row("balance-sic", edge - 1e-6, 0.5)]));
        assert!(!passes(vec![row("balance-sic", edge + 1e-6, 0.5)]));
        assert!(passes(vec![row("balance-sic", 1.0, 0.1 + 1e-9)]));
        assert!(!passes(vec![row("balance-sic", 1.0, 0.1)]));
        // Only the balance-sic family is asserted; baselines are documented.
        let lowest = "balance-sic-lowest-first";
        assert!(passes(vec![row(lowest, 1.0, 0.5), row("fifo", 3.0, 0.5)]));
        assert!(!passes(vec![
            row("fifo", 1.0, 0.5),
            row(lowest, edge + 1e-6, 0.5)
        ]));
        // Honest peers keeping nothing: an infinite advantage fails.
        let mut starved = row("balance-sic", 0.5, 0.5);
        starved.honest_mean_sic = 0.0;
        assert!(!passes(vec![starved]));
    }
}
