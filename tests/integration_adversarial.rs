//! Regression: adversarial tick-gaming across the whole policy registry,
//! through the `experiments adversarial` figure's own per-policy run
//! ([`run_policy`]).
//!
//! One strategic source phase-locks its bursts against the shedding tick
//! ([`RatePattern::Adversarial`]): it dumps its entire per-tick volume in
//! the first emission beat after each tick boundary, so by the time the
//! next tick fires its batches are the oldest in the buffer. Long-run
//! demand is identical to its 7 honest steady peers. Under every
//! registered policy the run must complete and shed hard; for the
//! SIC-aware (`balance-sic*`) policies the strategic source's SIC
//! advantage over the honest mean must stay within
//! [`ADVERSARIAL_EPSILON`] — timing must buy it nothing. For the
//! timing-sensitive baselines (`fifo`, `priority`, `random`) the leak is
//! *documented* (printed, visible under `--nocapture`), not asserted: how
//! much an attacker extracts from them is an observation, not a contract.

use themis::prelude::*;
use themis_bench::figures::adversarial::{run_policy, ADVERSARIAL_EPSILON};

#[test]
fn tick_gaming_buys_nothing_under_sic_aware_policies() {
    for policy in registered_policies() {
        // Seed 42; 2.5 s warm-up (one STW plus half a second), then 3 s
        // measured.
        let row = run_policy(policy, 3, 42);
        let name = &row.policy;
        assert_eq!(
            row.honest_reported, 7,
            "{name}: every honest query reports a SIC"
        );

        // Every policy must face a genuinely overloaded node: capacity is
        // half the demand, so roughly every other tuple has to go.
        assert!(
            row.shed_fraction > 0.3,
            "{name}: the attack run must overload the node (shed {:.1}%)",
            row.shed_fraction * 100.0
        );
        assert!(
            row.strategic_sic > 0.0 && row.honest_mean_sic > 0.0,
            "{name}: both sides must retain some information"
        );

        let advantage = row.advantage();
        if row.sic_aware {
            assert!(
                advantage <= ADVERSARIAL_EPSILON,
                "{name}: strategic source extracted {:+.1}% over its honest peers \
                 (epsilon {:.0}%)",
                advantage * 100.0,
                ADVERSARIAL_EPSILON * 100.0
            );
            // The honest cohort must not pay for the defence unevenly.
            assert!(
                row.honest_jain > 0.9,
                "{name}: honest peers stay mutually fair (Jain {:.4})",
                row.honest_jain
            );
        } else {
            // Documented, not asserted: what a timing attack extracts
            // from timing-sensitive baselines.
            println!(
                "{name}: strategic advantage {advantage:+.1} \
                 (documented — non-SIC baselines make no fairness promise)",
            );
        }
    }
}
