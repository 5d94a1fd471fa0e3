//! Property-based tests over the programmable rate patterns: every
//! [`RatePattern`] realises its declared long-run mean rate under seeded
//! [`SourceDriver`] runs, and pattern state is exactly reproducible for a
//! fixed seed.

use proptest::prelude::*;

use themis_core::prelude::*;
use themis_query::prelude::{SourceKind, SourceSpec};
use themis_workloads::prelude::*;

fn spec() -> SourceSpec {
    SourceSpec::plain(SourceId(1), None, SourceKind::Generic)
}

/// Strategy: any rate pattern with parameters in sane evaluation ranges.
/// Periods divide the 60 s measurement horizon so periodic patterns are
/// measured over whole cycles. Trace patterns register their (deduped)
/// factor sequence in the process-global registry; adversarial ticks are
/// multiples of 250 ms, so every driver interval used below divides them.
fn arb_pattern() -> impl Strategy<Value = RatePattern> {
    (
        0usize..5,
        (0.1f64..0.3, 2u32..8),
        prop::sample::select(vec![1u64, 2, 3, 4, 5, 6]),
        (0.0f64..1.2, 1.5f64..4.0),
    )
        .prop_map(
            |(kind, (fraction, factor), period_s, (trough, peak))| match kind {
                0 => RatePattern::Steady,
                1 => RatePattern::Bursty { fraction, factor },
                2 => RatePattern::FlashCrowd {
                    every: TimeDelta::from_secs(period_s.max(2)),
                    width: TimeDelta::from_millis(500),
                    magnitude: peak,
                },
                3 => {
                    // A short 1 s-beat trace whose cycle (2-6 beats)
                    // divides the 60 s horizon.
                    let len = (period_s as usize).clamp(2, 6);
                    let factors: Vec<f64> = (0..len)
                        .map(|i| trough + (peak - trough) * i as f64 / (len - 1) as f64)
                        .collect();
                    let trace =
                        TraceData::from_factors("proptest", TimeDelta::from_secs(1), factors)
                            .unwrap()
                            .register();
                    RatePattern::Trace { trace }
                }
                _ => RatePattern::Adversarial {
                    tick: TimeDelta::from_millis(250 * period_s),
                },
            },
        )
}

/// Tuples emitted per second, measured over `horizon` of driver virtual
/// time (the driver's clock is logical — no wall time passes).
fn measured_rate(profile: SourceProfile, seed: u64, horizon_secs: u64) -> f64 {
    let mut driver = SourceDriver::new(QueryId(0), &spec(), profile, seed);
    let horizon = Timestamp::from_secs(horizon_secs);
    let mut total = 0usize;
    while driver.next_time() < horizon {
        total += driver.emit().len();
    }
    total as f64 / horizon_secs as f64
}

proptest! {
    /// Every pattern's realised long-run rate matches the declared
    /// `mean_rate_tps()` within a per-pattern tolerance (stochastic
    /// patterns measure over a longer horizon).
    #[test]
    fn patterns_hit_their_declared_mean_rate(pattern in arb_pattern(), seed in 1u64..5000) {
        // 20 batches/s: a fine emission grid, so square-edged patterns
        // (Square duty cycles, flash spikes) quantise to within a few
        // percent even at 1 s periods.
        let profile = SourceProfile::steady(40, 20, Dataset::Uniform).with_pattern(pattern);
        let declared = profile.mean_rate_tps();
        // Bursty periods are independent coin flips: use a long horizon
        // and a wider band. The rest are deterministic up to batch-grid
        // discretisation.
        let (horizon, tolerance) = match pattern {
            RatePattern::Steady => (60, 0.02),
            RatePattern::Bursty { .. } => (600, 0.20),
            RatePattern::FlashCrowd { .. } => (60, 0.10),
            RatePattern::Trace { .. } => (60, 0.05),
            RatePattern::Adversarial { .. } => (60, 0.02),
        };
        let measured = measured_rate(profile, seed, horizon);
        prop_assert!(
            (measured - declared).abs() <= tolerance * declared.max(1.0),
            "pattern {pattern:?}: measured {measured:.2} t/s vs declared {declared:.2} t/s"
        );
    }

    /// Replay determinism: a fixed seed reproduces the exact batch
    /// sequence — sizes compared batch by batch (and full payload
    /// equality on top), for every pattern.
    #[test]
    fn fixed_seed_replays_exactly(pattern in arb_pattern(), seed in 1u64..5000) {
        let profile = SourceProfile::steady(40, 4, Dataset::Mixed).with_pattern(pattern);
        let mut a = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        let mut b = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        for i in 0..240 {
            let (ba, bb) = (a.emit(), b.emit());
            prop_assert_eq!(ba.len(), bb.len(), "batch {} size diverged", i);
            prop_assert_eq!(ba, bb, "batch {} payload diverged", i);
        }
    }

    /// The flash-crowd spike trace is itself deterministic and well
    /// formed: spikes stay inside their epoch, keep their width, and the
    /// same seed reproduces the same trace.
    #[test]
    fn flash_trace_is_seeded_and_well_formed(
        every_s in prop::sample::select(vec![2u64, 3, 4, 5, 8]),
        width_ms in 200u64..1500,
        seed in 1u64..5000,
    ) {
        let pattern = RatePattern::FlashCrowd {
            every: TimeDelta::from_secs(every_s),
            width: TimeDelta::from_millis(width_ms),
            magnitude: 5.0,
        };
        let horizon = TimeDelta::from_secs(40);
        let trace = pattern.flash_trace(seed, horizon);
        prop_assert_eq!(trace.len() as u64, 40_u64.div_ceil(every_s), "one spike per epoch");
        let width = TimeDelta::from_millis(width_ms.min(every_s * 1000));
        for (i, &(start, end)) in trace.iter().enumerate() {
            let epoch_start = Timestamp::from_secs(i as u64 * every_s);
            let epoch_end = Timestamp::from_secs((i as u64 + 1) * every_s);
            prop_assert!(start >= epoch_start && end <= epoch_end, "spike {i} leaves its epoch");
            prop_assert_eq!(end - start, width, "spike {} width", i);
        }
        prop_assert_eq!(trace, pattern.flash_trace(seed, horizon), "same seed, same trace");
    }

    /// Trace replay realises the trace's declared `mean_factor()` over
    /// whole cycles, for arbitrary factor sequences.
    #[test]
    fn trace_replay_realises_the_declared_mean(
        factors in prop::collection::vec(0.1f64..4.0, 2..8),
        beat_ms in prop::sample::select(vec![250u64, 500, 1000]),
        seed in 1u64..5000,
    ) {
        let data = TraceData::from_factors(
            "proptest-mean", TimeDelta::from_millis(beat_ms), factors,
        ).unwrap();
        let declared_factor = data.mean_factor();
        let cycle = data.cycle();
        let trace = data.register();
        let pattern = RatePattern::Trace { trace };
        prop_assert!((pattern.mean_factor() - declared_factor).abs() < 1e-12);
        let profile = SourceProfile::steady(40, 20, Dataset::Uniform).with_pattern(pattern);
        // Measure over a whole number of cycles (≥ 30 s worth).
        let cycles = 30_000_000_u64.div_ceil(cycle.as_micros());
        let horizon_secs = cycles * cycle.as_micros() / 1_000_000;
        let measured = measured_rate(profile, seed, horizon_secs.max(1));
        let declared = profile.mean_rate_tps();
        prop_assert!(
            (measured - declared).abs() <= 0.05 * declared.max(1.0),
            "trace factors {:?}: measured {measured:.2} t/s vs declared {declared:.2} t/s",
            trace.data().factors()
        );
    }

    /// Same file + same seed → bit-identical replay: parsing the same
    /// CSV text twice yields the same registered trace, and two drivers
    /// over it emit identical batch sequences.
    #[test]
    fn same_file_same_seed_replays_bit_identically(
        factors in prop::collection::vec(0.1f64..4.0, 2..8),
        seed in 1u64..5000,
    ) {
        let csv: String = std::iter::once("time_s,factor".to_string())
            .chain(factors.iter().enumerate().map(|(i, f)| format!("{i}.0,{f}")))
            .collect::<Vec<_>>()
            .join("\n");
        let ta = TraceData::parse_csv("replay", &csv).unwrap().register();
        let tb = TraceData::parse_csv("replay", &csv).unwrap().register();
        prop_assert_eq!(ta, tb, "identical content interns to one registry entry");
        let profile = SourceProfile::steady(40, 4, Dataset::Mixed)
            .with_pattern(RatePattern::Trace { trace: ta });
        let mut a = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        let mut b = SourceDriver::new(QueryId(0), &spec(), profile, seed);
        for i in 0..120 {
            let (ba, bb) = (a.emit(), b.emit());
            prop_assert_eq!(ba.len(), bb.len(), "batch {} size diverged", i);
            prop_assert_eq!(ba, bb, "batch {} payload diverged", i);
        }
    }
}
