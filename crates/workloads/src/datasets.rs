//! Value distributions for source data (§7 "Experimental set-up").
//!
//! The paper's synthetic datasets follow gaussian, uniform or exponential
//! distributions with mean 50, plus a *mixed* set drawing from any of the
//! three. The real-world dataset is CPU/memory utilisation from PlanetLab
//! nodes (CoTop); since that trace is not distributable, we substitute a
//! regime-switching synthetic trace with drift, spikes and heavy tails that
//! reproduces the property the evaluation depends on: its AVG/MAX/COV
//! change when tuples are dropped, unlike the stationary synthetic sets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use themis_core::prelude::*;

/// The five dataset series of Figures 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Gaussian with mean 50 (std 15).
    Gaussian,
    /// Uniform on `[0, 100]` (mean 50).
    Uniform,
    /// Exponential with mean 50.
    Exponential,
    /// Per-tuple random choice among the three synthetic distributions.
    Mixed,
    /// PlanetLab-like regime-switching trace (non-stationary).
    PlanetLab,
}

impl Dataset {
    /// All five datasets, in the order the paper's figures list them.
    pub const ALL: [Dataset; 5] = [
        Dataset::Gaussian,
        Dataset::Uniform,
        Dataset::Exponential,
        Dataset::Mixed,
        Dataset::PlanetLab,
    ];

    /// Series label used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Gaussian => "gaussian",
            Dataset::Uniform => "uniform",
            Dataset::Exponential => "exponential",
            Dataset::Mixed => "mixed",
            Dataset::PlanetLab => "planetlab",
        }
    }
}

/// State of the PlanetLab-like trace generator.
#[derive(Debug, Clone)]
struct TraceState {
    /// Slowly drifting base level (random walk, reflected at the borders).
    base: f64,
    /// End of the current load spike, if any.
    spike_until: Timestamp,
    /// Spike multiplier while spiking.
    spike_level: f64,
    /// Last regime decision period.
    period: u64,
}

/// Stateful per-source value generator.
#[derive(Debug, Clone)]
pub struct ValueGen {
    dataset: Dataset,
    rng: SmallRng,
    trace: TraceState,
}

impl ValueGen {
    /// Creates a generator; every source gets its own seed so series are
    /// independent but reproducible.
    pub fn new(dataset: Dataset, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = 30.0 + rng.gen::<f64>() * 40.0;
        ValueGen {
            dataset,
            rng,
            trace: TraceState {
                base,
                spike_until: Timestamp::ZERO,
                spike_level: 1.0,
                period: 0,
            },
        }
    }

    fn gaussian(&mut self, mean: f64, std: f64) -> f64 {
        // Box-Muller.
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen();
        mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        -mean * u.ln()
    }

    fn planetlab(&mut self, now: Timestamp) -> f64 {
        // Re-evaluate the regime once per second of logical time.
        let period = now.as_micros() / 1_000_000;
        if period != self.trace.period {
            self.trace.period = period;
            // Random-walk drift of the base load, reflected into [5, 95].
            self.trace.base += self.gaussian(0.0, 4.0);
            if self.trace.base < 5.0 {
                self.trace.base = 10.0 - self.trace.base;
            }
            if self.trace.base > 95.0 {
                self.trace.base = 190.0 - self.trace.base;
            }
            // ~8% chance to enter a 2-5 s spike at 1.5-3x load.
            if now >= self.trace.spike_until && self.rng.gen::<f64>() < 0.08 {
                let secs = 2 + (self.rng.gen::<u64>() % 4);
                self.trace.spike_until = now + TimeDelta::from_secs(secs);
                self.trace.spike_level = 1.5 + 1.5 * self.rng.gen::<f64>();
            }
        }
        let spike = if now < self.trace.spike_until {
            self.trace.spike_level
        } else {
            1.0
        };
        // Heavy-ish tail: occasional large excursions.
        let noise = if self.rng.gen::<f64>() < 0.02 {
            self.exponential(20.0)
        } else {
            self.gaussian(0.0, 3.0)
        };
        (self.trace.base * spike + noise).clamp(0.0, 100.0)
    }

    /// Draws the next value at logical time `now`.
    pub fn value(&mut self, now: Timestamp) -> f64 {
        match self.dataset {
            Dataset::Gaussian => self.gaussian(50.0, 15.0),
            Dataset::Uniform => self.rng.gen::<f64>() * 100.0,
            Dataset::Exponential => self.exponential(50.0),
            Dataset::Mixed => match self.rng.gen_range(0..3) {
                0 => self.gaussian(50.0, 15.0),
                1 => self.rng.gen::<f64>() * 100.0,
                _ => self.exponential(50.0),
            },
            Dataset::PlanetLab => self.planetlab(now),
        }
    }

    /// Draws a value scaled for a free-memory source (KB around 200 MB with
    /// enough spread that the TOP-5 100 MB filter has realistic
    /// selectivity).
    pub fn mem_free_kb(&mut self, now: Timestamp) -> f64 {
        // Map the 0-100 "load" view onto free memory: high load = low mem.
        let load = self.value(now);
        ((100.0 - load) * 4_000.0).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(dataset: Dataset, n: usize) -> f64 {
        let mut gen = ValueGen::new(dataset, 42);
        let mut sum = 0.0;
        for i in 0..n {
            sum += gen.value(Timestamp::from_millis(i as u64 * 10));
        }
        sum / n as f64
    }

    #[test]
    fn synthetic_means_near_50() {
        for d in [
            Dataset::Gaussian,
            Dataset::Uniform,
            Dataset::Exponential,
            Dataset::Mixed,
        ] {
            let m = sample_mean(d, 20_000);
            assert!((m - 50.0).abs() < 3.0, "{}: mean {m}", d.name());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ValueGen::new(Dataset::Mixed, 7);
        let mut b = ValueGen::new(Dataset::Mixed, 7);
        for i in 0..100 {
            let t = Timestamp::from_millis(i * 5);
            assert_eq!(a.value(t), b.value(t));
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = ValueGen::new(Dataset::Gaussian, 1);
        let mut b = ValueGen::new(Dataset::Gaussian, 2);
        let va: Vec<f64> = (0..10).map(|_| a.value(Timestamp::ZERO)).collect();
        let vb: Vec<f64> = (0..10).map(|_| b.value(Timestamp::ZERO)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn planetlab_is_nonstationary() {
        // Mean over disjoint 30 s windows should vary much more than for
        // the stationary gaussian set.
        let window_means = |d: Dataset| -> f64 {
            let mut gen = ValueGen::new(d, 11);
            let mut means = Vec::new();
            for w in 0..20u64 {
                let mut sum = 0.0;
                for i in 0..300u64 {
                    sum += gen.value(Timestamp::from_millis(w * 30_000 + i * 100));
                }
                means.push(sum / 300.0);
            }
            let m = means.iter().sum::<f64>() / means.len() as f64;
            (means.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / means.len() as f64).sqrt()
        };
        let pl = window_means(Dataset::PlanetLab);
        let ga = window_means(Dataset::Gaussian);
        assert!(pl > 3.0 * ga, "planetlab std {pl} vs gaussian {ga}");
    }

    #[test]
    fn planetlab_values_in_range() {
        let mut gen = ValueGen::new(Dataset::PlanetLab, 3);
        for i in 0..10_000u64 {
            let v = gen.value(Timestamp::from_millis(i * 20));
            assert!((0.0..=100.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn mem_free_spans_the_filter_threshold() {
        let mut gen = ValueGen::new(Dataset::Uniform, 9);
        let vals: Vec<f64> = (0..1000)
            .map(|i| gen.mem_free_kb(Timestamp::from_millis(i * 10)))
            .collect();
        let above = vals.iter().filter(|&&v| v >= 100_000.0).count();
        // Uniform load: ~75% of readings pass the 100 MB filter.
        assert!(above > 500 && above < 1000, "above={above}");
    }

    #[test]
    fn exponential_is_positive_and_skewed() {
        let mut gen = ValueGen::new(Dataset::Exponential, 5);
        let vals: Vec<f64> = (0..5000).map(|_| gen.value(Timestamp::ZERO)).collect();
        assert!(vals.iter().all(|&v| v >= 0.0));
        let below_mean = vals.iter().filter(|&&v| v < 50.0).count();
        // Exponential: ~63% below the mean.
        assert!(below_mean > 2800 && below_mean < 3500, "{below_mean}");
    }
}
