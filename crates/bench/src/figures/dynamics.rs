//! Extension experiment: query churn. §5 notes that converged SIC values
//! depend on "often time-changing factors such as queries' arrivals and
//! departures"; this experiment shows BALANCE-SIC re-converging when a
//! cohort of queries joins mid-run and again when it leaves.
//!
//! This is the *simulator* (model-time) churn run; the wall-clock engine
//! analogue at 512+ nodes is [`crate::figures::churn`].

use themis_core::fairness::mean;
use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

use crate::scenarios::Scale;
use crate::table::{f, TextTable};

/// One sampled instant of the churn run.
#[derive(Debug, Clone)]
pub struct DynamicsPoint {
    /// Sample time (seconds).
    pub t_secs: f64,
    /// Mean SIC of the always-on cohort.
    pub resident_mean: f64,
    /// Mean SIC of the arriving/departing cohort (0 while inactive).
    pub churn_mean: f64,
    /// Jain's index across all *active* queries.
    pub jain_active: f64,
}

/// Runs the churn scenario: `n_resident` queries run throughout; an equal
/// cohort arrives at 1/3 of the run and departs at 2/3.
pub fn dynamics(scale: &Scale, seed: u64) -> (Vec<DynamicsPoint>, Timestamp, Timestamp) {
    let n_resident = scale.n(12);
    let total = scale.warmup + scale.duration;
    let arrive = TimeDelta::from_micros(total.as_micros() / 3);
    let depart = TimeDelta::from_micros(2 * total.as_micros() / 3);
    let profile = SourceProfile::steady(scale.tuples_per_sec.max(20), 4, Dataset::Uniform);
    // Capacity sized so residents alone are at ~1.5x overload and the
    // arrival pushes the system to ~3x.
    let demand_resident = n_resident as f64 * 4.0 * profile.tuples_per_sec as f64;
    let capacity = (demand_resident / 2.0 / 1.5) as u32;
    let scenario = ScenarioBuilder::new("dynamics", seed)
        .nodes(2)
        .capacity_tps(capacity)
        .duration(scale.duration)
        .warmup(scale.warmup)
        .add_queries(Template::Cov { fragments: 2 }, n_resident, profile)
        .add_queries_with_lifetime(
            Template::Cov { fragments: 2 },
            n_resident,
            profile,
            arrive,
            Some(depart),
        )
        .build()
        .expect("placement");

    let resident: Vec<QueryId> = (0..n_resident as u32).map(QueryId).collect();
    let churn: Vec<QueryId> = (n_resident as u32..2 * n_resident as u32)
        .map(QueryId)
        .collect();

    let cfg = SimConfig {
        record_series: true,
        ..Default::default()
    };
    let lifetimes = scenario.lifetimes.clone();
    let report = run_scenario(scenario, cfg);

    // Re-shape the per-query series into cohort means per sample instant.
    let sample_times: Vec<Timestamp> = report
        .sic_series
        .get(&resident[0])
        .map(|s| s.iter().map(|&(t, _)| t).collect())
        .unwrap_or_default();
    let mut points = Vec::new();
    for (i, &t) in sample_times.iter().enumerate() {
        let mean_of = |ids: &[QueryId]| -> f64 {
            let vals: Vec<f64> = ids
                .iter()
                .filter_map(|q| {
                    report
                        .sic_series
                        .get(q)
                        .and_then(|s| s.get(i))
                        .map(|&(_, v)| v)
                })
                .collect();
            mean(&vals)
        };
        let active: Vec<f64> = resident
            .iter()
            .map(|q| (q, true))
            .chain(churn.iter().map(|q| {
                let (s, e) = lifetimes[q];
                (q, t >= s && e.map(|e| t < e).unwrap_or(true))
            }))
            .filter(|&(_, a)| a)
            .filter_map(|(q, _)| {
                report
                    .sic_series
                    .get(q)
                    .and_then(|s| s.get(i))
                    .map(|&(_, v)| v)
            })
            .collect();
        points.push(DynamicsPoint {
            t_secs: t.as_secs_f64(),
            resident_mean: mean_of(&resident),
            churn_mean: mean_of(&churn),
            jain_active: jain_index(&active),
        });
    }
    (points, Timestamp::ZERO + arrive, Timestamp::ZERO + depart)
}

/// Renders the churn time series.
pub fn render(points: &[DynamicsPoint], arrive: Timestamp, depart: Timestamp) -> TextTable {
    let mut t = TextTable::new(
        format!(
            "Extension: query churn (cohort arrives {:.0}s, departs {:.0}s)",
            arrive.as_secs_f64(),
            depart.as_secs_f64()
        ),
        &["t", "resident-mean-sic", "churn-mean-sic", "jain(active)"],
    );
    for p in points {
        t.row(vec![
            format!("{:.1}s", p.t_secs),
            f(p.resident_mean),
            f(p.churn_mean),
            f(p.jain_active),
        ]);
    }
    t
}
