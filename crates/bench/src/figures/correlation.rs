//! §7.1 — SIC correlation with result correctness (Figures 6 and 7).
//!
//! For each query type and dataset, a single node runs an increasing
//! number of identical queries under *random* shedding (as in the paper),
//! and the same runs are repeated with unbounded capacity to obtain the
//! perfect results. The per-run mean SIC is plotted against the error
//! between degraded and perfect result series.

use std::collections::BTreeMap;

use themis_core::metrics::{kendall_top_k, mean_absolute_error, std_around};
use themis_core::prelude::*;
use themis_query::prelude::*;
use themis_sim::prelude::*;
use themis_workloads::prelude::*;

use crate::scenarios::Scale;
use crate::table::{f, TextTable};

/// Query types of the correlation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrelationQuery {
    /// Figure 6a.
    Avg,
    /// Figure 6b.
    Count,
    /// Figure 6c.
    Max,
    /// Figure 7a (Kendall distance).
    Top5,
    /// Figure 7b (std of sampled covariance).
    Cov,
}

impl CorrelationQuery {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CorrelationQuery::Avg => "AVG",
            CorrelationQuery::Count => "COUNT",
            CorrelationQuery::Max => "MAX",
            CorrelationQuery::Top5 => "TOP-5",
            CorrelationQuery::Cov => "COV",
        }
    }

    fn template(&self) -> Template {
        match self {
            CorrelationQuery::Avg => Template::Avg,
            CorrelationQuery::Count => Template::Count,
            CorrelationQuery::Max => Template::Max,
            CorrelationQuery::Top5 => Template::Top5 { fragments: 1 },
            CorrelationQuery::Cov => Template::Cov { fragments: 1 },
        }
    }

    /// Per-query source demand at 40 t/s per source.
    fn capacity_for_two_queries(&self) -> u32 {
        match self {
            CorrelationQuery::Top5 => 2 * 20 * 40,
            CorrelationQuery::Cov => 2 * 2 * 40,
            _ => 2 * 40,
        }
    }
}

/// One measured point of the correlation figures.
#[derive(Debug, Clone)]
pub struct CorrelationPoint {
    /// Dataset series.
    pub dataset: &'static str,
    /// Number of co-located queries (the overload knob).
    pub queries: usize,
    /// Measured mean result SIC.
    pub sic: f64,
    /// Error metric (MAE, Kendall distance, or covariance std).
    pub error: f64,
}

fn build_scenario(
    q: CorrelationQuery,
    dataset: Dataset,
    count: usize,
    capacity: u32,
    scale: &Scale,
    seed: u64,
) -> Scenario {
    ScenarioBuilder::new(format!("fig67-{}-{}", q.name(), dataset.name()), seed)
        .nodes(1)
        .capacity_tps(capacity)
        .duration(scale.duration)
        .warmup(scale.warmup)
        .add_queries(q.template(), count, SourceProfile::steady(40, 4, dataset))
        .build()
        .expect("single-node placement always succeeds")
}

/// Result series keyed by emission timestamp; duplicate window emissions
/// keep the first.
fn series(report: &SimReport, q: QueryId) -> BTreeMap<u64, Vec<Row>> {
    let mut out = BTreeMap::new();
    if let Some(records) = report.results.get(&q) {
        for (ts, rows) in records {
            out.entry(ts.as_micros()).or_insert_with(|| rows.clone());
        }
    }
    out
}

fn error_between(
    q: CorrelationQuery,
    perfect: &SimReport,
    degraded: &SimReport,
    queries: &[QueryId],
) -> f64 {
    match q {
        CorrelationQuery::Avg | CorrelationQuery::Count | CorrelationQuery::Max => {
            let mut p = Vec::new();
            let mut d = Vec::new();
            for &qid in queries {
                let ps = series(perfect, qid);
                let ds = series(degraded, qid);
                for (ts, rows) in &ds {
                    if let Some(prows) = ps.get(ts) {
                        if let (Some(pv), Some(dv)) = (
                            prows.first().and_then(|r| r.first()),
                            rows.first().and_then(|r| r.first()),
                        ) {
                            p.push(pv.as_f64());
                            d.push(dv.as_f64());
                        }
                    }
                }
            }
            mean_absolute_error(&p, &d)
        }
        CorrelationQuery::Top5 => {
            let mut total = 0.0;
            let mut n = 0usize;
            for &qid in queries {
                let ps = series(perfect, qid);
                let ds = series(degraded, qid);
                for (ts, rows) in &ds {
                    if let Some(prows) = ps.get(ts) {
                        let pid: Vec<i64> = prows.iter().map(|r| r[0].as_i64()).collect();
                        let did: Vec<i64> = rows.iter().map(|r| r[0].as_i64()).collect();
                        total += kendall_top_k(&pid, &did);
                        n += 1;
                    }
                }
            }
            if n == 0 {
                1.0
            } else {
                total / n as f64
            }
        }
        CorrelationQuery::Cov => {
            // Std of degraded covariance samples around the perfect mean.
            let mut perfect_vals = Vec::new();
            let mut degraded_vals = Vec::new();
            for &qid in queries {
                for rows in series(perfect, qid).values() {
                    if let Some(v) = rows.first().and_then(|r| r.first()) {
                        perfect_vals.push(v.as_f64());
                    }
                }
                for rows in series(degraded, qid).values() {
                    if let Some(v) = rows.first().and_then(|r| r.first()) {
                        degraded_vals.push(v.as_f64());
                    }
                }
            }
            if perfect_vals.is_empty() {
                return 0.0;
            }
            let pm = perfect_vals.iter().sum::<f64>() / perfect_vals.len() as f64;
            std_around(&degraded_vals, pm)
        }
    }
}

/// Runs the correlation study for one query type over all five datasets.
pub fn correlation(q: CorrelationQuery, scale: &Scale, seed: u64) -> Vec<CorrelationPoint> {
    let counts = [2usize, 3, 4, 6, 10, 16];
    let capacity = q.capacity_for_two_queries();
    let mut cfg = SimConfig::with_policy(lookup_policy("random").expect("builtin policy"));
    cfg.record_results = true;
    let mut points = Vec::new();
    for dataset in Dataset::ALL {
        for &count in &counts {
            let scn = build_scenario(q, dataset, count, capacity, scale, seed);
            let queries: Vec<QueryId> = scn.queries.iter().map(|x| x.id).collect();
            let degraded = run_scenario(scn, cfg.clone());
            let perfect_scn = build_scenario(q, dataset, count, 1_000_000, scale, seed);
            let perfect = run_scenario(perfect_scn, cfg.clone());
            let error = error_between(q, &perfect, &degraded, &queries);
            points.push(CorrelationPoint {
                dataset: dataset.name(),
                queries: count,
                sic: degraded.mean_sic(),
                error,
            });
        }
    }
    points
}

/// Renders the points as a figure table.
pub fn render(q: CorrelationQuery, points: &[CorrelationPoint]) -> TextTable {
    let metric = match q {
        CorrelationQuery::Top5 => "kendall",
        CorrelationQuery::Cov => "cov-std",
        _ => "mean-abs-err",
    };
    let mut t = TextTable::new(
        format!("{} SIC correlation ({metric} vs SIC)", q.name()),
        &["dataset", "queries", "sic", metric],
    );
    for p in points {
        t.row(vec![
            p.dataset.to_string(),
            p.queries.to_string(),
            f(p.sic),
            f(p.error),
        ]);
    }
    t
}
