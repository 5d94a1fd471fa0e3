//! One module per evaluation artefact (table or figure), each exposing a
//! data-producing function plus a text renderer so the binary and the
//! integration tests share one implementation.

use std::collections::HashMap;

use themis_core::fairness::mean;
use themis_core::prelude::{QueryId, Timestamp};

pub mod ablation;
pub mod adversarial;
pub mod churn;
pub mod correlated;
pub mod correlation;
pub mod dynamics;
pub mod fairness;
pub mod federated;
pub mod overhead;
pub mod parity;
pub mod queries;
pub mod recovery;
pub mod related;
pub mod scalability;
pub mod scale;
pub mod tables;
pub mod trace;

/// Mean per-query SIC over the series samples inside `[from, to)`, keyed
/// by query id; queries without samples in the window are skipped.
fn window_means(
    series: &HashMap<QueryId, Vec<(Timestamp, f64)>>,
    from: Timestamp,
    to: Timestamp,
) -> HashMap<QueryId, f64> {
    series
        .iter()
        .filter_map(|(&q, samples)| {
            let vals: Vec<f64> = samples
                .iter()
                .filter(|&&(t, _)| t >= from && t < to)
                .map(|&(_, v)| v)
                .collect();
            (!vals.is_empty()).then(|| (q, mean(&vals)))
        })
        .collect()
}
