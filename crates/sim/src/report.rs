//! Simulation reports: the per-query and per-node statistics every
//! evaluation figure is computed from.

use std::collections::HashMap;

use themis_core::prelude::*;

/// Final statistics of one query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// The query.
    pub query: QueryId,
    /// Template name (Table 1 row) or declarative query name.
    pub template: String,
    /// Number of fragments.
    pub fragments: usize,
    /// Mean result SIC over all post-warm-up samples.
    pub mean_sic: f64,
    /// Samples taken.
    pub samples: usize,
}

/// Per-node counters: the shared node's counters, under the simulator's
/// historical name.
pub use themis_query::node::NodeReport as NodeStats;

/// One recorded result emission: the rows a query reported at a timestamp.
pub type ResultRecord = (Timestamp, Vec<Row>);

/// Complete output of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scenario label.
    pub scenario: String,
    /// Shedding policy used (registry name).
    pub policy: String,
    /// Per-query statistics, ordered by query id.
    pub per_query: Vec<QueryStats>,
    /// Fairness summary over the per-query mean SIC values — the Jain's
    /// index / std / mean series plotted in Figures 8-14.
    pub fairness: FairnessSummary,
    /// Per-node counters.
    pub nodes: Vec<NodeStats>,
    /// Total coordinator messages (30 B each, §7.6).
    pub coordinator_messages: u64,
    /// Result values per query (only when `record_results`).
    pub results: HashMap<QueryId, Vec<ResultRecord>>,
    /// Per-query SIC time series (only when `record_series`).
    pub sic_series: HashMap<QueryId, Vec<(Timestamp, f64)>>,
}

impl SimReport {
    /// Coordinator traffic in bytes (§7.6: 30 B per update message).
    pub fn coordinator_bytes(&self) -> u64 {
        self.coordinator_messages * SicUpdate::WIRE_BYTES as u64
    }

    /// Mean SIC over queries.
    pub fn mean_sic(&self) -> f64 {
        self.fairness.mean
    }

    /// Jain's fairness index over per-query mean SIC values.
    pub fn jain(&self) -> f64 {
        self.fairness.jain
    }

    /// Fraction of arrived tuples that were shed, across all nodes.
    pub fn shed_fraction(&self) -> f64 {
        self.nodes.iter().sum::<NodeStats>().shed_fraction()
    }

    /// Mean SIC of a single query, if present.
    pub fn query_sic(&self, q: QueryId) -> Option<f64> {
        self.per_query
            .iter()
            .find(|s| s.query == q)
            .map(|s| s.mean_sic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_helpers() {
        let report = SimReport {
            scenario: "t".into(),
            policy: "balance-sic".to_string(),
            per_query: vec![QueryStats {
                query: QueryId(0),
                template: "AVG".to_string(),
                fragments: 1,
                mean_sic: 0.5,
                samples: 10,
            }],
            fairness: FairnessSummary::from_sics(&[Sic(0.5)]),
            nodes: vec![NodeStats {
                arrived_tuples: 100,
                kept_tuples: 60,
                shed_tuples: 40,
                shed_batches: 4,
                shed_invocations: 2,
                sic_updates: 8,
                ..Default::default()
            }],
            coordinator_messages: 10,
            results: HashMap::new(),
            sic_series: HashMap::new(),
        };
        assert_eq!(report.coordinator_bytes(), 300);
        assert_eq!(report.mean_sic(), 0.5);
        assert_eq!(report.jain(), 1.0);
        assert!((report.shed_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(report.query_sic(QueryId(0)), Some(0.5));
        assert_eq!(report.query_sic(QueryId(9)), None);
    }
}
