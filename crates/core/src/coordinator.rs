//! The per-query coordinator (§6 "SIC maintenance"):
//!
//! "The dissemination of query result SIC values to nodes that host query
//! fragments (i.e. `updateSIC()` in Algorithm 1) is performed by a
//! logically-centralised query coordinator component."
//!
//! The coordinator is a pure state machine: the hosting runtime (simulator or
//! engine) feeds it result-SIC observations from the root fragment and calls
//! [`QueryCoordinator::tick`] at the update interval (250 ms in §7.6,
//! matching the shedding interval); it returns the `SicUpdate` messages to
//! deliver to every node hosting a fragment of the query. Each message costs
//! 30 bytes on the wire in the prototype (§7.6).

use std::collections::HashMap;

use crate::ids::{NodeId, QueryId};
use crate::sic::Sic;
use crate::time::{TimeDelta, Timestamp};

/// A result-SIC dissemination message from a coordinator to one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SicUpdate {
    /// The query whose result SIC is being disseminated.
    pub query: QueryId,
    /// Destination node (hosts at least one fragment of the query).
    pub node: NodeId,
    /// The query's current result SIC value.
    pub sic: Sic,
}

impl SicUpdate {
    /// Wire size of one update message in the paper's prototype (§7.6).
    pub const WIRE_BYTES: usize = 30;
}

/// Coordinator for a single query's lifecycle: knows which nodes host
/// fragments, tracks the latest observed result SIC and emits periodic
/// updates.
#[derive(Debug, Clone)]
pub struct QueryCoordinator {
    query: QueryId,
    hosts: Vec<NodeId>,
    update_interval: TimeDelta,
    latest: Sic,
    last_update: Option<Timestamp>,
    messages_sent: u64,
}

impl QueryCoordinator {
    /// Creates a coordinator for `query` whose fragments run on `hosts`.
    pub fn new(query: QueryId, mut hosts: Vec<NodeId>, update_interval: TimeDelta) -> Self {
        hosts.sort_unstable();
        hosts.dedup();
        QueryCoordinator {
            query,
            hosts,
            update_interval,
            latest: Sic::ZERO,
            last_update: None,
            messages_sent: 0,
        }
    }

    /// The query managed by this coordinator.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Nodes hosting fragments of the query.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Records a fresh result-SIC observation from the root fragment.
    pub fn on_result_sic(&mut self, sic: Sic) {
        self.latest = sic;
    }

    /// Latest observed result SIC.
    pub fn latest(&self) -> Sic {
        self.latest
    }

    /// Called by the runtime clock once per update interval; emits one
    /// `SicUpdate` per hosting node. A round is due once at least half an
    /// interval has passed since the last one: a runtime whose rounds
    /// jitter (the engine's fire a few ms late or early on the wall clock)
    /// must not skip every round that lands a hair short of a full
    /// interval, while a second call within the same round stays silent.
    pub fn tick(&mut self, now: Timestamp) -> Vec<SicUpdate> {
        let due = match self.last_update {
            None => true,
            Some(prev) => 2 * now.since(prev).as_micros() >= self.update_interval.as_micros(),
        };
        if !due {
            return Vec::new();
        }
        self.last_update = Some(now);
        self.messages_sent += self.hosts.len() as u64;
        self.hosts
            .iter()
            .map(|&node| SicUpdate {
                query: self.query,
                node,
                sic: self.latest,
            })
            .collect()
    }

    /// Total messages emitted so far; `× SicUpdate::WIRE_BYTES` gives the
    /// coordination traffic reported in §7.6.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total coordination bytes emitted so far.
    pub fn bytes_sent(&self) -> u64 {
        self.messages_sent * SicUpdate::WIRE_BYTES as u64
    }
}

/// A node's local view of the latest coordinator-disseminated result SIC per
/// hosted query. The shedder reads from this table when projecting query
/// states (Algorithm 1's `updateSIC` input).
#[derive(Debug, Clone, Default)]
pub struct SicTable {
    values: HashMap<QueryId, Sic>,
}

impl SicTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a received update.
    pub fn apply(&mut self, update: &SicUpdate) {
        self.values.insert(update.query, update.sic);
    }

    /// Directly sets the value (used by single-node deployments where the
    /// tracker is local and no messages are needed).
    pub fn set(&mut self, query: QueryId, sic: Sic) {
        self.values.insert(query, sic);
    }

    /// The latest known result SIC for `query`; zero when never updated
    /// (a query that produced no results yet is maximally degraded).
    pub fn get(&self, query: QueryId) -> Sic {
        self.values.get(&query).copied().unwrap_or(Sic::ZERO)
    }

    /// Forgets `query` (its coordinator departed — runtime query churn);
    /// returns the last known value, if any.
    pub fn remove(&mut self, query: QueryId) -> Option<Sic> {
        self.values.remove(&query)
    }

    /// Number of tracked queries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no query has been updated yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over all `(query, sic)` entries (checkpointing reads the
    /// whole table; iteration order is unspecified).
    pub fn entries(&self) -> impl Iterator<Item = (QueryId, Sic)> + '_ {
        self.values.iter().map(|(&q, &s)| (q, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_dedups_hosts() {
        let c = QueryCoordinator::new(
            QueryId(0),
            vec![NodeId(2), NodeId(1), NodeId(2)],
            TimeDelta::from_millis(250),
        );
        assert_eq!(c.hosts(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn tick_respects_interval() {
        let mut c = QueryCoordinator::new(
            QueryId(3),
            vec![NodeId(0), NodeId(1)],
            TimeDelta::from_millis(250),
        );
        c.on_result_sic(Sic(0.4));
        let first = c.tick(Timestamp::from_millis(0));
        assert_eq!(first.len(), 2);
        assert!(first
            .iter()
            .all(|u| u.sic == Sic(0.4) && u.query == QueryId(3)));
        // Too early: nothing.
        assert!(c.tick(Timestamp::from_millis(100)).is_empty());
        // Due again.
        c.on_result_sic(Sic(0.6));
        let second = c.tick(Timestamp::from_millis(250));
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|u| u.sic == Sic(0.6)));
        assert_eq!(c.messages_sent(), 4);
        assert_eq!(c.bytes_sent(), 4 * 30);
    }

    /// Regression: rounds on a wall clock jitter around the interval. With
    /// a full-interval threshold the 499 ms round (249 ms after the last)
    /// was skipped, and about a third of the engine's rounds sent nothing.
    #[test]
    fn jittered_rounds_all_disseminate() {
        let mut c = QueryCoordinator::new(
            QueryId(1),
            vec![NodeId(0), NodeId(4)],
            TimeDelta::from_millis(250),
        );
        for ms in [250, 499, 750] {
            assert_eq!(
                c.tick(Timestamp::from_millis(ms)).len(),
                2,
                "round at {ms} ms"
            );
        }
        assert_eq!(c.messages_sent(), 6);
        // A repeat call well inside the round stays silent.
        assert!(c.tick(Timestamp::from_millis(800)).is_empty());
    }

    #[test]
    fn sic_table_roundtrip() {
        let mut t = SicTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(QueryId(5)), Sic::ZERO);
        t.apply(&SicUpdate {
            query: QueryId(5),
            node: NodeId(0),
            sic: Sic(0.7),
        });
        assert_eq!(t.get(QueryId(5)), Sic(0.7));
        t.set(QueryId(5), Sic(0.2));
        assert_eq!(t.get(QueryId(5)), Sic(0.2));
        assert_eq!(t.len(), 1);
    }
}
