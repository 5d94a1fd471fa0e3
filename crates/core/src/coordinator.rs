//! The per-query coordinator (§6 "SIC maintenance"):
//!
//! "The dissemination of query result SIC values to nodes that host query
//! fragments (i.e. `updateSIC()` in Algorithm 1) is performed by a
//! logically-centralised query coordinator component."
//!
//! [`Coordinator`] is that component for both clocks: the simulator steps
//! it on simulated time, the engine on its wall clock. It reads no clock,
//! sleeps on nothing and uses no channel. It owns each attached query's
//! result SIC window, its [`QueryCoordinator`] and its sampling ledger —
//! side by side in one entry, so a round and a sample are one sequential
//! pass with no hashing and no allocation — plus the round schedule
//! (250 ms in §7.6, the shedding interval). Each update costs 30 bytes on
//! the wire (§7.6).

use std::collections::HashMap;

use crate::ids::{NodeId, QueryId};
use crate::sic::Sic;
use crate::stw::{SlidingAccumulator, StwConfig};
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
        }
    }

    /// The query managed by this coordinator.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// Records a fresh result-SIC observation from the root fragment.
    pub fn on_result_sic(&mut self, sic: Sic) {
        self.latest = sic;
    }

    /// Called by the runtime clock once per update interval; emits one
    /// `SicUpdate` per hosting node ([`QueryCoordinator::tick_into`]).
    pub fn tick(&mut self, now: Timestamp) -> Vec<SicUpdate> {
        let mut updates = Vec::new();
        self.tick_into(now, |u| updates.push(u));
        updates
    }

    /// [`QueryCoordinator::tick`] without the vector: hands `sink` one
    /// `SicUpdate` per hosting node and returns how many. A round is due
    /// once at least half an interval has passed since the last one: a
    /// runtime whose rounds jitter (the engine's fire a few ms late or
    /// early on the wall clock) must not skip every round that lands a
    /// hair short of a full interval, while a second call within the same
    /// round stays silent.
    pub fn tick_into(&mut self, now: Timestamp, mut sink: impl FnMut(SicUpdate)) -> usize {
        let due = match self.last_update {
            None => true,
            Some(prev) => 2 * now.since(prev).as_micros() >= self.update_interval.as_micros(),
        };
        if !due {
            return 0;
        }
        self.last_update = Some(now);
        for &node in &self.hosts {
            sink(SicUpdate {
                query: self.query,
                node,
                sic: self.latest,
            });
        }
        self.hosts.len()
    }
}

/// Everything the [`Coordinator`] keeps about one attached query.
#[derive(Debug)]
struct Entry {
    query: QueryId,
    /// Result SIC mass over the STW (Eq. 4), from the first record on.
    results: Option<SlidingAccumulator>,
    /// Result emissions recorded.
    result_count: usize,
    /// The last [`Entry::sic`] and the instant it was read at, so the
    /// sample that follows a round at the same instant sums the window
    /// once; a record clears it.
    read: Option<(Timestamp, Sic)>,
    /// `None` once detached: no more rounds.
    coordinator: Option<QueryCoordinator>,
    /// The sampling ledger: the result SIC is sampled while
    /// `from <= now < until`, and only the running sum and count are kept.
    from: Timestamp,
    until: Option<Timestamp>,
    sum: f64,
    samples: usize,
}

impl Entry {
    /// The current result SIC, clamped into `[0, 1]`.
    fn sic(&mut self, now: Timestamp) -> Sic {
        match self.read {
            Some((at, sic)) if at == now => sic,
            _ => {
                let sic = self.results.as_mut().map_or(Sic::ZERO, |acc| {
                    acc.advance_to(now);
                    Sic(acc.total()).clamp_unit()
                });
                self.read = Some((now, sic));
                sic
            }
        }
    }
}

/// The logically-centralised query coordinator (§6), stepped by its
/// caller's clock: the caller records result emissions, runs a
/// [`Coordinator::round`] whenever [`Coordinator::next_round`] is due and
/// calls [`Coordinator::sample`] on its own cadence and gates.
#[derive(Debug)]
pub struct Coordinator {
    interval: TimeDelta,
    stw: StwConfig,
    /// One entry per attach, in attach order (detached ones kept for
    /// their ledger).
    entries: Vec<Entry>,
    /// `query → entries` slot of its latest attach: the only hashing,
    /// done once per recorded result.
    slots: HashMap<QueryId, usize>,
    messages: u64,
    next_round: Timestamp,
}

/// What a [`Coordinator`] reports at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorReport {
    /// `(query, mean sampled SIC, samples)` for every query ever
    /// attached, sorted by query; the mean is `0` without samples.
    pub per_query: Vec<(QueryId, f64, usize)>,
    /// Result emissions recorded per query.
    pub result_counts: HashMap<QueryId, usize>,
    /// `SicUpdate`s delivered: Σ hosts × rounds.
    pub messages: u64,
}

impl Coordinator {
    /// A coordinator whose result SIC windows follow `stw` and whose
    /// rounds fall every `interval`, the first at `interval`.
    pub fn new(stw: StwConfig, interval: TimeDelta) -> Self {
        Coordinator {
            interval,
            stw,
            entries: Vec::new(),
            slots: HashMap::new(),
            messages: 0,
            next_round: Timestamp::ZERO + interval,
        }
    }

    /// Starts coordinating `query`, whose fragments run on `hosts`: it
    /// joins every later round, and its result SIC is sampled over
    /// `[from, until)` (`until = None`: until it is detached). A query
    /// attached again after a detach starts a fresh entry.
    pub fn attach(
        &mut self,
        query: QueryId,
        hosts: Vec<NodeId>,
        from: Timestamp,
        until: Option<Timestamp>,
    ) {
        self.slots.insert(query, self.entries.len());
        self.entries.push(Entry {
            query,
            results: None,
            result_count: 0,
            read: None,
            coordinator: Some(QueryCoordinator::new(query, hosts, self.interval)),
            from,
            until,
            sum: 0.0,
            samples: 0,
        });
    }

    /// Stops coordinating `query` at `now`: it gets no further updates
    /// and no further samples, but its mean so far is still reported.
    pub fn detach(&mut self, query: QueryId, now: Timestamp) {
        if let Some(e) = self.slot(query) {
            e.coordinator = None;
            e.until = Some(e.until.map_or(now, |u| u.min(now)));
        }
    }

    /// The entry of `query`'s latest attach.
    fn slot(&mut self, query: QueryId) -> Option<&mut Entry> {
        let &slot = self.slots.get(&query)?;
        Some(&mut self.entries[slot])
    }

    /// Records result tuples carrying `sic` aggregate SIC for `query`
    /// (ignored for a query never attached).
    pub fn record(&mut self, now: Timestamp, query: QueryId, sic: Sic) {
        let stw = self.stw;
        if let Some(e) = self.slot(query) {
            e.results
                .get_or_insert_with(|| SlidingAccumulator::new(stw))
                .add(now, sic.value());
            e.result_count += 1;
            e.read = None;
        }
    }

    /// The current result SIC of `query` (zero for a query never
    /// attached).
    pub fn query_sic(&mut self, now: Timestamp, query: QueryId) -> Sic {
        self.slot(query).map_or(Sic::ZERO, |e| e.sic(now))
    }

    /// When the next round is due.
    pub fn next_round(&self) -> Timestamp {
        self.next_round
    }

    /// Runs one `updateSIC` round at `now`: hands `sink` one update per
    /// host of every attached query, in attach order. The next round is
    /// due one interval after this one's due time, or one interval after
    /// `now` when the caller fell a whole interval behind — a late call
    /// fires once, it does not storm catch-up rounds.
    pub fn round(&mut self, now: Timestamp, mut sink: impl FnMut(SicUpdate)) {
        for e in &mut self.entries {
            if e.coordinator.is_none() {
                continue;
            }
            let sic = e.sic(now);
            let c = e.coordinator.as_mut().expect("checked above");
            c.on_result_sic(sic);
            self.messages += c.tick_into(now, &mut sink) as u64;
        }
        self.next_round += self.interval;
        if self.next_round <= now {
            self.next_round = now + self.interval;
        }
    }

    /// Samples the result SIC of every query whose sampling window
    /// covers `now`.
    pub fn sample(&mut self, now: Timestamp) {
        for e in &mut self.entries {
            if now >= e.from && e.until.map_or(true, |u| now < u) {
                e.sum += e.sic(now).value();
                e.samples += 1;
            }
        }
    }

    /// The run's per-query means, result counts and message count.
    pub fn finish(self) -> CoordinatorReport {
        let mut per_query: Vec<(QueryId, f64, usize)> = self
            .entries
            .iter()
            .map(|e| {
                let mean = if e.samples == 0 {
                    0.0
                } else {
                    e.sum / e.samples as f64
                };
                (e.query, mean, e.samples)
            })
            .collect();
        per_query.sort_by_key(|&(q, _, _)| q);
        let mut result_counts = HashMap::new();
        for e in self.entries.iter().filter(|e| e.result_count > 0) {
            *result_counts.entry(e.query).or_insert(0) += e.result_count;
        }
        CoordinatorReport {
            per_query,
            result_counts,
            messages: self.messages,
        }
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

    fn nodes(updates: &[SicUpdate]) -> Vec<NodeId> {
        updates.iter().map(|u| u.node).collect()
    }

    #[test]
    fn coordinator_dedups_hosts() {
        let mut c = QueryCoordinator::new(
            QueryId(0),
            vec![NodeId(2), NodeId(1), NodeId(2)],
            TimeDelta::from_millis(250),
        );
        let updates = c.tick(Timestamp::ZERO);
        assert_eq!(nodes(&updates), [NodeId(1), NodeId(2)]);
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
        assert_eq!(nodes(&first), [NodeId(0), NodeId(1)]);
        assert!(first
            .iter()
            .all(|u| u.sic == Sic(0.4) && u.query == QueryId(3)));
        // Too early: nothing.
        assert!(c.tick(Timestamp::from_millis(100)).is_empty());
        // Due again, with the fresh observation.
        c.on_result_sic(Sic(0.6));
        let second = c.tick(Timestamp::from_millis(250));
        assert_eq!(nodes(&second), [NodeId(0), NodeId(1)]);
        assert!(second.iter().all(|u| u.sic == Sic(0.6)));
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
        // A repeat call well inside the round stays silent.
        assert!(c.tick(Timestamp::from_millis(800)).is_empty());
    }

    fn stw() -> StwConfig {
        StwConfig::new(TimeDelta::from_secs(1), TimeDelta::from_millis(250))
    }

    /// A coordinator with 250 ms rounds and 1 s result windows.
    fn coordinator() -> Coordinator {
        Coordinator::new(stw(), TimeDelta::from_millis(250))
    }

    /// Runs one round at `ms` and returns what reached the sink.
    fn round_at(c: &mut Coordinator, ms: u64) -> Vec<SicUpdate> {
        let mut out = Vec::new();
        c.round(Timestamp::from_millis(ms), |u| out.push(u));
        out
    }

    #[test]
    fn a_late_round_fires_once_and_skips_ahead() {
        let mut c = coordinator();
        c.attach(QueryId(0), vec![NodeId(0)], Timestamp::ZERO, None);
        assert_eq!(c.next_round(), Timestamp::from_millis(250));
        assert_eq!(round_at(&mut c, 250).len(), 1);
        assert_eq!(c.next_round(), Timestamp::from_millis(500));
        // The caller fell 1.75 s behind: one round, then one interval on
        // from now — not six catch-up rounds at 500, 750, … ms.
        assert_eq!(round_at(&mut c, 2_000).len(), 1);
        assert_eq!(c.next_round(), Timestamp::from_millis(2_250));
        assert_eq!(c.finish().messages, 2);
    }

    #[test]
    fn sampling_counts_only_the_window() {
        let mut c = coordinator();
        let q = QueryId(7);
        c.attach(
            q,
            vec![NodeId(0)],
            Timestamp::from_secs(1),
            Some(Timestamp::from_secs(3)),
        );
        c.record(Timestamp::from_millis(900), q, Sic(0.5));
        // 0.5, 1.0, …, 3.5 s: only 1.0 ≤ t < 3.0 counts.
        for ms in (500..=3_500).step_by(500) {
            c.sample(Timestamp::from_millis(ms));
        }
        let report = c.finish();
        let (query, _, samples) = report.per_query[0];
        assert_eq!((query, samples), (q, 4));
    }

    #[test]
    fn a_detached_query_gets_no_updates_or_samples_but_keeps_its_mean() {
        let mut c = coordinator();
        let (gone, stays) = (QueryId(1), QueryId(2));
        c.attach(gone, vec![NodeId(0), NodeId(1)], Timestamp::ZERO, None);
        c.attach(stays, vec![NodeId(1)], Timestamp::ZERO, None);
        c.record(Timestamp::from_millis(100), gone, Sic(0.8));
        c.sample(Timestamp::from_millis(200));
        c.detach(gone, Timestamp::from_millis(250));
        let updates = round_at(&mut c, 250);
        assert!(updates.iter().all(|u| u.query == stays), "{updates:?}");
        c.sample(Timestamp::from_millis(300));
        let report = c.finish();
        assert_eq!(report.per_query, [(gone, 0.8, 1), (stays, 0.0, 2)]);
    }

    /// The engine samples at the instant of the round before it: the
    /// sample reuses the SIC the round read, unless a result was recorded
    /// in between.
    #[test]
    fn a_sample_at_the_round_instant_sees_a_record_made_in_between() {
        let mut c = coordinator();
        let q = QueryId(4);
        c.attach(q, vec![NodeId(0)], Timestamp::ZERO, None);
        c.record(Timestamp::from_millis(100), q, Sic(0.25));
        let updates = round_at(&mut c, 250);
        assert_eq!(updates[0].sic, Sic(0.25));
        c.sample(Timestamp::from_millis(250));
        c.record(Timestamp::from_millis(250), q, Sic(0.5));
        c.sample(Timestamp::from_millis(250));
        assert_eq!(c.query_sic(Timestamp::from_millis(250), q), Sic(0.75));
        let report = c.finish();
        assert_eq!(report.per_query, [(q, 0.5, 2)], "(0.25 + 0.75) / 2");
    }

    #[test]
    fn messages_and_result_counts_match_what_was_delivered_and_recorded() {
        let mut c = coordinator();
        c.attach(
            QueryId(0),
            vec![NodeId(0), NodeId(1)],
            Timestamp::ZERO,
            None,
        );
        c.attach(QueryId(1), vec![NodeId(2)], Timestamp::ZERO, None);
        let mut delivered = 0;
        for k in 1..=4 {
            c.record(Timestamp::from_millis(250 * k), QueryId(1), Sic(0.1));
            c.round(Timestamp::from_millis(250 * k), |_| delivered += 1);
        }
        c.record(Timestamp::from_millis(1_100), QueryId(0), Sic(0.1));
        let report = c.finish();
        assert_eq!(delivered, (2 + 1) * 4, "Σ hosts × rounds");
        assert_eq!(report.messages, delivered);
        assert_eq!(report.result_counts[&QueryId(0)], 1);
        assert_eq!(report.result_counts[&QueryId(1)], 4);
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
