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
//! (250 ms in §7.6, the shedding interval) and the sample schedule, so a
//! driver only says when it is. Each update costs 30 bytes on the wire
//! (§7.6).
//!
//! Who gets updates: Algorithm 1 reads a node's SIC table only when the
//! node is overloaded and its shedder runs, so a host joins the rounds
//! the first time its driver reports a shedder run
//! ([`Coordinator::overloaded`]) and stays in them for the run. A round
//! sends a query's SIC only to its joined hosts: with no joined host it
//! does no per-query work, and a host that ever shed gets every round's
//! update from then on.

use std::collections::HashMap;

use crate::fairness::FairnessSummary;
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
    /// `None` once detached: no more rounds and no more series points.
    coordinator: Option<QueryCoordinator>,
    /// The sampling ledger: the result SIC is sampled while
    /// `from <= now < until`, and only the running sum and count are kept.
    from: Timestamp,
    until: Option<Timestamp>,
    sum: f64,
    samples: usize,
    /// `(sample instant, SIC)` while live, when the series is recorded.
    series: Vec<(Timestamp, f64)>,
}

/// The current result SIC of an entry's `results`, before the clamp into
/// `[0, 1]` (Eq. 1 can overshoot it).
fn raw_result_sic(results: &mut Option<SlidingAccumulator>, now: Timestamp) -> f64 {
    results.as_mut().map_or(0.0, |acc| {
        acc.advance_to(now);
        acc.total()
    })
}

/// A raw result SIC above this counts as a [`CoordinatorReport::sic_overshoot`].
const OVERSHOOT: f64 = 1.0 + 1e-9;

/// The logically-centralised query coordinator (§6), stepped by its
/// caller's clock: the caller records result emissions, runs a
/// [`Coordinator::round`] whenever [`Coordinator::next_round`] is due and
/// a [`Coordinator::sample`] whenever [`Coordinator::next_sample`] is.
#[derive(Debug)]
pub struct Coordinator {
    interval: TimeDelta,
    stw: StwConfig,
    warmup_end: Timestamp,
    sample_every: TimeDelta,
    /// One entry per attach, in attach order (detached ones kept for
    /// their ledger).
    entries: Vec<Entry>,
    /// `query → entries` slot of its latest attach: the only hashing,
    /// done once per recorded result.
    slots: HashMap<QueryId, usize>,
    /// Index = node: whether its shedder ever ran
    /// ([`Coordinator::overloaded`]).
    shed: Vec<bool>,
    /// How many entries of `shed` are set.
    shed_hosts: usize,
    messages: u64,
    sic_overshoot: u64,
    next_round: Timestamp,
    /// `None` once sampling stopped.
    next_sample: Option<Timestamp>,
    record_series: bool,
}

/// What a [`Coordinator`] reports at the end of a run.
#[derive(Debug, Clone)]
pub struct CoordinatorReport {
    /// `(query, mean sampled SIC, samples)` for every query ever
    /// attached, sorted by query; the mean is `0` without samples.
    pub per_query: Vec<(QueryId, f64, usize)>,
    /// Fairness over the per-query means, in `per_query` order.
    pub fairness: FairnessSummary,
    /// Result emissions recorded per query.
    pub result_counts: HashMap<QueryId, usize>,
    /// `SicUpdate`s delivered: Σ over rounds of the hosts that had shed
    /// by then.
    pub messages: u64,
    /// Counted samples whose raw result SIC exceeded 1 (by more than
    /// 1e-9) before the clamp into `[0, 1]`: Eq. 1 overshooting.
    pub sic_overshoot: u64,
    /// `(sample instant, SIC)` per query and sample while attached
    /// (empty unless [`Coordinator::with_series`]).
    pub sic_series: HashMap<QueryId, Vec<(Timestamp, f64)>>,
}

impl Coordinator {
    /// A coordinator whose result SIC windows follow `stw`, whose rounds
    /// fall every `interval` (the first at `interval`) and whose samples
    /// fall every `sample_every`. The first sample is due half a period
    /// after `warmup`, half an interval plus 1 ms after a round (so is
    /// every later one when the period is a multiple of the interval): on
    /// the node-tick grid results are recorded on, a sample would miss the
    /// newest record while the oldest has just left the STW ring.
    pub fn new(
        stw: StwConfig,
        interval: TimeDelta,
        sample_every: TimeDelta,
        warmup: TimeDelta,
    ) -> Self {
        let grid = interval.as_micros().max(1);
        let phase = interval.as_micros() / 2 + 1_000;
        let lead = warmup.as_micros() + sample_every.as_micros() / 2;
        let first = lead.saturating_sub(phase).div_ceil(grid) * grid + phase;
        Coordinator {
            interval,
            stw,
            warmup_end: Timestamp::ZERO + warmup,
            sample_every,
            entries: Vec::new(),
            slots: HashMap::new(),
            shed: Vec::new(),
            shed_hosts: 0,
            messages: 0,
            sic_overshoot: 0,
            next_round: Timestamp::ZERO + interval,
            next_sample: Some(Timestamp(first)),
            record_series: false,
        }
    }

    /// With `on`, charts each live query's SIC at every sample.
    pub fn with_series(mut self, on: bool) -> Self {
        self.record_series = on;
        self
    }

    /// Starts coordinating `query`, arrived at `arrival`, whose fragments
    /// run on `hosts`: every round sends its SIC to those of its hosts
    /// that have shed by then, and its result SIC is sampled from
    /// `max(arrival + STW, warm-up end)` until `until` or its detach. A
    /// query attached again after a detach starts a fresh entry.
    pub fn attach(
        &mut self,
        query: QueryId,
        hosts: Vec<NodeId>,
        arrival: Timestamp,
        until: Option<Timestamp>,
    ) {
        self.slots.insert(query, self.entries.len());
        self.entries.push(Entry {
            query,
            results: None,
            result_count: 0,
            coordinator: Some(QueryCoordinator::new(query, hosts, self.interval)),
            from: (arrival + self.stw.window).max(self.warmup_end),
            until,
            sum: 0.0,
            samples: 0,
            series: Vec::new(),
        });
    }

    /// Records that `node`'s shedder ran: from the next round on, it gets
    /// the SIC of every query it hosts, now or later. Only the first call
    /// per node does anything.
    pub fn overloaded(&mut self, node: NodeId) {
        let i = node.index();
        if i >= self.shed.len() {
            self.shed.resize(i + 1, false);
        }
        if !self.shed[i] {
            self.shed[i] = true;
            self.shed_hosts += 1;
        }
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
        }
    }

    /// When the next round is due.
    pub fn next_round(&self) -> Timestamp {
        self.next_round
    }

    /// Runs one `updateSIC` round at `now`: hands `sink` one update per
    /// host that has shed, for every attached query it hosts, in attach
    /// order. The next round is due one interval after this one's due
    /// time, or one interval after `now` when the caller fell a whole
    /// interval behind — a late call fires once, it does not storm
    /// catch-up rounds. With no host that has shed, the round visits no
    /// query.
    pub fn round(&mut self, now: Timestamp, mut sink: impl FnMut(SicUpdate)) {
        if self.shed_hosts > 0 {
            let Coordinator {
                entries,
                shed,
                messages,
                ..
            } = self;
            for e in entries {
                if let Some(c) = &mut e.coordinator {
                    c.on_result_sic(Sic(raw_result_sic(&mut e.results, now)).clamp_unit());
                    c.tick_into(now, |u| {
                        if shed.get(u.node.index()).copied().unwrap_or(false) {
                            *messages += 1;
                            sink(u);
                        }
                    });
                }
            }
        }
        self.next_round += self.interval;
        if self.next_round <= now {
            self.next_round = now + self.interval;
        }
    }

    /// When the next sample is due; `None` once sampling stopped.
    pub fn next_sample(&self) -> Option<Timestamp> {
        self.next_sample
    }

    /// Samples the result SIC of every query whose sampling window
    /// covers `now` (and charts every live one), then moves
    /// [`Coordinator::next_sample`] past `now` on its period: a late call
    /// samples once. Does nothing once sampling stopped.
    pub fn sample(&mut self, now: Timestamp) {
        let Some(next) = self.next_sample else {
            return;
        };
        for e in &mut self.entries {
            let counted = now >= e.from && e.until.map_or(true, |u| now < u);
            let charted = self.record_series && e.coordinator.is_some();
            let raw = raw_result_sic(&mut e.results, now);
            let sic = Sic(raw).clamp_unit().value();
            if counted {
                e.sum += sic;
                e.samples += 1;
                self.sic_overshoot += u64::from(raw > OVERSHOOT);
            }
            if charted {
                e.series.push((now, sic));
            }
        }
        if next <= now {
            let period = self.sample_every.as_micros().max(1);
            let behind = now.since(next).as_micros() / period + 1;
            self.next_sample = Some(next + TimeDelta::from_micros(behind * period));
        }
    }

    /// Stops sampling for good; rounds go on.
    pub fn stop_sampling(&mut self) {
        self.next_sample = None;
    }

    /// The run's per-query means and their fairness, result counts,
    /// message count and series.
    pub fn finish(self) -> CoordinatorReport {
        let mut per_query: Vec<(QueryId, f64, usize)> = self
            .entries
            .iter()
            .map(|e| (e.query, e.sum / e.samples.max(1) as f64, e.samples))
            .collect();
        per_query.sort_by_key(|&(q, _, _)| q);
        let sics: Vec<Sic> = per_query.iter().map(|&(_, mean, _)| Sic(mean)).collect();
        let mut result_counts = HashMap::new();
        let mut sic_series: HashMap<QueryId, Vec<(Timestamp, f64)>> = HashMap::new();
        for e in self.entries {
            if e.result_count > 0 {
                *result_counts.entry(e.query).or_insert(0) += e.result_count;
            }
            if !e.series.is_empty() {
                sic_series.entry(e.query).or_default().extend(e.series);
            }
        }
        CoordinatorReport {
            per_query,
            fairness: FairnessSummary::from_sics(&sics),
            result_counts,
            messages: self.messages,
            sic_overshoot: self.sic_overshoot,
            sic_series,
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

    const INTERVAL: TimeDelta = TimeDelta::from_millis(250);

    /// A coordinator with 250 ms rounds, 1 s result windows and the
    /// engine's sample period (one interval), warmed up after `warmup_ms`.
    fn coordinator_after(warmup_ms: u64) -> Coordinator {
        Coordinator::new(stw(), INTERVAL, INTERVAL, TimeDelta::from_millis(warmup_ms))
    }

    fn coordinator() -> Coordinator {
        coordinator_after(0)
    }

    /// Runs one round at `ms` and returns what reached the sink.
    fn round_at(c: &mut Coordinator, ms: u64) -> Vec<SicUpdate> {
        let mut out = Vec::new();
        c.round(Timestamp::from_millis(ms), |u| out.push(u));
        out
    }

    /// Takes the next `n` samples at their scheduled instants and
    /// returns those instants in ms.
    fn take_samples(c: &mut Coordinator, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let at = c.next_sample().expect("sampling");
                c.sample(at);
                at.as_micros() / 1_000
            })
            .collect()
    }

    #[test]
    fn a_late_round_fires_once_and_skips_ahead() {
        let mut c = coordinator();
        c.attach(QueryId(0), vec![NodeId(0)], Timestamp::ZERO, None);
        c.overloaded(NodeId(0));
        assert_eq!(c.next_round(), Timestamp::from_millis(250));
        assert_eq!(round_at(&mut c, 250).len(), 1);
        assert_eq!(c.next_round(), Timestamp::from_millis(500));
        // The caller fell 1.75 s behind: one round, then one interval on
        // from now — not six catch-up rounds at 500, 750, … ms.
        assert_eq!(round_at(&mut c, 2_000).len(), 1);
        assert_eq!(c.next_round(), Timestamp::from_millis(2_250));
        assert_eq!(c.finish().messages, 2);
    }

    /// Engine (one interval) and simulator (1 s) periods: samples fall on
    /// the period, after warm-up, and at least a quarter interval from
    /// every round instant — a late sample keeps the phase.
    #[test]
    fn samples_fall_on_the_period_off_the_round_grid() {
        for period in [INTERVAL, TimeDelta::from_secs(1)] {
            let mut c = Coordinator::new(stw(), INTERVAL, period, TimeDelta::from_millis(3_100));
            let at = take_samples(&mut c, 40);
            assert!(at[0] >= 3_100, "{at:?}");
            for pair in at.windows(2) {
                assert_eq!(pair[1] - pair[0], period.as_micros() / 1_000, "{at:?}");
            }
            for ms in &at {
                let off = ms % 250;
                assert!(
                    off.min(250 - off) >= 250 / 4,
                    "{ms} ms is {off} ms past a round"
                );
            }
        }
        let mut c = coordinator();
        let first = c.next_sample().unwrap();
        c.sample(first + TimeDelta::from_millis(1_000));
        assert_eq!(c.next_sample(), Some(first + TimeDelta::from_millis(1_250)));
    }

    /// The simulator's instants from before the schedule moved here:
    /// warm-up + 500 ms + interval / 2 + 1 ms + k · 1 s.
    #[test]
    fn the_simulator_period_keeps_its_sample_instants() {
        let second = TimeDelta::from_secs(1);
        let mut c = Coordinator::new(stw(), INTERVAL, second, TimeDelta::from_secs(3));
        let at = take_samples(&mut c, 5);
        assert_eq!(at, [3_626, 4_626, 5_626, 6_626, 7_626]);
    }

    /// A query is sampled from `max(arrival + STW, warm-up end)` until
    /// `until`.
    #[test]
    fn sampling_counts_only_the_window() {
        let mut c = coordinator_after(2_000);
        let (early, late, leaves) = (QueryId(0), QueryId(1), QueryId(2));
        c.attach(early, vec![NodeId(0)], Timestamp::ZERO, None);
        c.attach(late, vec![NodeId(0)], Timestamp::from_millis(3_000), None);
        let until = Some(Timestamp::from_millis(3_999));
        c.attach(leaves, vec![NodeId(0)], Timestamp::ZERO, until);
        for ms in [1_500, 1_999, 2_000, 3_998, 3_999, 4_000] {
            c.sample(Timestamp::from_millis(ms));
        }
        let samples: Vec<usize> = c.finish().per_query.iter().map(|&(_, _, n)| n).collect();
        // Warm-up end (not 1 s), arrival + STW, and `[from, until)`.
        assert_eq!(samples, [4, 1, 2]);
    }

    #[test]
    fn a_detached_query_gets_no_updates_or_samples_but_keeps_its_mean() {
        let mut c = coordinator();
        let (gone, stays) = (QueryId(1), QueryId(2));
        c.attach(gone, vec![NodeId(0), NodeId(1)], Timestamp::ZERO, None);
        c.attach(stays, vec![NodeId(1)], Timestamp::ZERO, None);
        c.overloaded(NodeId(1));
        c.record(Timestamp::from_millis(1_100), gone, Sic(0.8));
        c.sample(Timestamp::from_millis(1_200));
        c.detach(gone, Timestamp::from_millis(1_250));
        let updates = round_at(&mut c, 1_250);
        assert_eq!(nodes(&updates), [NodeId(1)]);
        assert!(updates.iter().all(|u| u.query == stays), "{updates:?}");
        c.sample(Timestamp::from_millis(1_300));
        let report = c.finish();
        assert_eq!(report.per_query, [(gone, 0.8, 1), (stays, 0.0, 2)]);
    }

    #[test]
    fn no_sample_after_a_stop() {
        let mut c = coordinator();
        c.attach(QueryId(0), vec![NodeId(0)], Timestamp::ZERO, None);
        c.overloaded(NodeId(0));
        c.sample(Timestamp::from_millis(1_200));
        c.stop_sampling();
        assert_eq!(c.next_sample(), None);
        c.sample(Timestamp::from_millis(1_400));
        assert_eq!(round_at(&mut c, 1_500).len(), 1, "rounds go on");
        assert_eq!(c.finish().per_query, [(QueryId(0), 0.0, 1)]);
    }

    /// One point per live query per sample: none before attach, none
    /// after detach, none after a stop, and none at all without the series.
    #[test]
    fn the_series_holds_one_point_per_live_query_per_sample() {
        let mut c = coordinator().with_series(true);
        let (resident, visitor) = (QueryId(0), QueryId(1));
        c.attach(resident, vec![NodeId(0)], Timestamp::ZERO, None);
        take_samples(&mut c, 2);
        c.attach(visitor, vec![NodeId(1)], Timestamp::from_millis(600), None);
        take_samples(&mut c, 3);
        c.detach(visitor, Timestamp::from_millis(1_300));
        take_samples(&mut c, 1);
        c.stop_sampling();
        c.sample(Timestamp::from_millis(2_000));
        let report = c.finish();
        let instants = |q| -> Vec<u64> {
            report.sic_series[&q]
                .iter()
                .map(|&(t, _)| t.as_micros() / 1_000)
                .collect()
        };
        assert_eq!(instants(resident), [126, 376, 626, 876, 1_126, 1_376]);
        assert_eq!(instants(visitor), [626, 876, 1_126]);
        let mut c = coordinator();
        c.attach(resident, vec![NodeId(0)], Timestamp::ZERO, None);
        take_samples(&mut c, 1);
        assert!(c.finish().sic_series.is_empty());
    }

    /// Steps `c` on a 1 ms virtual clock up to 5 s like a driver whose
    /// node ticks in stagger slot 0: a round when one is due, `q`'s result
    /// of 0.25 1 ms after every round, and a sample either when
    /// `next_sample()` is due or, `at_round`, right after each round.
    fn drive(c: &mut Coordinator, q: QueryId, at_round: bool) {
        for ms in 0..=5_000 {
            let now = Timestamp::from_millis(ms);
            if now >= c.next_round() {
                c.round(now, |_| {});
                if at_round {
                    c.sample(now);
                }
            }
            if ms % 250 == 1 {
                c.record(now, q, Sic(0.25));
            }
            if !at_round && c.next_sample().is_some_and(|at| now >= at) {
                c.sample(now);
            }
        }
    }

    /// Regression: with results recorded 1 ms after every round, every
    /// `next_sample()` instant reads the full window. Sampling at the
    /// round instant instead reads one slide short: the slide the next
    /// result lands in has just been cleared.
    #[test]
    fn samples_off_the_round_instant_read_the_full_window() {
        let q = QueryId(0);
        let mut c = coordinator_after(2_000).with_series(true);
        c.attach(q, vec![NodeId(0)], Timestamp::ZERO, None);
        drive(&mut c, q, false);
        let report = c.finish();
        assert_eq!(report.per_query, [(q, 1.0, 12)]);
        let series = &report.sic_series[&q];
        let mut full = series
            .iter()
            .filter(|&&(t, _)| t >= Timestamp::from_secs(1));
        assert!(full.all(|&(_, sic)| sic == 1.0), "{series:?}");

        let mut c = coordinator_after(2_000);
        c.attach(q, vec![NodeId(0)], Timestamp::ZERO, None);
        drive(&mut c, q, true);
        assert_eq!(c.finish().per_query, [(q, 0.75, 13)]);
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
        (0..3).for_each(|n| c.overloaded(NodeId(n)));
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

    /// Which `(query, node)` pairs a round at `ms` delivers to.
    fn pairs_at(c: &mut Coordinator, ms: u64) -> Vec<(u32, u32)> {
        let updates = round_at(c, ms);
        updates.iter().map(|u| (u.query.0, u.node.0)).collect()
    }

    #[test]
    fn a_host_that_never_sheds_gets_no_update() {
        let mut c = coordinator();
        c.attach(
            QueryId(0),
            vec![NodeId(0), NodeId(1)],
            Timestamp::ZERO,
            None,
        );
        c.attach(QueryId(1), vec![NodeId(1)], Timestamp::ZERO, None);
        for k in 1..=8 {
            c.record(Timestamp::from_millis(250 * k), QueryId(0), Sic(0.3));
            assert!(round_at(&mut c, 250 * k).is_empty(), "round {k}");
        }
        assert_eq!(c.finish().messages, 0);
    }

    /// A host marked between two rounds gets the SIC of every query it
    /// hosts from the next round on, every round, the current value each
    /// time.
    #[test]
    fn a_host_gets_every_hosted_query_from_the_round_after_its_mark() {
        let mut c = coordinator();
        c.attach(QueryId(0), vec![NodeId(0)], Timestamp::ZERO, None);
        c.attach(QueryId(1), vec![NodeId(1)], Timestamp::ZERO, None);
        c.attach(
            QueryId(2),
            vec![NodeId(1), NodeId(2)],
            Timestamp::ZERO,
            None,
        );
        assert!(round_at(&mut c, 250).is_empty());
        c.overloaded(NodeId(1));
        c.overloaded(NodeId(1));
        for ms in [500, 750, 1_000] {
            assert_eq!(pairs_at(&mut c, ms), [(1, 1), (2, 1)], "at {ms} ms");
        }
        c.record(Timestamp::from_millis(1_050), QueryId(2), Sic(0.4));
        c.record(Timestamp::from_millis(1_100), QueryId(2), Sic(0.2));
        let updates = round_at(&mut c, 1_250);
        assert_eq!(updates[0].sic, Sic::ZERO, "no result yet");
        assert!((updates[1].sic.value() - 0.6).abs() < 1e-12, "{updates:?}");
        assert_eq!(c.finish().messages, 8);
    }

    #[test]
    fn a_query_attached_to_a_marked_host_joins_the_next_round() {
        let mut c = coordinator();
        c.attach(QueryId(0), vec![NodeId(3)], Timestamp::ZERO, None);
        c.overloaded(NodeId(3));
        assert_eq!(pairs_at(&mut c, 250), [(0, 3)]);
        c.attach(
            QueryId(1),
            vec![NodeId(3)],
            Timestamp::from_millis(300),
            None,
        );
        c.attach(
            QueryId(2),
            vec![NodeId(4)],
            Timestamp::from_millis(300),
            None,
        );
        assert_eq!(pairs_at(&mut c, 500), [(0, 3), (1, 3)]);
    }

    /// A query whose fragments span a shedding and a quiet host updates
    /// only the shedding one, in attach order.
    #[test]
    fn a_query_on_a_marked_and_an_unmarked_host_updates_only_the_marked_one() {
        let mut c = coordinator();
        c.attach(
            QueryId(0),
            vec![NodeId(0), NodeId(1)],
            Timestamp::ZERO,
            None,
        );
        c.attach(QueryId(1), vec![NodeId(1)], Timestamp::ZERO, None);
        c.overloaded(NodeId(1));
        assert_eq!(pairs_at(&mut c, 250), [(0, 1), (1, 1)]);
        c.overloaded(NodeId(0));
        assert_eq!(pairs_at(&mut c, 500), [(0, 0), (0, 1), (1, 1)]);
    }

    /// With no host marked, a round over a thousand queries delivers
    /// nothing and still moves the schedule on; a mark adds exactly that
    /// host's queries to the round.
    #[test]
    fn an_unmarked_round_visits_no_entry() {
        let mut c = coordinator();
        for q in 0..1_000 {
            c.attach(QueryId(q), vec![NodeId(q % 10)], Timestamp::ZERO, None);
        }
        assert!(round_at(&mut c, 250).is_empty());
        assert_eq!(c.next_round(), Timestamp::from_millis(500));
        c.overloaded(NodeId(7));
        let updates = round_at(&mut c, 500);
        assert_eq!(updates.len(), 100);
        assert!(updates
            .iter()
            .all(|u| u.node == NodeId(7) && u.query.0 % 10 == 7));
        assert_eq!(c.finish().messages, 100);
    }

    /// Eq. 1 can put more than a whole window of SIC into the STW: such a
    /// counted sample reads 1 and counts one overshoot; an uncounted one
    /// (before warm-up ends) does not count.
    #[test]
    fn a_sample_over_one_counts_an_overshoot() {
        let mut c = coordinator_after(1_000);
        let q = QueryId(0);
        c.attach(q, vec![NodeId(0)], Timestamp::ZERO, None);
        c.record(Timestamp::from_millis(500), q, Sic(0.7));
        c.record(Timestamp::from_millis(600), q, Sic(0.5));
        c.sample(Timestamp::from_millis(900));
        c.sample(Timestamp::from_millis(1_000));
        // The 1 s window at 1.8 s holds only this result.
        c.record(Timestamp::from_millis(1_300), q, Sic(0.6));
        c.sample(Timestamp::from_millis(1_800));
        let report = c.finish();
        assert_eq!(report.sic_overshoot, 1);
        assert_eq!(report.per_query, [(q, (1.0 + 0.6) / 2.0, 2)]);
    }

    #[test]
    fn sic_table_roundtrip() {
        let mut t = SicTable::new();
        assert_eq!(t.get(QueryId(5)), Sic::ZERO);
        t.apply(&SicUpdate {
            query: QueryId(5),
            node: NodeId(0),
            sic: Sic(0.7),
        });
        assert_eq!(t.get(QueryId(5)), Sic(0.7));
        t.set(QueryId(5), Sic(0.2));
        assert_eq!(t.get(QueryId(5)), Sic(0.2));
        assert_eq!(t.entries().count(), 1);
    }
}
