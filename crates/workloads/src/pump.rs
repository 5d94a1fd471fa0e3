//! The one source pacer: a clock-free state machine that drives every
//! live source's emission schedule.
//!
//! [`SourcePump::step`] takes the time as an argument and hands each due
//! batch to a sink; the pump never reads a clock, blocks or touches a
//! channel. The engine's pump thread (sink: the shard channels) and the
//! remote generator ([`crate::remote::run_remote_sources`], sink: a
//! socket) step it on the wall clock; the simulator (sink: its event
//! queue) and tests step it on a virtual one.
//! All install the bindings of [`query_bindings`], seeded by
//! [`source_seed`], so remote partitions together emit the very streams
//! the in-process pump would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use themis_core::prelude::*;
use themis_query::prelude::{Ingress, QuerySpec, RoutedBatch, SourceSpec};

use crate::scenario::Scenario;
use crate::sources::{SourceDriver, SourceProfile};

/// Emissions per [`SourcePump::step`]: a saturated pump (every source
/// perpetually due) still returns to its driver, so control messages are
/// not starved by a catch-up storm.
pub const MAX_SWEEP: usize = 4096;

/// The seed of `source`'s driver in a scenario seeded `scenario_seed` —
/// the one formula the engine, the remote generator and the simulator
/// share.
pub fn source_seed(scenario_seed: u64, source: SourceId) -> u64 {
    scenario_seed ^ (source.0 as u64).wrapping_mul(0x9E37_79B9)
}

/// One source to drive, plus where its batches go.
#[derive(Debug, Clone)]
pub struct SourceBinding {
    /// The query the source feeds.
    pub query: QueryId,
    /// The source's declaration.
    pub spec: SourceSpec,
    /// Its emission profile.
    pub profile: SourceProfile,
    /// Its driver's seed ([`source_seed`]).
    pub seed: u64,
    /// Node hosting the fragment the source feeds.
    pub node: usize,
    /// That fragment's index.
    pub fragment: usize,
}

/// `query`'s source bindings in installer order: fragments in order, each
/// fragment's bindings in order. `nodes[fi]` hosts fragment `fi`;
/// `profile_of` gives each source's profile.
pub fn query_bindings(
    query: &QuerySpec,
    nodes: &[usize],
    profile_of: impl Fn(SourceId) -> SourceProfile,
    scenario_seed: u64,
) -> Vec<SourceBinding> {
    let mut out = Vec::new();
    for (fi, &node) in nodes.iter().enumerate() {
        for b in &query.fragments[fi].sources {
            let spec = query.sources.iter().find(|s| s.id == b.source);
            out.push(SourceBinding {
                query: query.id,
                spec: spec.expect("bound source declared").clone(),
                profile: profile_of(b.source),
                seed: source_seed(scenario_seed, b.source),
                node,
                fragment: fi,
            });
        }
    }
    out
}

/// Every source binding of `scenario` at its validated placement:
/// queries in scenario order, each through [`query_bindings`].
pub(crate) fn scenario_bindings(scenario: &Scenario) -> impl Iterator<Item = SourceBinding> + '_ {
    scenario.queries.iter().flat_map(|q| {
        let profile_of = |s: SourceId| scenario.profiles[&s];
        query_bindings(q, &scenario.nodes_of(q), profile_of, scenario.seed)
    })
}

/// A reusable home for one driver and its routing. Removing a query
/// empties its slots and bumps their generation, which invalidates their
/// pending schedule entries, so churn does not grow the slot vector.
#[derive(Default)]
struct Slot {
    driver: Option<SourceDriver>,
    node: usize,
    fragment: usize,
    generation: u64,
}

/// The emission schedule of every live source, stepped by its caller's
/// clock. Due entries are ordered `(time, slot, generation)`, so equal
/// times emit in install order.
#[derive(Default)]
pub struct SourcePump {
    slots: Vec<Slot>,
    free: Vec<usize>,
    due: BinaryHeap<Reverse<(Timestamp, usize, u64)>>,
    /// Where emitted batches are acquired from, when set.
    pool: Option<BatchPool>,
}

impl SourcePump {
    /// An idle pump whose drivers acquire their batches from `pool`.
    pub fn with_pool(pool: BatchPool) -> Self {
        SourcePump {
            pool: Some(pool),
            ..Self::default()
        }
    }

    /// Starts driving `bindings`. Their schedules begin at `now` (plus
    /// each source's de-phasing offset), each from a fresh driver: a
    /// source's fractional-tuple carry starts at zero.
    pub fn add(&mut self, now: Timestamp, bindings: impl IntoIterator<Item = SourceBinding>) {
        for b in bindings {
            let mut driver = SourceDriver::new(b.query, &b.spec, b.profile, b.seed);
            if let Some(pool) = &self.pool {
                driver.set_pool(pool.clone());
            }
            driver.start_at(now);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Slot::default());
                self.slots.len() - 1
            });
            let s = &mut self.slots[slot];
            self.due
                .push(Reverse((driver.next_time(), slot, s.generation)));
            s.driver = Some(driver);
            s.node = b.node;
            s.fragment = b.fragment;
        }
    }

    /// Stops every driver of `query`. Its slots are freed for reuse and
    /// their pending schedule entries turn stale.
    pub fn remove(&mut self, query: QueryId) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if !slot.driver.as_ref().is_some_and(|d| d.query == query) {
                continue;
            }
            slot.driver = None;
            slot.generation += 1;
            self.free.push(idx);
        }
    }

    /// Emits every batch due at `now`, at most [`MAX_SWEEP`], handing
    /// each non-empty one to `sink` with the node it is routed to. A
    /// driver more than a whole beat behind `now` is first re-anchored
    /// onto the current beat ([`SourceDriver::fast_forward`]), so an
    /// overloaded pump degrades its rate instead of storming catch-up
    /// batches.
    ///
    /// Returns the next due time, `Some(now)` when the cap cut the sweep
    /// short, and `None` when no source is live.
    pub fn step<F: FnMut(usize, RoutedBatch)>(
        &mut self,
        now: Timestamp,
        mut sink: F,
    ) -> Option<Timestamp> {
        let mut swept = 0;
        while let Some(&Reverse((at, slot, generation))) = self.due.peek() {
            let s = &mut self.slots[slot];
            if s.generation != generation {
                self.due.pop(); // removed (or reused): abandon the stale entry
                continue;
            }
            if at > now || swept == MAX_SWEEP {
                return Some(at.max(now));
            }
            self.due.pop();
            swept += 1;
            let driver = s.driver.as_mut().expect("live generation has a driver");
            driver.fast_forward(now);
            let batch = driver.emit();
            self.due
                .push(Reverse((driver.next_time(), slot, generation)));
            // Quiet-pattern batches can be empty; nothing to route then.
            if !batch.is_empty() {
                let routed = RoutedBatch {
                    query: driver.query,
                    fragment: s.fragment,
                    ingress: Ingress::Source(driver.source),
                    batch,
                };
                sink(s.node, routed);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use themis_query::prelude::SourceKind;

    fn binding(query: u32, source: u32, profile: SourceProfile) -> SourceBinding {
        SourceBinding {
            query: QueryId(query),
            spec: SourceSpec::plain(SourceId(source), None, SourceKind::Cpu),
            profile,
            seed: source_seed(8, SourceId(source)),
            node: 0,
            fragment: 0,
        }
    }

    /// Steps `pump` on a virtual clock, at each returned due time, until
    /// the next one lies past `until`; returns what reached the sink.
    fn run_until(pump: &mut SourcePump, from: Timestamp, until: Timestamp) -> Vec<RoutedBatch> {
        let mut out = Vec::new();
        let mut now = from;
        while let Some(next) = pump.step(now, |_, rb| out.push(rb)) {
            if next > until {
                break;
            }
            now = next;
        }
        out
    }

    #[test]
    fn quiet_beats_never_reach_the_sink() {
        // 1 t/s in 5 batches/s: four of every five beats are empty.
        let profile = SourceProfile::steady(1, 5, Dataset::Uniform);
        let mut pump = SourcePump::default();
        pump.add(Timestamp::ZERO, [binding(0, 0, profile)]);
        let out = run_until(&mut pump, Timestamp::ZERO, Timestamp::from_secs(10));
        assert!(out.iter().all(|rb| !rb.batch.is_empty()));
        let tuples: usize = out.iter().map(|rb| rb.batch.len()).sum();
        assert_eq!((out.len(), tuples), (10, 10), "one 1-tuple batch a second");
    }

    #[test]
    fn the_sweep_cap_splits_a_storm_across_steps() {
        let profile = SourceProfile::steady(1, 1, Dataset::Uniform);
        let mut pump = SourcePump::default();
        pump.add(Timestamp::ZERO, (0..5_000).map(|i| binding(i, i, profile)));
        // Every phase lies in [0, 1 s): all 5 000 are due just before 1 s,
        // and none is due twice.
        let now = Timestamp(999_999);
        let mut emitted = 0;
        assert_eq!(pump.step(now, |_, _| emitted += 1), Some(now), "cut short");
        assert_eq!(emitted, MAX_SWEEP);
        let next = pump.step(now, |_, _| emitted += 1).expect("still live");
        assert_eq!(emitted, 5_000);
        assert!(next > now, "nothing left due at {now}: next {next}");
    }

    #[test]
    fn stale_entries_never_emit_after_slot_reuse() {
        let profile = SourceProfile::steady(10, 10, Dataset::Uniform);
        let mut pump = SourcePump::default();
        pump.add(Timestamp::ZERO, [binding(0, 0, profile)]);
        pump.remove(QueryId(0));
        // Query 1 reuses query 0's slot; the old schedule entry stays in
        // the heap until it is popped as stale.
        pump.add(Timestamp::ZERO, [binding(1, 1, profile)]);
        assert_eq!(pump.slots.len(), 1, "slot reused");
        let out = run_until(&mut pump, Timestamp::ZERO, Timestamp::from_secs(2));
        assert!(out.iter().all(|rb| rb.query == QueryId(1)));
        let b = binding(1, 1, profile);
        let first = SourceDriver::new(b.query, &b.spec, b.profile, b.seed).next_time();
        let created: Vec<Timestamp> = out.iter().map(|rb| rb.batch.created()).collect();
        let expected: Vec<Timestamp> = (0..)
            .map(|k| first + TimeDelta::from_millis(100 * k))
            .take_while(|&t| t <= Timestamp::from_secs(2))
            .collect();
        assert_eq!(created, expected, "one emission per beat, no duplicates");
    }

    #[test]
    fn a_late_step_skips_missed_beats() {
        // 10 batches/s, first stepped 10 s late: one emission re-anchored
        // onto the current beat, not a 100-batch catch-up storm.
        let profile = SourceProfile::steady(10, 10, Dataset::Uniform);
        let mut pump = SourcePump::default();
        pump.add(Timestamp::ZERO, [binding(0, 0, profile)]);
        let late = Timestamp::from_secs(10);
        let mut created = Vec::new();
        let next = pump.step(late, |_, rb| created.push(rb.batch.created()));
        assert_eq!(created.len(), 1, "one emission, not a storm");
        assert!(late - created[0] < profile.interval(), "{created:?}");
        assert_eq!(next, Some(created[0] + profile.interval()));
    }
}
