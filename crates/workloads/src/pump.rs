//! The one source pacer: a clock-free state machine that drives every
//! live source's emission schedule.
//!
//! [`SourcePump::step`] takes the time as an argument and hands each due
//! batch to a sink; the pump never reads a clock, blocks or touches a
//! channel. Each engine shard (one pump over the sources feeding its
//! nodes, sink: the node's input buffer on the same thread) and the
//! remote generator ([`crate::remote::run_remote_sources`], sink: a
//! socket) step it on the wall clock; the simulator (sink: its event
//! queue) and tests step it on a virtual one.
//! All install the bindings of [`query_bindings`], seeded by
//! [`source_seed`], so remote partitions together emit the very streams
//! the in-process pump would.
//!
//! # Schedule
//!
//! Every live source has one entry `(due time, slot, generation)`; the
//! pump emits entries in that order, so equal times emit in install
//! order. The entries sit on a hashed timing wheel (Varghese & Lauck,
//! SOSP 1987) of 2 048 buckets of 1 ms:
//!
//! - the *current* bucket's entries (and any due time before it) sit in a
//!   small heap ordered as above, so ties within a millisecond keep the
//!   exact order;
//! - the next 2 047 milliseconds each hold an unsorted list, found
//!   through an occupancy bitmap; the lists share one arena of nodes that
//!   loading a bucket frees for the next pushes, so a steady pump
//!   allocates nothing;
//! - due times past that span wait in an ordered overflow heap and move
//!   onto the wheel as the current bucket approaches them.
//!
//! A profile's interval is at most 1 s, inside the 2.048 s span, so a
//! steady pump only ever touches the overflow for sources re-anchored far
//! ahead (a late step) or added far past the current bucket. Emitting one
//! batch then costs a sift through the few entries of its own
//! millisecond, not through every live source; an idle stretch jumps
//! straight to the next occupied bucket (a bitmap scan, or the overflow's
//! head) instead of walking the empty ones. Removed sources' entries turn
//! stale (their slot's generation moved on) and are dropped when their
//! bucket loads.

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
    let fragments = nodes.iter().enumerate();
    fragments
        .flat_map(|(fi, &node)| fragment_bindings(query, fi, node, &profile_of, scenario_seed))
        .collect()
}

/// The bindings of `query`'s fragment `fragment`, hosted on `node`, in
/// order: the fragment's share of [`query_bindings`].
pub fn fragment_bindings<'a>(
    query: &'a QuerySpec,
    fragment: usize,
    node: usize,
    profile_of: impl Fn(SourceId) -> SourceProfile + 'a,
    scenario_seed: u64,
) -> impl Iterator<Item = SourceBinding> + 'a {
    query.fragments[fragment].sources.iter().map(move |b| {
        let spec = query.sources.iter().find(|s| s.id == b.source);
        SourceBinding {
            query: query.id,
            spec: spec.expect("bound source declared").clone(),
            profile: profile_of(b.source),
            seed: source_seed(scenario_seed, b.source),
            node,
            fragment,
        }
    })
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

/// Buckets on the schedule's timing wheel, each 1 ms wide: due times less
/// than this many milliseconds past the current bucket sit on the wheel,
/// later ones in its overflow.
const WHEEL_BUCKETS: usize = 2048;

/// Width of one wheel bucket, in microseconds.
const BUCKET_US: u64 = 1_000;

/// One source's schedule entry: `(due time, slot, generation)`.
type Entry = (Timestamp, usize, u64);

/// The index of the 1 ms bucket `at` falls in.
fn bucket(at: Timestamp) -> u64 {
    at.0 / BUCKET_US
}

/// No node: the end of a bucket's list.
const NIL: u32 = u32::MAX;

/// The pump's schedule: a timing wheel of 1 ms buckets around a current
/// one, with an ordered overflow past its span (see the module doc).
/// Invariant: `near` holds buckets up to `cursor`, the wheel buckets in
/// `(cursor, cursor + WHEEL_BUCKETS)`, the overflow the rest.
struct Schedule {
    /// Entries of the current bucket and earlier, in emission order.
    near: BinaryHeap<Reverse<Entry>>,
    /// Bucket `b` on the wheel is the list starting at node
    /// `heads[b % WHEEL_BUCKETS]` (`NIL`: empty).
    heads: Vec<u32>,
    /// The wheel's entries, each with the next node of its bucket; freed
    /// nodes chain from `free` and are reused first, so a steady pump
    /// allocates nothing.
    nodes: Vec<(Entry, u32)>,
    free: u32,
    /// One bit per wheel bucket: set when its list is non-empty.
    occupied: Vec<u64>,
    /// Entries at or past bucket `cursor + WHEEL_BUCKETS`.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// The current bucket.
    cursor: u64,
    /// Bitmap words scanned and buckets loaded so far: what finding the
    /// next due entry has cost.
    probes: u64,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            near: BinaryHeap::new(),
            heads: vec![NIL; WHEEL_BUCKETS],
            nodes: Vec::new(),
            free: NIL,
            occupied: vec![0; WHEEL_BUCKETS / 64],
            overflow: BinaryHeap::new(),
            cursor: 0,
            probes: 0,
        }
    }
}

impl Schedule {
    fn push(&mut self, entry: Entry) {
        let b = bucket(entry.0);
        if b <= self.cursor {
            self.near.push(Reverse(entry));
        } else if b - self.cursor < WHEEL_BUCKETS as u64 {
            let i = (b % WHEEL_BUCKETS as u64) as usize;
            let node = (entry, self.heads[i]);
            self.heads[i] = if self.free == NIL {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 scheduled sources")
            } else {
                let at = self.free;
                self.free = std::mem::replace(&mut self.nodes[at as usize], node).1;
                at
            };
            self.occupied[i / 64] |= 1 << (i % 64);
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// The earliest entry `live` accepts, dropping the stale ones before
    /// it; `None` when no live entry is left.
    fn first(&mut self, live: impl Fn(&Entry) -> bool) -> Option<Entry> {
        loop {
            while let Some(&Reverse(entry)) = self.near.peek() {
                if live(&entry) {
                    return Some(entry);
                }
                self.near.pop();
            }
            if !self.advance(&live) {
                return None;
            }
        }
    }

    /// Removes the entry [`Schedule::first`] returned.
    fn pop(&mut self) {
        self.near.pop();
    }

    /// With `near` empty: moves the cursor to the next occupied bucket —
    /// the wheel's, else the overflow's earliest live entry's — loads its
    /// live entries into `near`, and moves the overflow entries the wheel
    /// now spans onto it. `false` when nothing live is scheduled.
    fn advance(&mut self, live: &impl Fn(&Entry) -> bool) -> bool {
        let next = match self.next_occupied() {
            Some(b) => b,
            None => loop {
                // The wheel is empty: jump to the overflow's head.
                let &Reverse(entry) = match self.overflow.peek() {
                    Some(head) => head,
                    None => return false,
                };
                if live(&entry) {
                    break bucket(entry.0);
                }
                self.overflow.pop();
            },
        };
        self.probes += 1;
        self.cursor = next;
        let i = (next % WHEEL_BUCKETS as u64) as usize;
        self.occupied[i / 64] &= !(1 << (i % 64));
        let mut at = std::mem::replace(&mut self.heads[i], NIL);
        while at != NIL {
            let (entry, next) = self.nodes[at as usize];
            if live(&entry) {
                self.near.push(Reverse(entry));
            }
            self.nodes[at as usize].1 = self.free;
            self.free = at;
            at = next;
        }
        while let Some(&Reverse(entry)) = self.overflow.peek() {
            if bucket(entry.0) - self.cursor >= WHEEL_BUCKETS as u64 {
                break;
            }
            self.overflow.pop();
            if live(&entry) {
                self.push(entry);
            }
        }
        true
    }

    /// The first occupied wheel bucket after the cursor, by a circular
    /// scan of the occupancy bitmap from the cursor's successor.
    fn next_occupied(&mut self) -> Option<u64> {
        let words = self.occupied.len();
        let base = (self.cursor % WHEEL_BUCKETS as u64) as usize;
        let start = (base + 1) % WHEEL_BUCKETS;
        let mut word = start / 64;
        let mut mask = !0u64 << (start % 64);
        // One extra word: the scan ends where it began, on that word's
        // low bits.
        for _ in 0..=words {
            self.probes += 1;
            let bits = self.occupied[word] & mask;
            if bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                let ahead = (i + WHEEL_BUCKETS - base) % WHEEL_BUCKETS;
                return Some(self.cursor + ahead as u64);
            }
            word = (word + 1) % words;
            mask = !0;
        }
        None
    }
}

/// The emission schedule of every live source, stepped by its caller's
/// clock. Due entries are ordered `(time, slot, generation)`, so equal
/// times emit in install order.
#[derive(Default)]
pub struct SourcePump {
    slots: Vec<Slot>,
    free: Vec<usize>,
    due: Schedule,
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
            self.due.push((driver.next_time(), slot, s.generation));
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
    /// each non-empty one to `sink` with the node it is routed to (an
    /// empty one returns to the pump's pool, if it has one). A
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
        loop {
            // An entry whose slot was removed (or reused) is stale.
            let slots = &self.slots;
            let (at, slot, generation) = self
                .due
                .first(|&(_, slot, generation)| slots[slot].generation == generation)?;
            if at > now || swept == MAX_SWEEP {
                return Some(at.max(now));
            }
            self.due.pop();
            swept += 1;
            let s = &mut self.slots[slot];
            let driver = s.driver.as_mut().expect("live generation has a driver");
            driver.fast_forward(now);
            let batch = driver.emit();
            self.due.push((driver.next_time(), slot, generation));
            // Quiet-pattern batches can be empty: nothing to route, and a
            // pooled one goes straight back for the next beat.
            if batch.is_empty() {
                if let Some(pool) = &self.pool {
                    pool.recycle(batch.into_data());
                }
            } else {
                let routed = RoutedBatch {
                    query: driver.query,
                    fragment: s.fragment,
                    ingress: Ingress::Source(driver.source),
                    batch,
                };
                sink(s.node, routed);
            }
        }
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

    /// Five idle hours between two emissions are eighteen million empty
    /// buckets; finding the next due entry across them costs a bounded
    /// bitmap scan and a jump to the overflow, not a walk.
    #[test]
    fn an_idle_stretch_does_not_walk_its_buckets() {
        let profile = SourceProfile::steady(1, 1, Dataset::Uniform);
        let mut pump = SourcePump::default();
        pump.add(Timestamp::ZERO, [binding(0, 0, profile)]);
        let mut now = Timestamp::ZERO;
        for _ in 0..10 {
            now = pump.step(now, |_, _| {}).expect("live");
        }
        let before = pump.due.probes;
        let mut emitted = 0;
        let late = now + TimeDelta::from_secs(5 * 3_600);
        let next = pump.step(late, |_, _| emitted += 1).expect("live");
        assert!(next > late && next - late <= profile.interval());
        pump.step(next, |_, _| emitted += 1);
        assert_eq!(emitted, 2, "one re-anchored emission, then the next beat");
        let probes = pump.due.probes - before;
        let words = (WHEEL_BUCKETS / 64) as u64;
        assert!(probes <= 3 * (words + 2), "{probes} probes");
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
