//! Conservation on the one Figure-5 node (`themis_query::node`), for every
//! registered policy: every arrived tuple is kept, shed or still buffered —
//! exactly, at every step, not within a tolerance.

use proptest::prelude::*;
use themis_core::prelude::*;
use themis_query::prelude::*;

/// One step: `(kind, query, size, capacity)`. Kinds 0–2 enqueue a source
/// batch of `size` tuples for `query`, 3 applies a coordinator update, 4
/// ticks at the pinned `capacity`.
type Step = (u8, usize, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..5, 0usize..3, 1usize..60, 0usize..200), 1..60)
}

fn check(policy: &Policy, n_queries: usize, seed: u64, steps: &[Step]) {
    let name = policy.name();
    let mut ids = IdGen::new();
    let queries: Vec<QuerySpec> = (0..n_queries)
        .map(|q| Template::Avg.build(QueryId(q as u32), &mut ids))
        .collect();
    let mut node = Node::new(
        policy.build(seed),
        StwConfig::new(TimeDelta::from_secs(2), TimeDelta::from_millis(250)),
        OverloadDetector::new(TimeDelta::from_millis(250), 100),
    );
    for q in &queries {
        node.attach(q, 0, None);
    }
    let mut now = Timestamp::ZERO;
    for &(kind, query, size, capacity) in steps {
        now += TimeDelta::from_millis(50);
        let q = &queries[query % n_queries];
        match kind {
            0..=2 => {
                let src = q.sources[0].id;
                let tuples = (0..size)
                    .map(|i| Tuple::measurement(now, Sic::ZERO, i as f64))
                    .collect();
                let rb = RoutedBatch {
                    query: q.id,
                    fragment: 0,
                    ingress: Ingress::Source(src),
                    batch: Batch::from_source(q.id, src, now, tuples),
                };
                node.enqueue(rb, now);
            }
            3 => {
                node.apply_sic(&SicUpdate {
                    query: q.id,
                    node: NodeId(0),
                    sic: Sic(capacity as f64 / 200.0),
                });
            }
            _ => {
                node.pin_capacity(Some(capacity));
                // Conservation is about the input buffer: output is dropped.
                node.tick(now, drop, |_, _, _, _| {});
                let s = &node.stats;
                assert_eq!(node.buffered_tuples(), 0, "{name}: tick left tuples");
                assert_eq!(s.arrived_tuples, s.kept_tuples + s.shed_tuples, "{name}");
                continue;
            }
        }
        let s = &node.stats;
        let buffered = node.buffered_tuples() as u64;
        assert_eq!(
            s.arrived_tuples,
            s.kept_tuples + s.shed_tuples + buffered,
            "{name}"
        );
    }
}

proptest! {
    #[test]
    fn arrived_is_kept_plus_shed_plus_buffered(
        steps in steps(),
        n_queries in 1usize..4,
        seed in 0u64..1000,
    ) {
        for policy in registered_policies() {
            check(&policy, n_queries, seed, &steps);
        }
    }
}
