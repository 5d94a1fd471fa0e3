//! Conservation on the one Figure-5 node (`themis_query::node`), for every
//! registered policy: every arrived tuple is kept, shed or still buffered —
//! exactly, at every step, not within a tolerance, across query detach and
//! re-attach; and batches for fragments the node does not host are shed on
//! arrival instead of competing with hosted queries.

use proptest::prelude::*;
use themis_core::prelude::*;
use themis_query::prelude::*;

/// One step: `(kind, query, size, capacity)`. Kinds 0–2 enqueue a source
/// batch of `size` tuples for `query`, 3 applies a coordinator update, 4
/// ticks at the pinned `capacity`, 5 detaches `query` (re-attaching it when
/// already detached).
type Step = (u8, usize, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..6, 0usize..3, 1usize..60, 0usize..200), 1..60)
}

fn new_node(policy: &Policy, seed: u64) -> Node {
    Node::new(
        policy.build(seed),
        StwConfig::new(TimeDelta::from_secs(2), TimeDelta::from_millis(250)),
        OverloadDetector::new(TimeDelta::from_millis(250), 100),
    )
}

/// A batch of `size` tuples from `src`, routed to `(query, fragment)`.
fn source_batch(
    query: QueryId,
    fragment: usize,
    src: SourceId,
    now: Timestamp,
    size: usize,
) -> RoutedBatch {
    let tuples = (0..size)
        .map(|i| Tuple::measurement(now, Sic::ZERO, i as f64))
        .collect();
    RoutedBatch {
        query,
        fragment,
        ingress: Ingress::Source(src),
        batch: Batch::from_source(query, src, now, tuples),
    }
}

fn check(policy: &Policy, n_queries: usize, seed: u64, steps: &[Step]) {
    let name = policy.name();
    let mut ids = IdGen::new();
    let queries: Vec<QuerySpec> = (0..n_queries)
        .map(|q| Template::Avg.build(QueryId(q as u32), &mut ids))
        .collect();
    let mut node = new_node(policy, seed);
    for q in &queries {
        node.attach(q, 0, None);
    }
    let mut attached = vec![true; n_queries];
    let mut now = Timestamp::ZERO;
    for &(kind, query, size, capacity) in steps {
        now += TimeDelta::from_millis(50);
        let q = &queries[query % n_queries];
        match kind {
            0..=2 => node.enqueue(source_batch(q.id, 0, q.sources[0].id, now, size), now),
            3 => {
                node.apply_sic(&SicUpdate {
                    query: q.id,
                    node: NodeId(0),
                    sic: Sic(capacity as f64 / 200.0),
                });
            }
            5 => {
                let a = &mut attached[query % n_queries];
                if *a {
                    node.detach(q.id);
                } else {
                    node.attach(q, 0, None);
                }
                *a = !*a;
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

/// Batches for fragments the node does not host (an unknown query, or a
/// hosted query's wrong fragment) are shed on arrival: under every policy
/// the hosted query keeps all of its tuples at exactly its capacity, and
/// `kept_tuples` counts only hosted tuples.
#[test]
fn unhosted_batches_cost_the_hosted_query_nothing() {
    let hosted = Template::Avg.build(QueryId(0), &mut IdGen::new());
    let src = hosted.sources[0].id;
    let now = Timestamp::from_secs(1);
    for policy in registered_policies() {
        let name = policy.name();
        let mut node = new_node(&policy, 7);
        node.attach(&hosted, 0, None);
        node.pin_capacity(Some(100));
        // Strays: an unknown query, and the hosted query's fragment 1.
        for (query, fragment) in [(99, 0), (0, 1), (99, 0), (0, 1)] {
            node.enqueue(source_batch(QueryId(query), fragment, src, now, 25), now);
            node.enqueue(source_batch(hosted.id, 0, src, now, 25), now);
        }
        let buffered = node.buffered_tuples();
        assert_eq!(buffered, 100, "{name}: only hosted tuples wait");
        let mut hosted_shed = 0;
        let count_hosted = |rb: RoutedBatch| {
            if (rb.query, rb.fragment) == (hosted.id, 0) {
                hosted_shed += rb.batch.len();
            }
        };
        node.tick(now, count_hosted, |_, _, _, _| {});
        let s = &node.stats;
        assert_eq!(hosted_shed, 0, "{name}: the hosted query lost tuples");
        let counts = (s.arrived_tuples, s.kept_tuples, s.shed_tuples);
        assert_eq!((counts, s.shed_batches), ((200, 100, 100), 4), "{name}");
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
