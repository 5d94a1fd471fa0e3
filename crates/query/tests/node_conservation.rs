//! Conservation on the one Figure-5 node (`themis_query::node`), for every
//! registered policy: every arrived tuple is kept, shed or still buffered —
//! exactly, at every step, not within a tolerance, across query detach and
//! re-attach and stray batches; and batches for fragments the node does not
//! host are shed on arrival instead of competing with hosted queries. Plus
//! the node's fragment slab: a re-attached fragment's new incarnation
//! ingests nothing buffered for the old one, and a checkpoint does not
//! depend on the order fragments were attached in.

use proptest::prelude::*;
use themis_core::prelude::*;
use themis_core::wal::{encode_record, WalRecord};
use themis_query::prelude::*;

/// One step: `(kind, query, size, capacity)`. Kinds 0–2 enqueue a source
/// batch of `size` tuples for `query`, 3 applies a coordinator update, 4
/// ticks at the pinned `capacity`, 5 detaches `query` (re-attaching it when
/// already detached), 6 enqueues a stray batch: for `query`'s fragment 1,
/// which no node hosts, or for a query never attached.
type Step = (u8, usize, usize, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..7, 0usize..3, 1usize..60, 0usize..200), 1..60)
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
            6 => {
                let (query, fragment) = match capacity % 2 {
                    0 => (q.id, 1),
                    _ => (QueryId(1_000 + query as u32), 0),
                };
                node.enqueue(
                    source_batch(query, fragment, q.sources[0].id, now, size),
                    now,
                );
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
                node.tick(now, |_, _, _, _| {});
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
        // Only hosted tuples are buffered, so whatever the tick sheds the
        // hosted query loses.
        let strays_shed = node.stats.shed_tuples;
        node.tick(now, |_, _, _, _| {});
        let s = &node.stats;
        let hosted_shed = s.shed_tuples - strays_shed;
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

/// Ticks `node` at `ms`, collecting `(query, rows)` per emission.
fn tick(node: &mut Node, ms: u64, results: &mut Vec<(QueryId, usize)>) -> u64 {
    node.tick(Timestamp::from_millis(ms), |query, _, _, e| {
        results.extend(e.into_iter().map(|e| (query, e.batch().len())));
    })
}

/// A batch buffered for a fragment, then the fragment detached and
/// attached again before the tick: the purge counts it as shed, and the
/// new incarnation ingests nothing, so no pane of the old batch ever
/// closes. A batch enqueued after the re-attach does reach it.
#[test]
fn a_reattached_fragment_ingests_nothing_buffered_before() {
    let mut ids = IdGen::new();
    let q = Template::Avg.build(QueryId(0), &mut ids);
    let other = Template::Avg.build(QueryId(1), &mut ids);
    let src = q.sources[0].id;
    let mut node = new_node(&Policy::default(), 3);
    node.attach(&q, 0, None);
    node.attach(&other, 0, None);
    let at = Timestamp::from_millis(100);
    node.enqueue(source_batch(q.id, 0, src, at, 7), at);
    node.detach(q.id);
    // The freed slot goes to the next attach: the same fragment again.
    node.attach(&q, 0, None);
    let mut results = Vec::new();
    assert_eq!(tick(&mut node, 250, &mut results), 0, "nothing admitted");
    for ms in [500, 750, 1_000, 1_250, 1_500, 1_750] {
        tick(&mut node, ms, &mut results);
    }
    assert!(
        results.is_empty(),
        "the old batch's pane closed: {results:?}"
    );
    let s = &node.stats;
    assert_eq!((s.arrived_tuples, s.kept_tuples, s.shed_tuples), (7, 0, 7));
    let at = Timestamp::from_millis(2_100);
    node.enqueue(source_batch(q.id, 0, src, at, 4), at);
    for ms in [2_250, 2_500, 2_750, 3_000, 3_250, 3_500] {
        tick(&mut node, ms, &mut results);
    }
    assert_eq!(
        results,
        [(q.id, 1)],
        "the new incarnation's own pane closed"
    );
}

/// The encoded checkpoint of `node` (global index 0).
fn checkpoint_bytes(node: &Node) -> (NodeSnapshot, Vec<u8>) {
    let snap = node.checkpoint(0);
    let mut bytes = Vec::new();
    encode_record(&WalRecord::Snapshot(snap.clone()), &mut bytes);
    (snap, bytes)
}

/// Five queries attached in different orders — and with a detach and
/// re-attach moving some to other slots — then fed the same batches:
/// their checkpoints list the same panes in `(query, fragment)` order and
/// encode to the same bytes.
#[test]
fn checkpoint_panes_do_not_depend_on_attach_order() {
    let mut ids = IdGen::new();
    let queries: Vec<QuerySpec> = (0..5)
        .map(|q| Template::Avg.build(QueryId(q), &mut ids))
        .collect();
    let build = |order: &[usize], churn: bool| {
        let mut node = new_node(&Policy::default(), 5);
        for &i in order {
            node.attach(&queries[i], 0, None);
        }
        if churn {
            for &i in &order[..2] {
                node.detach(queries[i].id);
            }
            for &i in order[..2].iter().rev() {
                node.attach(&queries[i], 0, None);
            }
        }
        for (k, q) in queries.iter().enumerate() {
            let at = Timestamp::from_millis(100 + 10 * k as u64);
            node.enqueue(source_batch(q.id, 0, q.sources[0].id, at, 1 + k), at);
        }
        node.tick(Timestamp::from_millis(250), |_, _, _, _| {});
        checkpoint_bytes(&node)
    };
    let (reference, bytes) = build(&[0, 1, 2, 3, 4], false);
    let keys: Vec<(QueryId, usize)> = reference
        .panes
        .iter()
        .map(|p| (p.query, p.fragment))
        .collect();
    let sorted: Vec<(QueryId, usize)> = (0..5).map(|q| (QueryId(q), 0)).collect();
    assert_eq!(keys, sorted, "one open pane per query, in query order");
    for (order, churn) in [
        ([4, 3, 2, 1, 0], false),
        ([2, 0, 4, 1, 3], false),
        ([3, 1, 4, 0, 2], true),
    ] {
        let (snap, encoded) = build(&order, churn);
        assert_eq!(snap, reference, "attach order {order:?}, churn {churn}");
        assert_eq!(encoded, bytes, "attach order {order:?}, churn {churn}");
    }
}
