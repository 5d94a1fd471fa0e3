//! Fragment runtime: instantiates a [`FragmentSpec`]'s operator DAG and
//! pushes tuples through it in topological order.
//!
//! Both the discrete-event simulator and the multi-threaded engine drive
//! fragments through this runtime: columnar batches accepted by the shedder
//! are [`FragmentRuntime::ingest`]ed (a move of the batch's columns, not a
//! per-tuple copy), and logical time advances via
//! [`FragmentRuntime::tick`]. An emission moves to its sole downstream
//! operator (only fan-out clones), and a tick with no due pane does no
//! work at all. Emissions of the fragment's root operator are
//! returned to the caller, which routes them to the downstream fragment (or
//! to the user as query results).

use std::collections::HashMap;

use themis_core::prelude::*;
use themis_operators::prelude::*;

use crate::graph::FragmentSpec;

/// Where an injected batch enters the fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ingress {
    /// A batch from a data source.
    Source(SourceId),
    /// A batch produced by the given upstream fragment of the same query.
    Upstream(usize),
}

/// An instantiated fragment: operators plus routing tables.
pub struct FragmentRuntime {
    ops: Vec<WindowedOperator>,
    /// Per-operator downstream targets `(op, port)`.
    downstream: Vec<Vec<(usize, usize)>>,
    topo: Vec<usize>,
    ingress: HashMap<Ingress, (usize, usize)>,
    root: usize,
}

impl FragmentRuntime {
    /// Builds the runtime; the spec must be valid (see
    /// [`FragmentSpec::topo_order`]).
    pub fn new(spec: &FragmentSpec) -> Self {
        let ops: Vec<WindowedOperator> = spec.operators.iter().map(OperatorSpec::build).collect();
        let mut downstream = vec![Vec::new(); ops.len()];
        for e in &spec.edges {
            downstream[e.from].push((e.to, e.port));
        }
        let mut ingress = HashMap::new();
        for s in &spec.sources {
            ingress.insert(Ingress::Source(s.source), (s.op, s.port));
        }
        for u in &spec.upstreams {
            ingress.insert(Ingress::Upstream(u.fragment), (u.op, u.port));
        }
        let topo = spec.topo_order().expect("fragment spec must be acyclic");
        FragmentRuntime {
            ops,
            downstream,
            topo,
            ingress,
            root: spec.root,
        }
    }

    /// The root operator's local index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Attaches a [`BatchPool`] to every operator: spent input and pane
    /// batches recycle instead of round-tripping the allocator (see
    /// [`WindowedOperator::set_pool`]).
    pub fn set_pool(&mut self, pool: &BatchPool) {
        for op in &mut self.ops {
            op.set_pool(pool.clone());
        }
    }

    /// Injects a columnar batch arriving through `ingress`; returns root
    /// emissions triggered synchronously (pass-through chains).
    pub fn ingest(
        &mut self,
        ingress: Ingress,
        batch: impl Into<TupleBatch>,
        now: Timestamp,
    ) -> Vec<Emission> {
        let Some(&(op, port)) = self.ingress.get(&ingress) else {
            // Unroutable data (e.g. a stale batch after reconfiguration) is
            // dropped; its SIC mass is lost like any shed tuple.
            return Vec::new();
        };
        self.run(now, Some((op, port, batch.into())))
    }

    /// Advances logical time: closes due windows on every operator, in
    /// topological order, cascading intra-fragment emissions. Returns at
    /// once — without allocating or running an operator — when no window
    /// has a due pane, which is most ticks of a slow source's fragment.
    pub fn tick(&mut self, now: Timestamp) -> Vec<Emission> {
        if !self.has_due(now) {
            return Vec::new();
        }
        self.run(now, None)
    }

    /// True when [`FragmentRuntime::tick`] at `now` has a pane to close.
    pub fn has_due(&self, now: Timestamp) -> bool {
        self.ops.iter().any(|op| op.has_due(now))
    }

    /// When [`FragmentRuntime::tick`] next has work: the earliest
    /// [`WindowedOperator::next_due`] over the operators (`Timestamp::ZERO`
    /// when a pane is ready now), `None` while no operator holds a pane.
    /// A tick before this instant returns at once.
    pub fn next_due(&self) -> Option<Timestamp> {
        self.ops.iter().filter_map(WindowedOperator::next_due).min()
    }

    /// Total tuples buffered in open windows across operators.
    pub fn buffered_tuples(&self) -> usize {
        self.ops.iter().map(WindowedOperator::buffered_tuples).sum()
    }

    /// Exports every operator's buffered window panes for checkpointing:
    /// `(op index, pane key, port, batch)` entries, ops addressed by their
    /// position (stable for a given spec).
    pub fn snapshot_windows(&self) -> Vec<(usize, PaneKey, usize, TupleBatch)> {
        let mut out = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            for (key, port, batch) in op.export_window() {
                out.push((i, key, port, batch));
            }
        }
        out
    }

    /// Restores one checkpointed pane into operator `op` (by position);
    /// entries for vanished operator indices are ignored — the bounded
    /// divergence a reconfigured restore accepts.
    pub fn restore_window(&mut self, op: usize, key: PaneKey, port: usize, batch: TupleBatch) {
        if let Some(op) = self.ops.get_mut(op) {
            op.import_window(key, port, batch);
        }
    }

    fn run(
        &mut self,
        now: Timestamp,
        initial: Option<(usize, usize, TupleBatch)>,
    ) -> Vec<Emission> {
        // A batch is fed to its operator as soon as it exists: every
        // target lies later in topological order, so each operator holds
        // all of its input (all ports!) before its turn to drain, and
        // multi-port operators never close a pane with partial input.
        // Feeding only buffers, so no pending list is needed.
        if let Some((op, port, batch)) = initial {
            self.ops[op].feed(port, batch, now);
        }
        let mut results = Vec::new();
        for &i in &self.topo {
            let emissions = self.ops[i].tick(now);
            if emissions.is_empty() {
                continue;
            }
            if i == self.root {
                // The root runs once per pass: its emissions are the
                // result, moved rather than copied into a second vector.
                results = emissions;
                continue;
            }
            let Some((&(last, last_port), rest)) = self.downstream[i].split_last() else {
                continue;
            };
            for e in emissions {
                // Columnar clones for all but the last target (a handful
                // of memcpys, not one allocation per tuple); the last —
                // usually the only one — takes the batch by move.
                for &(to, port) in rest {
                    self.ops[to].feed(port, e.batch().clone(), now);
                }
                self.ops[last].feed(last_port, e.into_batch(), now);
            }
        }
        results
    }
}

impl std::fmt::Debug for FragmentRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FragmentRuntime")
            .field("ops", &self.ops.len())
            .field("root", &self.root)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::Template;

    fn source_tuples(key: Option<i64>, n: usize, ms: u64, sic: f64, v: f64) -> Vec<Tuple> {
        (0..n)
            .map(|_| {
                let values = match key {
                    Some(k) => vec![Value::I64(k), Value::F64(v)],
                    None => vec![Value::F64(v)],
                };
                Tuple::new(Timestamp::from_millis(ms), Sic(sic), values)
            })
            .collect()
    }

    #[test]
    fn avg_query_end_to_end() {
        let mut gen = IdGen::new();
        let q = Template::Avg.build(QueryId(0), &mut gen);
        let mut rt = FragmentRuntime::new(&q.fragments[0]);
        let src = q.sources[0].id;
        // 10 tuples of value 40 and 10 of value 60 within the first second.
        rt.ingest(
            Ingress::Source(src),
            source_tuples(None, 10, 100, 0.05, 40.0),
            Timestamp::from_millis(100),
        );
        rt.ingest(
            Ingress::Source(src),
            source_tuples(None, 10, 600, 0.05, 60.0),
            Timestamp::from_millis(600),
        );
        // Window [0,1s) closes after its grace (500 ms).
        assert!(rt.tick(Timestamp::from_millis(1000)).is_empty());
        let out = rt.tick(Timestamp::from_millis(1500));
        assert_eq!(out.len(), 1);
        let result = out[0].batch().row(0).to_tuple();
        assert_eq!(result.f64(0), 50.0);
        // All source SIC mass arrives at the result: 20 * 0.05 = 1.0.
        assert!((result.sic.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unroutable_ingress_is_dropped() {
        let mut gen = IdGen::new();
        let q = Template::Avg.build(QueryId(0), &mut gen);
        let mut rt = FragmentRuntime::new(&q.fragments[0]);
        let out = rt.ingest(
            Ingress::Source(SourceId(999)),
            source_tuples(None, 5, 0, 0.1, 1.0),
            Timestamp(0),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn cov_fragment_produces_covariance() {
        let mut gen = IdGen::new();
        let q = Template::Cov { fragments: 1 }.build(QueryId(0), &mut gen);
        let mut rt = FragmentRuntime::new(&q.fragments[0]);
        let (s0, s1) = (q.sources[0].id, q.sources[1].id);
        // Positively correlated series.
        for i in 0..8u64 {
            let ms = 100 * i + 50;
            rt.ingest(
                Ingress::Source(s0),
                source_tuples(None, 1, ms, 0.0625, i as f64),
                Timestamp::from_millis(ms),
            );
            rt.ingest(
                Ingress::Source(s1),
                source_tuples(None, 1, ms, 0.0625, 2.0 * i as f64),
                Timestamp::from_millis(ms),
            );
        }
        // COV merge window sits at chain position 0 (grace 500 ms), but the
        // merge window consumes cov outputs stamped at 1s-1us, closing at
        // 1s + grace; tick well past it.
        let out = rt.tick(Timestamp::from_millis(2500));
        assert_eq!(out.len(), 1, "one covariance result");
        assert!(out[0].batch().row(0).f64(0) > 0.0, "positive covariance");
        // Mass: 16 tuples * 0.0625 = 1.0.
        assert!((out[0].sic().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top5_fragment_emits_ranked_list() {
        let mut gen = IdGen::new();
        let q = Template::Top5 { fragments: 1 }.build(QueryId(0), &mut gen);
        let mut rt = FragmentRuntime::new(&q.fragments[0]);
        // Feed each cpu source a distinct load, all mem sources pass filter.
        for (i, s) in q.sources.iter().enumerate() {
            let key = s.key.unwrap();
            let (v, n) = match s.kind {
                crate::graph::SourceKind::Cpu => (10.0 + key as f64, 4),
                _ => (200_000.0, 4),
            };
            let _ = i;
            rt.ingest(
                Ingress::Source(s.id),
                source_tuples(Some(key), n, 500, 1.0 / 80.0, v),
                Timestamp::from_millis(500),
            );
        }
        let out = rt.tick(Timestamp::from_millis(2500));
        assert_eq!(out.len(), 1);
        let rows = out[0].batch();
        assert_eq!(rows.len(), 5, "top-5 list");
        // Highest CPU id is 9 (value 19.0).
        assert_eq!(rows.row(0).i64(0), 9);
        // All 80 source tuples contributed: mass 1.
        assert!((out[0].sic().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn avg_all_tree_merges_partials() {
        let mut gen = IdGen::new();
        let q = Template::AvgAll { fragments: 3 }.build(QueryId(0), &mut gen);
        let mut roots: Vec<FragmentRuntime> =
            q.fragments.iter().map(FragmentRuntime::new).collect();
        // Feed every fragment's sources; leaf f gets values f*10.
        for (fi, frag) in q.fragments.iter().enumerate() {
            for b in &frag.sources {
                roots[fi].ingest(
                    Ingress::Source(b.source),
                    source_tuples(None, 2, 300, 1.0 / 60.0, (fi * 10) as f64),
                    Timestamp::from_millis(300),
                );
            }
        }
        // Leaves emit partials after 1 s + 500 ms grace.
        let mut partials = Vec::new();
        for (fi, rt) in roots.iter_mut().enumerate().skip(1) {
            let out = rt.tick(Timestamp::from_millis(1600));
            assert_eq!(out.len(), 1, "leaf {fi} partial");
            partials.push((fi, out.into_iter().next().unwrap()));
        }
        // Root merges local + upstream partials; its merge grace is 1 s.
        for (fi, e) in partials {
            roots[0].ingest(
                Ingress::Upstream(fi),
                e.into_batch(),
                Timestamp::from_millis(1650),
            );
        }
        let out = roots[0].tick(Timestamp::from_millis(2600));
        assert_eq!(out.len(), 1, "final average");
        let avg = out[0].batch().row(0).f64(0);
        // 20 tuples each of 0, 10, 20 -> global average 10.
        assert!((avg - 10.0).abs() < 1e-9, "avg {avg}");
        // Full SIC mass: 60 tuples * 1/60.
        assert!((out[0].sic().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pooled_runtime_recycles_spent_batches() {
        let mut gen = IdGen::new();
        let q = Template::Avg.build(QueryId(0), &mut gen);
        let mut rt = FragmentRuntime::new(&q.fragments[0]);
        let pool = BatchPool::new();
        rt.set_pool(&pool);
        let src = q.sources[0].clone();
        let mut b = pool.acquire(&src.schema(), 2);
        for v in [40.0, 60.0] {
            b.push_row(Timestamp::from_millis(100), Sic(0.05), &[Value::F64(v)]);
        }
        rt.ingest(Ingress::Source(src.id), b, Timestamp::from_millis(100));
        let out = rt.tick(Timestamp::from_millis(1500));
        assert_eq!(out.len(), 1);
        // The ingested batch and the closed pane's columns came back.
        let stats = pool.stats();
        assert!(stats.recycled >= 2, "{stats:?}");
        assert!(pool.idle() >= 1);
        // A later acquisition of the same schema reuses a pooled slot.
        let _ = pool.acquire(&src.schema(), 2);
        assert!(pool.stats().reused >= 1);
    }

    #[test]
    fn buffered_tuples_reflects_open_windows() {
        let mut gen = IdGen::new();
        let q = Template::Avg.build(QueryId(0), &mut gen);
        let mut rt = FragmentRuntime::new(&q.fragments[0]);
        rt.ingest(
            Ingress::Source(q.sources[0].id),
            source_tuples(None, 7, 100, 0.1, 1.0),
            Timestamp::from_millis(100),
        );
        assert_eq!(rt.buffered_tuples(), 7);
        rt.tick(Timestamp::from_millis(1500));
        assert_eq!(rt.buffered_tuples(), 0);
    }
}
