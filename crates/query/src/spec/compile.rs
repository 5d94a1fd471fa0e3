//! The *Compiled* stage: infallible lowering of a [`ValidatedQuery`]
//! into the [`QuerySpec`] operator graph the runtimes execute.
//!
//! The lowerings generalise the Table-1 graphs over the draft's window,
//! stream counts and fragment count — at the Table-1 parameter values
//! they build those graphs *exactly*, operator for operator and grace
//! for grace, which the template parity tests and `tests/graph_pins.rs`
//! pin. The `GROUP BY` lowering compiles a shared tag dictionary into
//! every source so the window panes dispatch to the columnar grouped
//! sum/count kernel at runtime.
//!
//! Every fragment is built through one [`Frag`] and every source is
//! drawn through [`Lowering::source`], so a lowering only says which
//! operators a fragment holds and how they connect.

use std::ops::Range;

use themis_core::prelude::*;
use themis_operators::prelude::*;

use super::def::{AggFunc, QueryDef};
use super::validate::{Plan, ValidatedQuery};
use crate::graph::{
    FragmentSpec, LocalEdge, QuerySpec, SourceBinding, SourceSpec, TagSource, UpstreamBinding,
};

/// Base lateness grace for time windows (covers one shedding interval
/// plus LAN latency).
pub const GRACE_BASE: TimeDelta = TimeDelta(500_000);
/// Additional grace per upstream fragment hop, so merge windows wait
/// for partials that crossed the network and a shedding queue.
pub const GRACE_STEP: TimeDelta = TimeDelta(500_000);

fn chain_grace(pos: usize) -> TimeDelta {
    TimeDelta(GRACE_BASE.as_micros() + GRACE_STEP.as_micros() * pos as u64)
}

/// One fragment under construction: operators, edges, source bindings
/// and upstreams, each kept in push order.
#[derive(Default)]
struct Frag {
    operators: Vec<OperatorSpec>,
    edges: Vec<LocalEdge>,
    sources: Vec<SourceBinding>,
    upstreams: Vec<UpstreamBinding>,
}

impl Frag {
    /// Appends an operator and returns its local index.
    fn op(&mut self, spec: OperatorSpec) -> usize {
        self.operators.push(spec);
        self.operators.len() - 1
    }

    /// Appends a pass-through (unwindowed) operator.
    fn pass(&mut self, logic: LogicSpec) -> usize {
        self.op(OperatorSpec::new(WindowSpec::PassThrough, logic))
    }

    /// Appends `n` identity receivers for source inputs.
    fn receivers(&mut self, n: usize) -> Range<usize> {
        let start = self.operators.len();
        self.operators
            .resize_with(start + n, OperatorSpec::identity);
        start..start + n
    }

    fn edge(&mut self, from: usize, to: usize, port: usize) {
        self.edges.push(LocalEdge { from, to, port });
    }

    /// Connects every operator in `from` to port 0 of `to`.
    fn fan_in(&mut self, from: Range<usize>, to: usize) {
        for op in from {
            self.edge(op, to, 0);
        }
    }

    /// Connects each operator of `path` to port 0 of the next.
    fn line(&mut self, path: &[usize]) {
        for pair in path.windows(2) {
            self.edge(pair[0], pair[1], 0);
        }
    }

    /// Feeds the output of upstream fragment `fragment` into port 0 of
    /// `op`.
    fn upstream(&mut self, fragment: usize, op: usize) {
        self.upstreams.push(UpstreamBinding {
            fragment,
            op,
            port: 0,
        });
    }

    /// The finished fragment, emitting from `root`.
    fn done(self, root: usize) -> FragmentSpec {
        FragmentSpec {
            operators: self.operators,
            edges: self.edges,
            sources: self.sources,
            upstreams: self.upstreams,
            root,
        }
    }
}

/// One query under construction: the draft, the source-id generator
/// and the sources declared so far, in draw order.
struct Lowering<'a> {
    def: &'a QueryDef,
    ids: &'a mut IdGen,
    sources: Vec<SourceSpec>,
}

impl Lowering<'_> {
    /// A tumbling window of the draft's length.
    fn window(&self, logic: LogicSpec, grace: TimeDelta) -> OperatorSpec {
        OperatorSpec::with_grace(WindowSpec::tumbling(self.def.window), logic, grace)
    }

    /// Draws one fresh source id, declares the source `make` builds for
    /// it and binds it to port 0 of `op` in `frag`.
    fn source(&mut self, frag: &mut Frag, op: usize, make: impl FnOnce(SourceId) -> SourceSpec) {
        let source: SourceId = self.ids.next();
        self.sources.push(make(source));
        frag.sources.push(SourceBinding {
            source,
            op,
            port: 0,
        });
    }

    /// Assembles the query from its fragments.
    fn compile(
        self,
        id: QueryId,
        fragments: Vec<FragmentSpec>,
        result_fragment: usize,
    ) -> QuerySpec {
        QuerySpec {
            id,
            template: self.def.name.clone(),
            fragments,
            result_fragment,
            sources: self.sources,
        }
    }
}

pub(super) fn compile(vq: &ValidatedQuery, id: QueryId, ids: &mut IdGen) -> QuerySpec {
    let def = vq.def();
    let mut l = Lowering {
        def,
        ids,
        sources: Vec::new(),
    };
    // Chains report from their last fragment, trees from their root.
    let last = def.fragments - 1;
    let (fragments, result_fragment) = match vq.plan() {
        Plan::Simple { func, predicate } => (vec![lower_simple(&mut l, *func, *predicate)], 0),
        Plan::Tree => (lower_tree(&mut l), 0),
        Plan::TopK { k, threshold } => (lower_top_k(&mut l, *k, *threshold), last),
        Plan::CovChain => (lower_cov(&mut l), last),
        Plan::GroupBy { group } => (vec![lower_group_by(&mut l, group)], 0),
    };
    let spec = l.compile(id, fragments, result_fragment);
    debug_assert_eq!(spec.validate(), Ok(()));
    spec
}

/// `AVG`/`MAX`/`MIN`/`SUM`/`COUNT`: receivers -> optional filter ->
/// windowed aggregate -> output, in one fragment.
fn lower_simple(l: &mut Lowering<'_>, func: AggFunc, predicate: Option<Predicate>) -> FragmentSpec {
    let stream = &l.def.streams[0];
    let kind = stream.kind;
    // COUNT absorbs the predicate as its HAVING clause (Table 1's
    // `Count ... Having t.v >= 50`); other aggregates get a filter op.
    let (logic, filter) = match func {
        AggFunc::Avg => (LogicSpec::Avg { field: 0 }, predicate),
        AggFunc::Max => (LogicSpec::Max { field: 0 }, predicate),
        AggFunc::Min => (LogicSpec::Min { field: 0 }, predicate),
        AggFunc::Sum => (LogicSpec::Sum { field: 0 }, predicate),
        AggFunc::Count => (LogicSpec::Count { predicate }, None),
        AggFunc::Cov => unreachable!("COV lowers via Plan::CovChain"),
    };
    let mut f = Frag::default();
    let rx = f.receivers(stream.count);
    let filter = filter.map(|p| f.pass(LogicSpec::Filter(p)));
    let win = f.op(l.window(logic, GRACE_BASE));
    let out = f.op(OperatorSpec::identity());
    f.fan_in(rx.clone(), filter.unwrap_or(win));
    if let Some(filter) = filter {
        f.edge(filter, win, 0);
    }
    f.edge(win, out, 0);
    for op in rx {
        l.source(&mut f, op, |id| SourceSpec::plain(id, None, kind));
    }
    f.done(out)
}

/// `MERGE TREE` average (`AVG-all`): every fragment computes a
/// `[sum, count]` partial over its receivers; fragment 0 merges.
fn lower_tree(l: &mut Lowering<'_>) -> Vec<FragmentSpec> {
    let def = l.def;
    let stream = &def.streams[0];
    (0..def.fragments)
        .map(|fi| {
            let mut f = Frag::default();
            let rx = f.receivers(stream.count);
            // Window grouping all local sources, then the partial.
            let pane = f.op(l.window(LogicSpec::Identity, GRACE_BASE));
            let partial = f.pass(LogicSpec::PartialAvg { field: 0 });
            // Leaf output, or the root's merge of every leaf (depth 1).
            let out = f.op(if fi == 0 {
                l.window(LogicSpec::MergeAvg, chain_grace(1))
            } else {
                OperatorSpec::identity()
            });
            f.fan_in(rx.clone(), pane);
            f.line(&[pane, partial, out]);
            for op in rx {
                l.source(&mut f, op, |id| SourceSpec::plain(id, None, stream.kind));
            }
            if fi == 0 {
                for leaf in 1..def.fragments {
                    f.upstream(leaf, out);
                }
            }
            f.done(out)
        })
        .collect()
}

/// `TOP k .. BY` over a keyed two-stream join (`TOP-5`): chained
/// fragments each merge their local candidates with the upstream
/// partial list.
fn lower_top_k(l: &mut Lowering<'_>, k: usize, threshold: Option<Predicate>) -> Vec<FragmentSpec> {
    let def = l.def;
    let (left, right) = (&def.streams[0], &def.streams[1]);
    let c = left.count;
    let group_avg = LogicSpec::GroupAvg {
        key_field: 0,
        value_field: 1,
    };
    (0..def.fragments)
        .map(|fi| {
            let mut f = Frag::default();
            let (left_rx, right_rx) = (f.receivers(c), f.receivers(c));
            // Optional per-batch filter on the joined stream.
            let filter = threshold.map(|p| f.pass(LogicSpec::Filter(p)));
            let left_win = f.op(l.window(LogicSpec::Identity, GRACE_BASE));
            let right_win = f.op(l.window(LogicSpec::Identity, GRACE_BASE));
            // Per-key averages over the window panes, joined on the key.
            let left_avg = f.pass(group_avg.clone());
            let right_avg = f.pass(group_avg.clone());
            let join = LogicSpec::Join {
                left_key: 0,
                right_key: 0,
            };
            let join = f.op(l.window(join, GRACE_BASE));
            // Merge window combining local candidates and the upstream list.
            let merge = f.op(l.window(LogicSpec::Identity, chain_grace(fi)));
            let top = f.pass(LogicSpec::TopK {
                k,
                id_field: 0,
                value_field: 1,
            });
            let out = f.op(OperatorSpec::identity());
            f.fan_in(left_rx.clone(), left_win);
            f.fan_in(right_rx.clone(), filter.unwrap_or(right_win));
            if let Some(filter) = filter {
                f.edge(filter, right_win, 0);
            }
            f.edge(left_win, left_avg, 0);
            f.edge(right_win, right_avg, 0);
            f.edge(left_avg, join, 0);
            f.edge(right_avg, join, 1);
            f.line(&[join, merge, top, out]);
            // One left and one right source per key, drawn in that order.
            for (i, (lop, rop)) in left_rx.zip(right_rx).enumerate() {
                let key = Some((fi * c + i) as i64);
                l.source(&mut f, lop, |id| SourceSpec::plain(id, key, left.kind));
                l.source(&mut f, rop, |id| SourceSpec::plain(id, key, right.kind));
            }
            if fi > 0 {
                f.upstream(fi - 1, merge);
            }
            f.done(out)
        })
        .collect()
}

/// `COV`: chained fragments, each windowing the covariance of its two
/// sources and averaging in the upstream partial.
fn lower_cov(l: &mut Lowering<'_>) -> Vec<FragmentSpec> {
    let def = l.def;
    let kind = def.streams[0].kind;
    (0..def.fragments)
        .map(|fi| {
            let mut f = Frag::default();
            let rx = f.receivers(2);
            let cov = f.op(l.window(LogicSpec::Cov { field: 0 }, GRACE_BASE));
            let merge = f.op(l.window(LogicSpec::Identity, chain_grace(fi)));
            let avg = f.pass(LogicSpec::Avg { field: 0 });
            f.edge(rx.start, cov, 0);
            f.edge(rx.start + 1, cov, 1);
            f.line(&[cov, merge, avg]);
            for op in rx {
                l.source(&mut f, op, |id| SourceSpec::plain(id, None, kind));
            }
            if fi > 0 {
                f.upstream(fi - 1, merge);
            }
            f.done(avg)
        })
        .collect()
}

/// `GROUP BY` on a tag column: receivers -> window -> grouped
/// sum/count -> output, with every source sharing one tag dictionary
/// so the window panes hit `kernels::group_sum_count_f64`.
fn lower_group_by(l: &mut Lowering<'_>, group: &str) -> FragmentSpec {
    let stream = &l.def.streams[0];
    // One schema (and thus one interner) for the whole query: panes can
    // only take the columnar group path when all their tag columns
    // resolve against the same dictionary.
    let schema = Schema::new([
        (group.to_string(), FieldType::Tag),
        ("value".to_string(), FieldType::F64),
    ]);
    let dict = schema
        .interner()
        .expect("tag field implies an interner")
        .clone();
    let mut f = Frag::default();
    let rx = f.receivers(stream.count);
    let pane = f.op(l.window(LogicSpec::Identity, GRACE_BASE));
    let agg = f.pass(LogicSpec::GroupAggregate {
        key_field: 0,
        value_field: 1,
    });
    let out = f.op(OperatorSpec::identity());
    f.fan_in(rx.clone(), pane);
    f.line(&[pane, agg, out]);
    for (i, op) in rx.enumerate() {
        let label = format!("{}-{i}", stream.name);
        let code = dict.intern(&label);
        let tag = TagSource {
            label,
            code,
            schema: schema.clone(),
        };
        l.source(&mut f, op, |id| SourceSpec {
            id,
            key: None,
            kind: stream.kind,
            tag: Some(tag),
        });
    }
    f.done(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QueryDef;

    fn compile_text(text: &str) -> QuerySpec {
        let mut gen = IdGen::new();
        QueryDef::parse(text)
            .unwrap()
            .validate()
            .unwrap()
            .compile(QueryId(0), &mut gen)
    }

    #[test]
    fn compiled_specs_validate() {
        for text in [
            "SELECT AVG(value) FROM src WINDOW 1s",
            "SELECT SUM(value) FROM src[4] WHERE value >= 10 WINDOW 250ms",
            "SELECT AVG(value) FROM cpu[3] WINDOW 1s FRAGMENTS 4 MERGE TREE",
            "SELECT TOP 3 key BY AVG(value) FROM cpu[4] JOIN mem[4] ON key \
             WINDOW 1s FRAGMENTS 2",
            "SELECT COV(value) FROM cpu[2] WINDOW 1s FRAGMENTS 3",
            "SELECT host, SUM(value) FROM sensors[8] GROUP BY host WINDOW 1s",
        ] {
            let q = compile_text(text);
            assert_eq!(q.validate(), Ok(()), "{text}");
        }
    }

    #[test]
    fn where_inserts_a_filter_stage() {
        let plain = compile_text("SELECT SUM(value) FROM src[4] WINDOW 1s");
        let filtered = compile_text("SELECT SUM(value) FROM src[4] WHERE value >= 10 WINDOW 1s");
        assert_eq!(plain.fragments[0].n_operators(), 6);
        assert_eq!(filtered.fragments[0].n_operators(), 7);
        assert_eq!(
            filtered.fragments[0].operators[4].logic,
            LogicSpec::Filter(Predicate::new(0, CmpOp::Ge, 10.0))
        );
        // COUNT keeps the predicate inside the aggregate instead.
        let count = compile_text("SELECT COUNT(value) FROM src WHERE value >= 50 WINDOW 1s");
        assert_eq!(count.fragments[0].n_operators(), 3);
        assert_eq!(
            count.fragments[0].operators[1].logic,
            LogicSpec::Count {
                predicate: Some(Predicate::new(0, CmpOp::Ge, 50.0))
            }
        );
    }

    #[test]
    fn top_k_without_where_drops_the_filter_op() {
        let filtered = compile_text(
            "SELECT TOP 3 key BY AVG(value) FROM cpu[4] JOIN mem[4] ON key \
             WHERE mem.value >= 1 WINDOW 1s",
        );
        let open =
            compile_text("SELECT TOP 3 key BY AVG(value) FROM cpu[4] JOIN mem[4] ON key WINDOW 1s");
        assert_eq!(filtered.fragments[0].n_operators(), 17);
        assert_eq!(open.fragments[0].n_operators(), 16);
        open.validate().unwrap();
    }

    #[test]
    fn custom_windows_reach_every_windowed_operator() {
        let q = compile_text("SELECT AVG(value) FROM cpu[3] WINDOW 250ms FRAGMENTS 2 MERGE TREE");
        for f in &q.fragments {
            for op in &f.operators {
                if let WindowSpec::Tumbling { size } = op.window {
                    assert_eq!(size, TimeDelta::from_millis(250));
                }
            }
        }
    }

    #[test]
    fn group_by_shares_one_dictionary_across_sources() {
        let q = compile_text("SELECT host, SUM(value) FROM sensors[8] GROUP BY host WINDOW 1s");
        assert_eq!(q.sources.len(), 8);
        let first = q.sources[0].tag.as_ref().unwrap();
        let dict = first.schema.interner().unwrap();
        for (i, s) in q.sources.iter().enumerate() {
            let tag = s.tag.as_ref().unwrap();
            assert_eq!(tag.label, format!("sensors-{i}"));
            assert!(std::sync::Arc::ptr_eq(dict, tag.schema.interner().unwrap()));
            assert_eq!(tag.schema.field_name(0), Some("host"));
            assert_eq!(dict.resolve(tag.code).as_deref(), Some(tag.label.as_str()));
        }
        // The aggregate dispatches to the grouped kernel logic.
        assert_eq!(
            q.fragments[0].operators[9].logic,
            LogicSpec::GroupAggregate {
                key_field: 0,
                value_field: 1
            }
        );
    }
}
