//! Query graphs and fragments (§3 "Query graph" / "Query deployment").
//!
//! A query is a DAG of operators partitioned into *fragments*: disjoint sets
//! of operators, each deployed on a different FSPS node. Fragments connect
//! to sources and to each other; one fragment's root operator emits the
//! query result stream.

use std::collections::HashSet;
use std::sync::OnceLock;

use themis_core::prelude::*;
use themis_operators::prelude::*;

/// Tuple-flow edge between two operators inside one fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalEdge {
    /// Producing operator (local index).
    pub from: usize,
    /// Consuming operator (local index).
    pub to: usize,
    /// Input port of the consumer.
    pub port: usize,
}

/// Binds a data source to an operator input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceBinding {
    /// The source.
    pub source: SourceId,
    /// Receiving operator (local index).
    pub op: usize,
    /// Input port of the receiver.
    pub port: usize,
}

/// Binds the output of an upstream fragment to an operator input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpstreamBinding {
    /// Index of the upstream fragment within the query.
    pub fragment: usize,
    /// Receiving operator (local index).
    pub op: usize,
    /// Input port of the receiver.
    pub port: usize,
}

/// What kind of data a source emits; the workload generator maps kinds to
/// value distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Generic measurement around a configurable mean (aggregate workload).
    Generic,
    /// Available-CPU percentage readings (TOP-5 workload).
    Cpu,
    /// Free-memory KB readings (TOP-5 workload; filtered at 100 000 KB).
    MemFree,
}

/// The declared row schema of unkeyed measurement sources: `[value: f64]`.
/// Every call hands out the one process-wide declaration, so batches of
/// any two such sources share it (`Schema::same_as`) and a schema check
/// on them is a pointer compare.
pub fn measurement_schema() -> Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA
        .get_or_init(|| Schema::new([("value", FieldType::F64)]))
        .clone()
}

/// The declared row schema of keyed sources: `[key: i64, value: f64]`
/// (the TOP-5 workload's node-id-tagged CPU and memory readings), shared
/// process-wide like [`measurement_schema`]'s.
pub fn keyed_measurement_schema() -> Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA
        .get_or_init(|| Schema::new([("key", FieldType::I64), ("value", FieldType::F64)]))
        .clone()
}

/// Dictionary-tag identity of a group-by source: the source stamps every
/// row with `label` (pre-interned as `code` in the query's shared
/// dictionary) so a downstream `GROUP BY` aggregates per source tag.
#[derive(Debug, Clone, PartialEq)]
pub struct TagSource {
    /// The tag string stamped on this source's rows.
    pub label: String,
    /// `label`'s code in `schema`'s shared [`TagInterner`].
    pub code: u32,
    /// The query-wide tag schema (`[<group column>: Tag, value: F64]`).
    /// Every source of the query holds a clone of the *same* schema, so
    /// all of their batches share one dictionary and the group-by kernel
    /// reads codes without re-interning.
    pub schema: Schema,
}

/// Declares one source of a query: its id, schema key and data kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceSpec {
    /// Globally unique source id.
    pub id: SourceId,
    /// Key value for keyed rows (`[key, value]`); `None` emits `[value]`.
    pub key: Option<i64>,
    /// Data kind.
    pub kind: SourceKind,
    /// Dictionary tag for group-by queries: when set, rows carry
    /// `[tag, value]` against the query's shared tag schema instead of a
    /// key layout. Mutually exclusive with `key`.
    pub tag: Option<TagSource>,
}

impl SourceSpec {
    /// An untagged source: `[key, value]` rows when `key` is set,
    /// `[value]` rows otherwise.
    pub fn plain(id: SourceId, key: Option<i64>, kind: SourceKind) -> Self {
        SourceSpec {
            id,
            key,
            kind,
            tag: None,
        }
    }

    /// The declared [`Schema`] of this source's rows. Source drivers build
    /// typed column batches against it, so every payload field travels as
    /// a contiguous native column from the source onward. Tagged sources
    /// return the query's shared tag schema (one dictionary per query).
    pub fn schema(&self) -> Schema {
        if let Some(tag) = &self.tag {
            return tag.schema.clone();
        }
        match self.key {
            Some(_) => keyed_measurement_schema(),
            None => measurement_schema(),
        }
    }
}

/// One query fragment: a local operator DAG plus its external bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentSpec {
    /// Operators of the fragment; the local index is the operator id.
    pub operators: Vec<OperatorSpec>,
    /// Intra-fragment edges.
    pub edges: Vec<LocalEdge>,
    /// Source inputs.
    pub sources: Vec<SourceBinding>,
    /// Upstream-fragment inputs.
    pub upstreams: Vec<UpstreamBinding>,
    /// The operator whose output leaves the fragment.
    pub root: usize,
}

impl FragmentSpec {
    /// Number of operators (Table 1 reports operators per fragment).
    pub fn n_operators(&self) -> usize {
        self.operators.len()
    }

    /// Topological order of the local operator DAG (Kahn's algorithm,
    /// smallest-index-first for determinism); `None` if cyclic.
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = self.operators.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for e in self.edges.iter().filter(|e| e.from == i) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    ready.push(Reverse(e.to));
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// A complete query: fragments, source declarations and the result fragment.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The query id.
    pub id: QueryId,
    /// Query name (a Table-1 row for template presets, the declared name
    /// for spec-compiled queries), for reports.
    pub template: String,
    /// Fragments; index is the fragment's position within the query.
    pub fragments: Vec<FragmentSpec>,
    /// Fragment whose root operator emits the query result.
    pub result_fragment: usize,
    /// All sources read by the query.
    pub sources: Vec<SourceSpec>,
}

/// Validation failure for a query spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An edge/binding references a missing operator.
    BadOperatorRef {
        /// Offending fragment.
        fragment: usize,
    },
    /// A fragment's local DAG contains a cycle.
    CyclicFragment {
        /// Offending fragment.
        fragment: usize,
    },
    /// The inter-fragment graph contains a cycle.
    CyclicFragmentGraph,
    /// `result_fragment` out of range.
    BadResultFragment,
    /// An upstream binding references a missing fragment.
    BadUpstreamRef {
        /// Offending fragment.
        fragment: usize,
    },
    /// A source is bound in a fragment but not declared in the query.
    UndeclaredSource {
        /// Offending fragment.
        fragment: usize,
        /// The missing source.
        source: SourceId,
    },
    /// The query has no fragments.
    Empty,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadOperatorRef { fragment } => {
                write!(f, "fragment {fragment}: edge references missing operator")
            }
            QueryError::CyclicFragment { fragment } => {
                write!(f, "fragment {fragment}: operator DAG is cyclic")
            }
            QueryError::CyclicFragmentGraph => write!(f, "fragment graph is cyclic"),
            QueryError::BadResultFragment => write!(f, "result fragment out of range"),
            QueryError::BadUpstreamRef { fragment } => {
                write!(f, "fragment {fragment}: upstream binding out of range")
            }
            QueryError::UndeclaredSource { fragment, source } => {
                write!(f, "fragment {fragment}: source {source} not declared")
            }
            QueryError::Empty => write!(f, "query has no fragments"),
        }
    }
}

impl std::error::Error for QueryError {}

impl QuerySpec {
    /// Number of sources (`|S|` of Eq. 1).
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of fragments.
    pub fn n_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// Total operators across fragments.
    pub fn n_operators(&self) -> usize {
        self.fragments.iter().map(FragmentSpec::n_operators).sum()
    }

    /// The fragment (if any) that consumes fragment `idx`'s output.
    pub fn downstream_of(&self, idx: usize) -> Option<usize> {
        self.fragments
            .iter()
            .position(|f| f.upstreams.iter().any(|u| u.fragment == idx))
    }

    /// Where fragment `fi`'s output goes when each fragment `f` runs on
    /// `nodes[f]`: `(node, fragment)` of its consumer, or `None` when it
    /// reports the query's results (the result fragment, or one nothing
    /// consumes).
    pub fn downstream_route(&self, fi: usize, nodes: &[usize]) -> Option<(usize, usize)> {
        if fi == self.result_fragment {
            return None;
        }
        self.downstream_of(fi).map(|d| (nodes[d], d))
    }

    /// Checks structural invariants.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.fragments.is_empty() {
            return Err(QueryError::Empty);
        }
        if self.result_fragment >= self.fragments.len() {
            return Err(QueryError::BadResultFragment);
        }
        let declared: HashSet<SourceId> = self.sources.iter().map(|s| s.id).collect();
        for (fi, frag) in self.fragments.iter().enumerate() {
            let n = frag.operators.len();
            let op_ok = frag.edges.iter().all(|e| e.from < n && e.to < n)
                && frag.sources.iter().all(|s| s.op < n)
                && frag.upstreams.iter().all(|u| u.op < n)
                && frag.root < n;
            if !op_ok {
                return Err(QueryError::BadOperatorRef { fragment: fi });
            }
            if frag.topo_order().is_none() {
                return Err(QueryError::CyclicFragment { fragment: fi });
            }
            for u in &frag.upstreams {
                if u.fragment >= self.fragments.len() || u.fragment == fi {
                    return Err(QueryError::BadUpstreamRef { fragment: fi });
                }
            }
            for s in &frag.sources {
                if !declared.contains(&s.source) {
                    return Err(QueryError::UndeclaredSource {
                        fragment: fi,
                        source: s.source,
                    });
                }
            }
        }
        // Inter-fragment acyclicity via DFS colouring.
        let n = self.fragments.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        fn dfs(i: usize, specs: &[FragmentSpec], state: &mut [u8]) -> bool {
            state[i] = 1;
            for u in &specs[i].upstreams {
                let st = state[u.fragment];
                if st == 1 || (st == 0 && !dfs(u.fragment, specs, state)) {
                    return false;
                }
            }
            state[i] = 2;
            true
        }
        for i in 0..n {
            if state[i] == 0 && !dfs(i, &self.fragments, &mut state) {
                return Err(QueryError::CyclicFragmentGraph);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_operators::logic::LogicSpec;
    use themis_operators::window::WindowSpec;

    fn identity_frag(n_ops: usize, root: usize) -> FragmentSpec {
        FragmentSpec {
            operators: (0..n_ops).map(|_| OperatorSpec::identity()).collect(),
            edges: (1..n_ops)
                .map(|i| LocalEdge {
                    from: i - 1,
                    to: i,
                    port: 0,
                })
                .collect(),
            sources: vec![SourceBinding {
                source: SourceId(0),
                op: 0,
                port: 0,
            }],
            upstreams: vec![],
            root,
        }
    }

    fn simple_query() -> QuerySpec {
        QuerySpec {
            id: QueryId(0),
            template: "test".to_string(),
            fragments: vec![identity_frag(3, 2)],
            result_fragment: 0,
            sources: vec![SourceSpec::plain(SourceId(0), None, SourceKind::Generic)],
        }
    }

    #[test]
    fn valid_query_passes() {
        assert_eq!(simple_query().validate(), Ok(()));
    }

    #[test]
    fn counts() {
        let q = simple_query();
        assert_eq!(q.n_sources(), 1);
        assert_eq!(q.n_fragments(), 1);
        assert_eq!(q.n_operators(), 3);
    }

    #[test]
    fn topo_order_linear_chain() {
        let f = identity_frag(4, 3);
        assert_eq!(f.topo_order(), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn cyclic_fragment_rejected() {
        let mut q = simple_query();
        q.fragments[0].edges.push(LocalEdge {
            from: 2,
            to: 0,
            port: 0,
        });
        assert_eq!(
            q.validate(),
            Err(QueryError::CyclicFragment { fragment: 0 })
        );
    }

    #[test]
    fn bad_refs_rejected() {
        let mut q = simple_query();
        q.fragments[0].root = 9;
        assert_eq!(
            q.validate(),
            Err(QueryError::BadOperatorRef { fragment: 0 })
        );

        let mut q = simple_query();
        q.result_fragment = 5;
        assert_eq!(q.validate(), Err(QueryError::BadResultFragment));

        let mut q = simple_query();
        q.fragments[0].sources[0].source = SourceId(99);
        assert!(matches!(
            q.validate(),
            Err(QueryError::UndeclaredSource { .. })
        ));
    }

    #[test]
    fn upstream_cycle_rejected() {
        let mut q = simple_query();
        let mut f2 = identity_frag(2, 1);
        f2.sources.clear();
        f2.upstreams.push(UpstreamBinding {
            fragment: 0,
            op: 0,
            port: 0,
        });
        q.fragments.push(f2);
        q.fragments[0].upstreams.push(UpstreamBinding {
            fragment: 1,
            op: 0,
            port: 0,
        });
        assert_eq!(q.validate(), Err(QueryError::CyclicFragmentGraph));
    }

    #[test]
    fn self_upstream_rejected() {
        let mut q = simple_query();
        q.fragments[0].upstreams.push(UpstreamBinding {
            fragment: 0,
            op: 0,
            port: 0,
        });
        assert_eq!(
            q.validate(),
            Err(QueryError::BadUpstreamRef { fragment: 0 })
        );
    }

    #[test]
    fn downstream_lookup() {
        let mut q = simple_query();
        let mut f2 = identity_frag(2, 1);
        f2.sources.clear();
        f2.upstreams.push(UpstreamBinding {
            fragment: 0,
            op: 0,
            port: 0,
        });
        q.fragments.push(f2);
        assert_eq!(q.downstream_of(0), Some(1));
        assert_eq!(q.downstream_of(1), None);
    }

    #[test]
    fn diamond_topo_order() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let f = FragmentSpec {
            operators: (0..4).map(|_| OperatorSpec::identity()).collect(),
            edges: vec![
                LocalEdge {
                    from: 0,
                    to: 1,
                    port: 0,
                },
                LocalEdge {
                    from: 0,
                    to: 2,
                    port: 0,
                },
                LocalEdge {
                    from: 1,
                    to: 3,
                    port: 0,
                },
                LocalEdge {
                    from: 2,
                    to: 3,
                    port: 0,
                },
            ],
            sources: vec![],
            upstreams: vec![],
            root: 3,
        };
        let topo = f.topo_order().unwrap();
        let pos = |x: usize| topo.iter().position(|&i| i == x).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn windowed_spec_in_fragment() {
        // Sanity: fragments can carry non-identity specs.
        let f = FragmentSpec {
            operators: vec![OperatorSpec::new(
                WindowSpec::tumbling(TimeDelta::from_secs(1)),
                LogicSpec::Avg { field: 0 },
            )],
            edges: vec![],
            sources: vec![],
            upstreams: vec![],
            root: 0,
        };
        assert_eq!(f.n_operators(), 1);
        assert!(f.topo_order().is_some());
    }
}
