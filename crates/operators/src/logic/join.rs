//! Windowed equi-join (the TOP-5 workload joins CPU and memory streams on
//! node id, Table 1).

use std::collections::HashMap;

use themis_core::batch::TupleRef;
use themis_core::prelude::*;

use super::{derived_schema, PaneLogic};

/// Hash equi-join of the two input ports on integer key fields. For every
/// matching pair the output row is the left row concatenated with the right
/// row, stamped with the pane timestamp. The pane pair is processed
/// atomically, so Eq. 3 spreads the combined SIC mass of both panes over
/// the join results. The build/probe sides read borrowed row views
/// straight out of the pane columns, and output fields copy natively.
#[derive(Debug)]
pub struct JoinLogic {
    left_key: usize,
    right_key: usize,
    /// The last `(left, right)` input schemas and their concatenation.
    cache: Option<(Schema, Schema, Schema)>,
}

impl JoinLogic {
    /// Creates the join.
    pub fn new(left_key: usize, right_key: usize) -> Self {
        JoinLogic {
            left_key,
            right_key,
            cache: None,
        }
    }

    /// `left ++ right`'s fields; tag fields share the left dictionary (the
    /// right one when the left has none), right-hand tags re-interning
    /// into it as they are copied.
    fn out_schema(&mut self, left: &Schema, right: &Schema) -> Schema {
        match &self.cache {
            Some((l, r, out)) if l.same_as(left) && r.same_as(right) => out.clone(),
            _ => {
                let fields = left
                    .fields()
                    .chain(right.fields())
                    .map(|(n, t)| (n.to_string(), t))
                    .collect();
                let out = derived_schema(fields, left.interner().or(right.interner()));
                self.cache = Some((left.clone(), right.clone(), out.clone()));
                out
            }
        }
    }
}

impl PaneLogic for JoinLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        // A missing port cannot produce matches.
        let (Some(&left), Some(&right)) = (panes.first(), panes.get(1)) else {
            return TupleBatch::new();
        };
        // Build side: the right pane, indexed by key.
        let mut index: HashMap<i64, Vec<TupleRef<'_>>> = HashMap::new();
        for t in right.iter() {
            let k = t.get(self.right_key).map(|v| v.as_i64()).unwrap_or(0);
            index.entry(k).or_default().push(t);
        }
        let mut pairs = Vec::new();
        for l in left.iter() {
            let k = l.get(self.left_key).map(|v| v.as_i64()).unwrap_or(0);
            if let Some(matches) = index.get(&k) {
                pairs.extend(matches.iter().map(|&r| (l, r)));
            }
        }
        if pairs.is_empty() {
            return TupleBatch::new();
        }
        let has_rows = "a batch with rows has a schema";
        let schema = self.out_schema(
            left.schema().expect(has_rows),
            right.schema().expect(has_rows),
        );
        let mut out = TupleBatch::with_schema_capacity(schema, pairs.len());
        for (l, r) in pairs {
            let cells = l.values.cells().chain(r.values.cells()).map(Some);
            out.push_cells(at, Sic::ZERO, cells);
        }
        out
    }

    fn name(&self) -> &'static str {
        "join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT: Timestamp = Timestamp(5);

    fn row(id: i64, v: f64) -> Tuple {
        Tuple::new(Timestamp(0), Sic(0.1), vec![Value::I64(id), Value::F64(v)])
    }

    fn batch(rows: &[(i64, f64)]) -> TupleBatch {
        rows.iter().map(|&(id, v)| row(id, v)).collect()
    }

    #[test]
    fn joins_matching_keys() {
        let left = batch(&[(1, 0.5), (2, 0.7)]);
        let right = batch(&[(2, 100.0), (3, 200.0)]);
        let out = JoinLogic::new(0, 0).apply(&[&left, &right], AT);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.row(0).values.to_vec(),
            vec![
                Value::I64(2),
                Value::F64(0.7),
                Value::I64(2),
                Value::F64(100.0)
            ]
        );
        assert_eq!(out.row(0).ts, AT, "join rows carry the pane stamp");
    }

    #[test]
    fn join_produces_cross_product_per_key() {
        let left = batch(&[(1, 0.1), (1, 0.2)]);
        let right = batch(&[(1, 10.0), (1, 20.0)]);
        let out = JoinLogic::new(0, 0).apply(&[&left, &right], AT);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn empty_sides_join_to_nothing() {
        let left = batch(&[(1, 0.1)]);
        let empty = TupleBatch::new();
        assert!(JoinLogic::new(0, 0).apply(&[&left, &empty], AT).is_empty());
        assert!(JoinLogic::new(0, 0).apply(&[&empty, &left], AT).is_empty());
        assert!(JoinLogic::new(0, 0).apply(&[], AT).is_empty());
    }

    #[test]
    fn right_hand_tags_reintern_into_the_output_dictionary() {
        let tagged = |name: &str| {
            let schema = Schema::new([("id", FieldType::I64), ("host", FieldType::Tag)]);
            let code = schema.interner().unwrap().intern(name);
            let mut b = TupleBatch::with_schema(schema);
            b.push_row(Timestamp(0), Sic(0.1), &[Value::I64(1), Value::Tag(code)]);
            b
        };
        let (left, right) = (tagged("left-host"), tagged("right-host"));
        let out = JoinLogic::new(0, 0).apply(&[&left, &right], AT);
        let dict = out.schema().unwrap().interner().unwrap();
        assert!(std::sync::Arc::ptr_eq(
            dict,
            left.schema().unwrap().interner().unwrap()
        ));
        let resolve = |f: usize| dict.resolve(out.row(0).i64(f) as u32).unwrap().to_string();
        assert_eq!(
            (resolve(1), resolve(3)),
            ("left-host".into(), "right-host".into())
        );
    }
}
