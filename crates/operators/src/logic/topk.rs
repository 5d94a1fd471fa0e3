//! Top-k and group-by logic used by the TOP-5 workload of Table 1.
//!
//! All three logics fold rows into a per-key map; panes with native `i64`
//! key and `f64` value columns read the raw slices (no per-field `Value`
//! match), and the final top-k selection runs through
//! [`kernels::partial_top_k`] instead of a full sort.

use std::collections::HashMap;

use themis_core::prelude::*;

use super::{emit, PaneLogic};
use crate::kernels;

/// `[key: i64, <value>: f64]`, the row shape all three logics emit.
fn keyed_schema(key: &str, value: &str) -> Schema {
    Schema::new([(key, FieldType::I64), (value, FieldType::F64)])
}

/// The emission of `(key, value)` rows, stamped `at`.
fn emit_keyed(schema: &Schema, at: Timestamp, rows: Vec<(i64, f64)>) -> TupleBatch {
    emit(
        schema,
        at,
        rows.into_iter()
            .map(|(k, v)| [Value::I64(k), Value::F64(v)]),
    )
}

/// Folds each live `(key, value)` pair of the pane into `each`, reading
/// native columns when the fields are `i64` / `f64` and borrowed row
/// views otherwise (missing fields read as 0, the scalar `get`
/// semantics).
fn fold_keyed(
    pane: &TupleBatch,
    key_field: usize,
    value_field: usize,
    mut each: impl FnMut(i64, f64),
) {
    match (pane.i64_column(key_field), pane.f64_column(value_field)) {
        (Some(keys), Some(vals)) => {
            let all_live = pane.drops().dropped() == 0;
            for i in 0..pane.rows() {
                if all_live || pane.is_live(i) {
                    each(keys[i], vals[i]);
                }
            }
        }
        _ => {
            for t in pane.iter() {
                let k = t.get(key_field).map(|v| v.as_i64()).unwrap_or(0);
                let v = t.get(value_field).map(|v| v.as_f64()).unwrap_or(0.0);
                each(k, v);
            }
        }
    }
}

/// Emits the `k` rows with the largest `value_field`, as `[id, value]`
/// pairs in descending value order. Duplicate ids keep their best value, so
/// the logic also merges partial top-k lists arriving from upstream
/// fragments (the incremental chain layout of §7).
#[derive(Debug)]
pub struct TopKLogic {
    k: usize,
    id_field: usize,
    value_field: usize,
    schema: Schema,
}

impl TopKLogic {
    /// Creates the logic.
    pub fn new(k: usize, id_field: usize, value_field: usize) -> Self {
        TopKLogic {
            k: k.max(1),
            id_field,
            value_field,
            schema: keyed_schema("id", "value"),
        }
    }
}

impl PaneLogic for TopKLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let mut best: HashMap<i64, f64> = HashMap::new();
        for p in panes {
            fold_keyed(p, self.id_field, self.value_field, |id, v| {
                best.entry(id)
                    .and_modify(|cur| *cur = cur.max(v))
                    .or_insert(v);
            });
        }
        let mut rows: Vec<(i64, f64)> = best.into_iter().collect();
        // Partial select: descending by value, ascending id tie-break.
        kernels::partial_top_k(&mut rows, self.k);
        emit_keyed(&self.schema, at, rows)
    }

    fn name(&self) -> &'static str {
        "top-k"
    }
}

/// Per-key maximum (a group-by aggregate); emits `[key, max]` rows in
/// ascending key order.
#[derive(Debug)]
pub struct GroupMaxLogic {
    key_field: usize,
    value_field: usize,
    schema: Schema,
}

impl GroupMaxLogic {
    /// Creates the logic.
    pub fn new(key_field: usize, value_field: usize) -> Self {
        GroupMaxLogic {
            key_field,
            value_field,
            schema: keyed_schema("key", "max"),
        }
    }
}

impl PaneLogic for GroupMaxLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let mut best: HashMap<i64, f64> = HashMap::new();
        for p in panes {
            fold_keyed(p, self.key_field, self.value_field, |key, v| {
                best.entry(key)
                    .and_modify(|cur| *cur = cur.max(v))
                    .or_insert(v);
            });
        }
        let mut rows: Vec<(i64, f64)> = best.into_iter().collect();
        rows.sort_by_key(|&(k, _)| k);
        emit_keyed(&self.schema, at, rows)
    }

    fn name(&self) -> &'static str {
        "group-max"
    }
}

/// Per-key average (a group-by aggregate); emits `[key, avg]` rows in
/// ascending key order. The TOP-5 workload uses it to average each node's
/// CPU and memory readings inside one window before joining.
#[derive(Debug)]
pub struct GroupAvgLogic {
    key_field: usize,
    value_field: usize,
    schema: Schema,
}

impl GroupAvgLogic {
    /// Creates the logic.
    pub fn new(key_field: usize, value_field: usize) -> Self {
        GroupAvgLogic {
            key_field,
            value_field,
            schema: keyed_schema("key", "avg"),
        }
    }
}

impl PaneLogic for GroupAvgLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let mut acc: HashMap<i64, (f64, u64)> = HashMap::new();
        for p in panes {
            fold_keyed(p, self.key_field, self.value_field, |key, v| {
                let e = acc.entry(key).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            });
        }
        let mut rows: Vec<(i64, f64)> = acc
            .into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64))
            .collect();
        rows.sort_by_key(|&(k, _)| k);
        emit_keyed(&self.schema, at, rows)
    }

    fn name(&self) -> &'static str {
        "group-avg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT: Timestamp = Timestamp(0);

    /// Keyed rows whose value field is an `i64` column: the row-view path.
    fn int_valued(rows: &[(i64, i64)]) -> TupleBatch {
        rows.iter()
            .map(|&(id, v)| Tuple::new(Timestamp(0), Sic(0.1), vec![Value::I64(id), Value::I64(v)]))
            .collect()
    }

    fn typed(rows: &[(i64, f64)]) -> TupleBatch {
        let mut b = TupleBatch::with_schema_capacity(keyed_schema("key", "value"), rows.len());
        for &(id, v) in rows {
            b.push_row(Timestamp(0), Sic(0.1), &[Value::I64(id), Value::F64(v)]);
        }
        b
    }

    fn ids(out: &TupleBatch) -> Vec<i64> {
        out.iter().map(|r| r.i64(0)).collect()
    }

    #[test]
    fn topk_orders_descending() {
        for pane in [
            typed(&[(1, 5.0), (2, 9.0), (3, 7.0), (4, 1.0)]),
            int_valued(&[(1, 5), (2, 9), (3, 7), (4, 1)]),
        ] {
            let out = TopKLogic::new(2, 0, 1).apply(&[&pane], AT);
            assert_eq!(ids(&out), vec![2, 3]);
        }
    }

    #[test]
    fn topk_merges_duplicate_ids() {
        let pane = typed(&[(1, 5.0), (1, 8.0), (2, 6.0)]);
        let out = TopKLogic::new(5, 0, 1).apply(&[&pane], AT);
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0).i64(0), 1);
        assert_eq!(out.row(0).f64(1), 8.0);
    }

    #[test]
    fn topk_ties_break_on_id() {
        let pane = typed(&[(9, 5.0), (3, 5.0)]);
        let out = TopKLogic::new(2, 0, 1).apply(&[&pane], AT);
        assert_eq!(out.row(0).i64(0), 3);
    }

    #[test]
    fn topk_handles_short_panes() {
        let pane = typed(&[(1, 5.0)]);
        let out = TopKLogic::new(5, 0, 1).apply(&[&pane], AT);
        assert_eq!(out.len(), 1);
        assert!(TopKLogic::new(5, 0, 1)
            .apply(&[&TupleBatch::new()], AT)
            .is_empty());
    }

    #[test]
    fn topk_skips_dropped_typed_rows() {
        let mut pane = typed(&[(1, 5.0), (2, 9.0), (3, 7.0)]);
        pane.drop_row(1);
        let out = TopKLogic::new(2, 0, 1).apply(&[&pane], AT);
        assert_eq!(ids(&out), vec![3, 1], "dropped winner excluded");
    }

    #[test]
    fn group_max_groups() {
        for pane in [
            typed(&[(1, 5.0), (1, 7.0), (2, 3.0)]),
            int_valued(&[(1, 5), (1, 7), (2, 3)]),
        ] {
            let out = GroupMaxLogic::new(0, 1).apply(&[&pane], AT);
            assert_eq!(
                out.to_rows(),
                vec![
                    vec![Value::I64(1), Value::F64(7.0)],
                    vec![Value::I64(2), Value::F64(3.0)]
                ]
            );
        }
    }

    #[test]
    fn group_avg_averages_per_key() {
        for pane in [
            typed(&[(1, 4.0), (1, 8.0), (2, 3.0)]),
            int_valued(&[(1, 4), (1, 8), (2, 3)]),
        ] {
            let out = GroupAvgLogic::new(0, 1).apply(&[&pane], AT);
            assert_eq!(
                out.to_rows(),
                vec![
                    vec![Value::I64(1), Value::F64(6.0)],
                    vec![Value::I64(2), Value::F64(3.0)]
                ]
            );
        }
    }
}
