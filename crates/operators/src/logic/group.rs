//! Per-tag group-by aggregation over dictionary-coded key columns.
//!
//! [`GroupAggregateLogic`] is the group-by frontend of the scale path:
//! it sums a value field per distinct tag of a [`FieldType::Tag`] key
//! column and emits `[tag, sum, count]` partials, ready for a
//! downstream merge (sum the sums and counts per tag) or a final
//! `sum / count` average. Panes run the
//! [`kernels::group_sum_count_f64`] kernel directly on the raw code
//! slice — flat `Vec`-indexed accumulators, no per-row hashing — and
//! the output batch shares the first pane's dictionary, so the emitted
//! codes stay resolvable downstream.

use std::borrow::Cow;
use std::sync::Arc;

use themis_core::prelude::*;

use super::{derived_schema, emit, PaneLogic};
use crate::kernels;

/// Per-tag `(sum, count)` group-by; emits `[tag, sum, count]` rows in
/// ascending code order.
#[derive(Debug)]
pub struct GroupAggregateLogic {
    key_field: usize,
    value_field: usize,
    /// The output schema, bound to the dictionary of the panes it last
    /// served.
    schema: Option<Schema>,
}

impl GroupAggregateLogic {
    /// Creates the logic.
    pub fn new(key_field: usize, value_field: usize) -> Self {
        GroupAggregateLogic {
            key_field,
            value_field,
            schema: None,
        }
    }

    /// `[tag, sum, count]` with the tag field on `dict` (a fresh
    /// dictionary for a key that is not a tag column), reused while the
    /// panes keep that dictionary.
    fn out_schema(&mut self, dict: Option<&Arc<TagInterner>>) -> Schema {
        match (&self.schema, dict) {
            (Some(s), None) => s.clone(),
            (Some(s), Some(d)) if s.interner().is_some_and(|i| Arc::ptr_eq(i, d)) => s.clone(),
            _ => {
                let fields = vec![
                    ("tag".to_string(), FieldType::Tag),
                    ("sum".to_string(), FieldType::F64),
                    ("count".to_string(), FieldType::I64),
                ];
                let s = derived_schema(fields, dict);
                self.schema = Some(s.clone());
                s
            }
        }
    }
}

/// `pane`'s key codes in `dict`'s code space, one per physical row: the
/// tag column's own codes when it already uses `dict`, re-interned
/// strings otherwise (another dictionary's tags, or the printed value of
/// a non-tag key) — codes never cross dictionaries raw.
fn codes_in<'a>(pane: &'a TupleBatch, field: usize, dict: &TagInterner) -> Cow<'a, [u32]> {
    match pane.column(field) {
        Some(Column::Tag(t)) if std::ptr::eq(Arc::as_ptr(t.dict()), dict) => {
            Cow::Borrowed(t.codes())
        }
        Some(Column::Tag(t)) => (0..pane.rows())
            .map(|i| dict.intern(&t.resolve(i).unwrap_or_else(|| Arc::from(""))))
            .collect(),
        Some(c) => (0..pane.rows())
            .map(|i| dict.intern(&c.value(i).to_string()))
            .collect(),
        None => Cow::Owned(vec![TagInterner::EMPTY; pane.rows()]),
    }
}

impl PaneLogic for GroupAggregateLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let mut live = panes.iter().filter(|p| !p.is_empty()).peekable();
        let Some(first) = live.peek() else {
            return TupleBatch::new();
        };
        let schema = self.out_schema(first.tag_column(self.key_field).map(|t| t.dict()));
        let dict = schema.interner().expect("tag field implies an interner");
        let mut acc = kernels::GroupSums::new();
        for p in live {
            let codes = codes_in(p, self.key_field, dict);
            let vals: Cow<'_, [f64]> = match p.f64_column(self.value_field) {
                Some(v) => Cow::Borrowed(v),
                None => (0..p.rows())
                    .map(|i| p.column(self.value_field).map_or(0.0, |c| c.f64_at(i)))
                    .collect(),
            };
            acc.accumulate(&codes, &vals, p.drops());
        }
        let rows = acc.into_sorted().into_iter();
        emit(
            &schema,
            at,
            rows.map(|(c, s, n)| [Value::Tag(c), Value::F64(s), Value::I64(n as i64)]),
        )
    }

    fn name(&self) -> &'static str {
        "group-aggregate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT: Timestamp = Timestamp(9);

    fn tagged_on(schema: &Schema, rows: &[(&str, f64)]) -> TupleBatch {
        let dict = schema.interner().unwrap().clone();
        let mut b = TupleBatch::with_schema_capacity(schema.clone(), rows.len());
        for &(tag, v) in rows {
            let code = dict.intern(tag);
            b.push_row(Timestamp(3), Sic(0.1), &[Value::Tag(code), Value::F64(v)]);
        }
        b
    }

    fn tagged(rows: &[(&str, f64)]) -> TupleBatch {
        let schema = Schema::new([("tag", FieldType::Tag), ("value", FieldType::F64)]);
        tagged_on(&schema, rows)
    }

    /// `(tag string, sum, count)` per output row.
    fn resolved(out: &TupleBatch) -> Vec<(String, f64, i64)> {
        let tags = out.tag_column(0).expect("tag column");
        (0..out.rows())
            .map(|i| {
                let r = out.row(i);
                (tags.resolve(i).unwrap().to_string(), r.f64(1), r.i64(2))
            })
            .collect()
    }

    #[test]
    fn columnar_matches_scalar_rows() {
        let pane = tagged(&[("a", 1.0), ("b", 2.0), ("a", 3.0)]);
        let out = GroupAggregateLogic::new(0, 1).apply(&[&pane], AT);
        assert_eq!(
            resolved(&out),
            vec![("a".to_string(), 4.0, 2), ("b".to_string(), 2.0, 1)]
        );
        // Aggregate emissions carry the pane stamp.
        assert_eq!(out.row(0).ts, AT);
        // The output column shares the input dictionary.
        let out_dict = out.tag_column(0).unwrap().dict().clone();
        assert!(Arc::ptr_eq(&out_dict, pane.tag_column(0).unwrap().dict()));
    }

    #[test]
    fn columnar_skips_dropped_rows() {
        let mut pane = tagged(&[("a", 1.0), ("a", 2.0), ("b", 4.0)]);
        pane.drop_row(1);
        let out = GroupAggregateLogic::new(0, 1).apply(&[&pane], AT);
        assert_eq!(out.len(), 2);
        assert_eq!(out.f64_column(1), Some(&[1.0, 4.0][..]));
        assert_eq!(out.i64_column(2), Some(&[1, 1][..]));
    }

    #[test]
    fn mixed_dictionaries_reintern_into_the_first() {
        let a = tagged(&[("a", 1.0), ("b", 2.0)]);
        let b = tagged(&[("zz", 7.0), ("a", 5.0)]);
        let mut logic = GroupAggregateLogic::new(0, 1);
        let out = logic.apply(&[&a, &b], AT);
        assert!(Arc::ptr_eq(
            out.tag_column(0).unwrap().dict(),
            a.tag_column(0).unwrap().dict()
        ));
        assert_eq!(
            resolved(&out),
            vec![
                ("a".to_string(), 6.0, 2),
                ("b".to_string(), 2.0, 1),
                ("zz".to_string(), 7.0, 1)
            ]
        );
        // Panes sharing one dictionary accumulate on the raw codes.
        let c = tagged_on(a.schema().unwrap(), &[("a", 1.0)]);
        let out = logic.apply(&[&a, &c], AT);
        assert_eq!(out.f64_column(1), Some(&[2.0, 2.0][..]));
    }

    #[test]
    fn non_tag_keys_group_by_their_printed_value() {
        let pane: TupleBatch = [(2i64, 1.5), (2, 2.5), (7, 1.0)]
            .iter()
            .map(|&(k, v)| Tuple::new(Timestamp(0), Sic(0.1), vec![Value::I64(k), Value::F64(v)]))
            .collect();
        let out = GroupAggregateLogic::new(0, 1).apply(&[&pane], AT);
        assert_eq!(
            resolved(&out),
            vec![("2".to_string(), 4.0, 2), ("7".to_string(), 1.0, 1)]
        );
    }
}
