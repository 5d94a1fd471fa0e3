//! Row logic: identity, filter, project. All three are row-preserving:
//! output rows inherit the timestamp of the tuple they came from, so
//! downstream event-time windows keep grouping correctly.
//!
//! Identity concatenates pane columns (contiguous copies, schema
//! preserved), and is skipped altogether when its operator can forward a
//! single drop-free input batch by move; filter evaluates its predicate
//! into a keep bitmap — through the [`kernels::predicate_mask`] kernel on
//! native `f64` columns — and gathers survivors column by column; project
//! copies the kept fields natively under a schema derived from its
//! input's.

use themis_core::prelude::*;

use super::{derived_schema, PaneLogic};
use crate::kernels;

/// Comparison operator for predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `field > v`
    Gt,
    /// `field >= v`
    Ge,
    /// `field < v`
    Lt,
    /// `field <= v`
    Le,
    /// `field == v` (numeric equality)
    Eq,
}

/// A `field ⊙ constant` predicate over the numeric view of a field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Field index.
    pub field: usize,
    /// Comparison.
    pub op: CmpOp,
    /// Right-hand constant.
    pub value: f64,
}

impl Predicate {
    /// Creates a predicate.
    pub fn new(field: usize, op: CmpOp, value: f64) -> Self {
        Predicate { field, op, value }
    }

    /// Compares one numeric field value against the constant — the
    /// scalar core shared with the vectorized
    /// [`kernels::predicate_mask`].
    #[inline]
    pub fn matches(&self, v: f64) -> bool {
        match self.op {
            CmpOp::Gt => v > self.value,
            CmpOp::Ge => v >= self.value,
            CmpOp::Lt => v < self.value,
            CmpOp::Le => v <= self.value,
            CmpOp::Eq => v == self.value,
        }
    }

    /// Evaluates the predicate against one payload row (a missing field
    /// reads as 0).
    pub fn eval(&self, values: &[Value]) -> bool {
        self.matches(values.get(self.field).map(|v| v.as_f64()).unwrap_or(0.0))
    }

    /// Evaluates the predicate against a borrowed row view (a missing
    /// field reads as 0).
    #[inline]
    pub fn eval_row(&self, row: &RowValues<'_>) -> bool {
        self.matches(row.get(self.field).map(|v| v.as_f64()).unwrap_or(0.0))
    }
}

/// Pass-through logic used by source receivers, forwarders and output
/// operators: every input row is emitted unchanged.
#[derive(Debug, Default)]
pub struct IdentityLogic;

impl PaneLogic for IdentityLogic {
    fn apply(&mut self, panes: &[&TupleBatch], _at: Timestamp) -> TupleBatch {
        // Concatenate pane columns: panes append column-to-column, so a
        // receiver's emission keeps its input's schema.
        let mut out = TupleBatch::new();
        for p in panes {
            out.append_batch(p);
        }
        out
    }

    fn name(&self) -> &'static str {
        "identity"
    }

    fn forwards_input(&self) -> bool {
        true
    }
}

/// Filter: emits the rows matching the predicate. Because the pane is the
/// atomic unit (Eq. 3), the pane's SIC mass redistributes over survivors —
/// filtering alone does not degrade the query's SIC unless *all* rows drop.
#[derive(Debug)]
pub struct FilterLogic {
    predicate: Predicate,
}

impl FilterLogic {
    /// Creates the filter.
    pub fn new(predicate: Predicate) -> Self {
        FilterLogic { predicate }
    }
}

impl PaneLogic for FilterLogic {
    fn apply(&mut self, panes: &[&TupleBatch], _at: Timestamp) -> TupleBatch {
        let pred = self.predicate;
        let mut out = TupleBatch::new();
        for p in panes.iter().filter(|p| p.rows() > 0) {
            let mask = match p.f64_column(pred.field) {
                Some(col) => kernels::predicate_mask(col, pred.op, pred.value, p.drops()),
                // Other field types compare their numeric view (a
                // missing field reads as 0).
                None => (0..p.rows())
                    .map(|i| p.is_live(i) && pred.eval_row(&p.row(i).values))
                    .collect(),
            };
            out.append_gathered(p, mask.words());
        }
        out
    }

    fn name(&self) -> &'static str {
        "filter"
    }
}

/// Projection: keeps a subset of fields per row. A field the input
/// lacks reads as `0.0`.
#[derive(Debug)]
pub struct ProjectLogic {
    fields: Vec<usize>,
    /// The last input schema and its projection, so each emission reuses
    /// the output schema instead of deriving it again.
    cache: Option<(Schema, Schema)>,
}

impl ProjectLogic {
    /// Creates the projection.
    pub fn new(fields: Vec<usize>) -> Self {
        ProjectLogic {
            fields,
            cache: None,
        }
    }

    /// The projection of `input`: its kept fields' names and types, tag
    /// fields sharing its dictionary.
    fn out_schema(&mut self, input: &Schema) -> Schema {
        match &self.cache {
            Some((seen, out)) if seen.same_as(input) => out.clone(),
            _ => {
                let fields = self
                    .fields
                    .iter()
                    .enumerate()
                    .map(|(j, &f)| match (input.field_name(f), input.field_type(f)) {
                        (Some(name), Some(ty)) => (name.to_string(), ty),
                        _ => (format!("f{j}"), FieldType::F64),
                    })
                    .collect();
                let out = derived_schema(fields, input.interner());
                self.cache = Some((input.clone(), out.clone()));
                out
            }
        }
    }
}

impl PaneLogic for ProjectLogic {
    fn apply(&mut self, panes: &[&TupleBatch], _at: Timestamp) -> TupleBatch {
        let mut out = TupleBatch::new();
        for p in panes.iter().filter(|p| !p.is_empty()) {
            if out.schema().is_none() {
                let schema = p.schema().expect("a batch with rows has a schema");
                out = TupleBatch::with_schema(self.out_schema(schema));
            }
            for t in p.iter() {
                let cells = self.fields.iter().map(|&f| t.values.cell(f));
                out.push_cells(t.ts, Sic::ZERO, cells);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "project"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT: Timestamp = Timestamp(0);

    fn t(v: f64) -> Tuple {
        Tuple::measurement(Timestamp(7), Sic(0.1), v)
    }

    fn typed(vals: &[f64]) -> TupleBatch {
        let mut b = TupleBatch::with_schema(Schema::new([("value", FieldType::F64)]));
        for &v in vals {
            b.push_row(Timestamp(7), Sic(0.1), &[Value::F64(v)]);
        }
        b
    }

    #[test]
    fn predicate_ops() {
        let x = t(50.0);
        assert!(Predicate::new(0, CmpOp::Ge, 50.0).eval(&x.values));
        assert!(!Predicate::new(0, CmpOp::Gt, 50.0).eval(&x.values));
        assert!(Predicate::new(0, CmpOp::Le, 50.0).eval(&x.values));
        assert!(!Predicate::new(0, CmpOp::Lt, 50.0).eval(&x.values));
        assert!(Predicate::new(0, CmpOp::Eq, 50.0).eval(&x.values));
        // Missing field reads as 0.
        assert!(Predicate::new(7, CmpOp::Lt, 1.0).eval(&x.values));
        let b = typed(&[50.0]);
        assert!(Predicate::new(7, CmpOp::Lt, 1.0).eval_row(&b.row(0).values));
    }

    #[test]
    fn identity_passes_all_preserving_ts() {
        let tuples = typed(&[1.0, 2.0]);
        let out = IdentityLogic.apply(&[&tuples], AT);
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0).ts, Timestamp(7));
        assert_eq!(out.row(0).f64(0), 1.0);
    }

    #[test]
    fn identity_columnar_concatenates_typed_panes() {
        let a = typed(&[1.0, 2.0]);
        let b = typed(&[3.0]);
        let out = IdentityLogic.apply(&[&a, &b], AT);
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema(), a.schema(), "input schema preserved");
        assert_eq!(out.f64_column(0), Some(&[1.0, 2.0, 3.0][..]));
        assert_eq!(out.row(0).ts, Timestamp(7), "row timestamps preserved");
    }

    #[test]
    fn filter_selects_matching() {
        let tuples = typed(&[10.0, 60.0, 55.0]);
        let mut f = FilterLogic::new(Predicate::new(0, CmpOp::Ge, 50.0));
        let out = f.apply(&[&tuples], AT);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.ts == Timestamp(7)));
    }

    #[test]
    fn filter_columnar_matches_row_path() {
        let vals = [10.0, 60.0, 55.0, 49.9, 50.0];
        let pred = Predicate::new(0, CmpOp::Ge, 50.0);
        let want: Vec<f64> = vals.iter().copied().filter(|&v| pred.matches(v)).collect();
        let cols = FilterLogic::new(pred).apply(&[&typed(&vals)], AT);
        let got: Vec<f64> = cols.iter().map(|r| r.f64(0)).collect();
        assert_eq!(got, want);
        assert!(cols.schema().is_some());
        // An `i64` field compares its numeric view, row by row.
        let ints: TupleBatch = [10i64, 60, 55, 49, 50]
            .iter()
            .map(|&v| Tuple::measurement(Timestamp(7), Sic(0.1), v))
            .collect();
        let out = FilterLogic::new(pred).apply(&[&ints], AT);
        assert_eq!(out.i64_column(0), Some(&[60i64, 55, 50][..]));
        // Dropped rows never pass the filter, on either path.
        let mut shed = typed(&vals);
        shed.drop_row(1);
        assert_eq!(FilterLogic::new(pred).apply(&[&shed], AT).len(), 2);
        let mut shed_ints = ints.clone();
        shed_ints.drop_row(1);
        assert_eq!(FilterLogic::new(pred).apply(&[&shed_ints], AT).len(), 2);
    }

    #[test]
    fn filter_can_drop_everything() {
        let out =
            FilterLogic::new(Predicate::new(0, CmpOp::Gt, 100.0)).apply(&[&typed(&[1.0])], AT);
        assert!(out.is_empty());
    }

    #[test]
    fn project_reorders_fields() {
        let schema = Schema::new([("tag", FieldType::Tag), ("v", FieldType::F64)]);
        let code = schema.interner().unwrap().intern("host");
        let mut b = TupleBatch::with_schema(schema.clone());
        b.push_row(Timestamp(3), Sic(0.1), &[Value::Tag(code), Value::F64(3.5)]);
        let mut p = ProjectLogic::new(vec![1, 0, 9]);
        let out = p.apply(&[&b], AT);
        assert_eq!(
            out.row(0).values.to_vec(),
            vec![Value::F64(3.5), Value::Tag(code), Value::F64(0.0)]
        );
        assert_eq!(out.row(0).ts, Timestamp(3), "row timestamps preserved");
        let fields: Vec<&str> = out.schema().unwrap().fields().map(|(n, _)| n).collect();
        assert_eq!(fields, ["v", "tag", "f2"]);
        // The tag field shares the input dictionary, and the output schema
        // is derived once per input schema.
        assert_eq!(
            out.tag_column(1).unwrap().resolve(0).as_deref(),
            Some("host")
        );
        assert!(p
            .apply(&[&b], AT)
            .schema()
            .unwrap()
            .same_as(out.schema().unwrap()));
    }
}
