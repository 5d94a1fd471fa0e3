//! Windowed aggregate logic: AVG, SUM, COUNT (with HAVING), MAX, MIN, plus
//! the partial/merge pair used by incremental multi-fragment trees
//! (the AVG-all workload of Table 1). Aggregates collapse the pane into
//! one row stamped with the pane's window timestamp, under an output
//! schema each logic declares once at construction.
//!
//! Native `f64` columns at the aggregated field run the vectorized
//! [`kernels`] (lane-split sums, word-at-a-time drop handling); other
//! field types fall back to the scalar [`TupleBatch::column_f64`] fold
//! with identical semantics.

use std::iter;

use themis_core::prelude::*;

use super::filter::Predicate;
use super::{emit, PaneLogic};
use crate::kernels;

fn is_empty(panes: &[&TupleBatch]) -> bool {
    panes.iter().all(|p| p.is_empty())
}

/// The one-field `[name: f64]` schema most aggregates emit.
fn f64_schema(name: &str) -> Schema {
    Schema::new([(name, FieldType::F64)])
}

/// Sum + live count of `field` over one pane: the typed kernel when the
/// pane exposes a native `f64` column, the scalar column fold otherwise.
fn pane_sum_count(pane: &TupleBatch, field: usize) -> (f64, u64) {
    match pane.f64_column(field) {
        Some(col) => kernels::sum_count_f64(col, pane.drops()),
        None => {
            let (mut sum, mut n) = (0.0, 0u64);
            for v in pane.column_f64(field) {
                sum += v;
                n += 1;
            }
            (sum, n)
        }
    }
}

/// Sum + count of `field` across all panes of one atomic step.
fn sum_count(panes: &[&TupleBatch], field: usize) -> (f64, u64) {
    let (mut sum, mut n) = (0.0, 0u64);
    for p in panes {
        let (s, c) = pane_sum_count(p, field);
        sum += s;
        n += c;
    }
    (sum, n)
}

// The scalar max/min fallbacks fold from the ∓∞ identity exactly like
// the kernels, so both paths agree bit-for-bit even on NaN entries
// (`f64::max`/`f64::min` ignore NaN; an all-NaN column yields ∓∞).

fn pane_max(pane: &TupleBatch, field: usize) -> Option<f64> {
    match pane.f64_column(field) {
        Some(col) => kernels::max_f64(col, pane.drops()),
        None => {
            let (mut m, mut any) = (f64::NEG_INFINITY, false);
            for v in pane.column_f64(field) {
                m = m.max(v);
                any = true;
            }
            any.then_some(m)
        }
    }
}

fn pane_min(pane: &TupleBatch, field: usize) -> Option<f64> {
    match pane.f64_column(field) {
        Some(col) => kernels::min_f64(col, pane.drops()),
        None => {
            let (mut m, mut any) = (f64::INFINITY, false);
            for v in pane.column_f64(field) {
                m = m.min(v);
                any = true;
            }
            any.then_some(m)
        }
    }
}

/// `Select Avg(t.v)` over a pane; emits `[avg]`.
#[derive(Debug)]
pub struct AvgLogic {
    field: usize,
    schema: Schema,
}

impl AvgLogic {
    /// Creates the aggregate on `field`.
    pub fn new(field: usize) -> Self {
        AvgLogic {
            field,
            schema: f64_schema("avg"),
        }
    }
}

impl PaneLogic for AvgLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let (sum, n) = sum_count(panes, self.field);
        let avg = (n > 0).then(|| [Value::F64(sum / n as f64)]);
        emit(&self.schema, at, avg.into_iter())
    }

    fn name(&self) -> &'static str {
        "avg"
    }
}

/// Incremental partial average; emits `[sum, count]` so a downstream
/// [`MergeAvgLogic`] can combine fragments exactly.
#[derive(Debug)]
pub struct PartialAvgLogic {
    field: usize,
    schema: Schema,
}

impl PartialAvgLogic {
    /// Creates the partial aggregate on `field`.
    pub fn new(field: usize) -> Self {
        PartialAvgLogic {
            field,
            schema: Schema::new([("sum", FieldType::F64), ("count", FieldType::I64)]),
        }
    }
}

impl PaneLogic for PartialAvgLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let (sum, n) = sum_count(panes, self.field);
        let partial = (n > 0).then_some([Value::F64(sum), Value::I64(n as i64)]);
        emit(&self.schema, at, partial.into_iter())
    }

    fn name(&self) -> &'static str {
        "partial-avg"
    }
}

/// Merges `[sum, count]` partials into the exact global `[avg]`.
#[derive(Debug)]
pub struct MergeAvgLogic {
    schema: Schema,
}

impl Default for MergeAvgLogic {
    fn default() -> Self {
        MergeAvgLogic {
            schema: f64_schema("avg"),
        }
    }
}

impl PaneLogic for MergeAvgLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let (mut sum, mut n) = (0.0, 0i64);
        for t in panes.iter().flat_map(|p| p.iter()) {
            sum += t.get(0).map(|v| v.as_f64()).unwrap_or(0.0);
            n += t.get(1).map(|v| v.as_i64()).unwrap_or(0);
        }
        let avg = (n != 0).then(|| [Value::F64(sum / n as f64)]);
        emit(&self.schema, at, avg.into_iter())
    }

    fn name(&self) -> &'static str {
        "merge-avg"
    }
}

/// `Select Sum(t.v)`; emits `[sum]`.
#[derive(Debug)]
pub struct SumLogic {
    field: usize,
    schema: Schema,
}

impl SumLogic {
    /// Creates the aggregate on `field`.
    pub fn new(field: usize) -> Self {
        SumLogic {
            field,
            schema: f64_schema("sum"),
        }
    }
}

impl PaneLogic for SumLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        if is_empty(panes) {
            return TupleBatch::new();
        }
        let (sum, _) = sum_count(panes, self.field);
        emit(&self.schema, at, iter::once([Value::F64(sum)]))
    }

    fn name(&self) -> &'static str {
        "sum"
    }
}

/// `Select Count(t.v) [Having pred]`; emits `[count]`. The optional
/// predicate implements Table 1's `Having t.v >= 50` COUNT query inside the
/// atomic pane, so the pane's SIC mass is retained by the count result.
#[derive(Debug)]
pub struct CountLogic {
    predicate: Option<Predicate>,
    schema: Schema,
}

impl CountLogic {
    /// Creates the aggregate with an optional HAVING predicate.
    pub fn new(predicate: Option<Predicate>) -> Self {
        CountLogic {
            predicate,
            schema: Schema::new([("count", FieldType::I64)]),
        }
    }

    fn pane_count(&self, pane: &TupleBatch) -> usize {
        match self.predicate {
            None => pane.len(),
            Some(p) => match pane.f64_column(p.field) {
                // Native f64 column: evaluate the HAVING predicate through
                // the word-packed mask kernel and popcount the survivors.
                Some(col) => {
                    kernels::mask_count(&kernels::predicate_mask(col, p.op, p.value, pane.drops()))
                }
                None => pane.iter().filter(|t| p.eval_row(&t.values)).count(),
            },
        }
    }
}

impl PaneLogic for CountLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        if is_empty(panes) {
            return TupleBatch::new();
        }
        let n: usize = panes.iter().map(|p| self.pane_count(p)).sum();
        emit(&self.schema, at, iter::once([Value::I64(n as i64)]))
    }

    fn name(&self) -> &'static str {
        "count"
    }
}

/// `Select Max(t.v)`; emits `[max]`.
#[derive(Debug)]
pub struct MaxLogic {
    field: usize,
    schema: Schema,
}

impl MaxLogic {
    /// Creates the aggregate on `field`.
    pub fn new(field: usize) -> Self {
        MaxLogic {
            field,
            schema: f64_schema("max"),
        }
    }
}

impl PaneLogic for MaxLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let max = panes
            .iter()
            .filter_map(|p| pane_max(p, self.field))
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            });
        emit(&self.schema, at, max.map(|m| [Value::F64(m)]).into_iter())
    }

    fn name(&self) -> &'static str {
        "max"
    }
}

/// `Select Min(t.v)`; emits `[min]`.
#[derive(Debug)]
pub struct MinLogic {
    field: usize,
    schema: Schema,
}

impl MinLogic {
    /// Creates the aggregate on `field`.
    pub fn new(field: usize) -> Self {
        MinLogic {
            field,
            schema: f64_schema("min"),
        }
    }
}

impl PaneLogic for MinLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let min = panes
            .iter()
            .filter_map(|p| pane_min(p, self.field))
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            });
        emit(&self.schema, at, min.map(|m| [Value::F64(m)]).into_iter())
    }

    fn name(&self) -> &'static str {
        "min"
    }
}

#[cfg(test)]
mod tests {
    use super::super::filter::CmpOp;
    use super::*;

    const AT: Timestamp = Timestamp(9);

    fn pane(vals: &[f64]) -> TupleBatch {
        let mut b = TupleBatch::with_schema(Schema::new([("value", FieldType::F64)]));
        for &v in vals {
            b.push_row(Timestamp(0), Sic(0.1), &[Value::F64(v)]);
        }
        b
    }

    /// A pane whose value field is an `i64` column: the scalar fold path.
    fn int_pane(vals: &[i64]) -> TupleBatch {
        vals.iter()
            .map(|&v| Tuple::measurement(Timestamp(0), Sic(0.1), v))
            .collect()
    }

    fn rows(out: TupleBatch) -> Vec<Row> {
        out.to_rows()
    }

    #[test]
    fn avg_of_pane() {
        let p = pane(&[10.0, 20.0, 30.0]);
        let out = AvgLogic::new(0).apply(&[&p], AT);
        assert_eq!(out.row(0).ts, AT, "aggregates are stamped by the pane");
        assert_eq!(rows(out), vec![vec![Value::F64(20.0)]]);
    }

    #[test]
    fn avg_empty_emits_nothing() {
        assert!(AvgLogic::new(0).apply(&[&TupleBatch::new()], AT).is_empty());
    }

    #[test]
    fn kernels_match_a_scalar_fold() {
        let vals: Vec<f64> = (0..130).map(|i| (i as f64) * 0.5 - 20.0).collect();
        let mut p = pane(&vals);
        let dropped = [3usize, 100];
        for i in dropped {
            p.drop_row(i);
        }
        let live: Vec<f64> = (0..vals.len())
            .filter(|i| !dropped.contains(i))
            .map(|i| vals[i])
            .collect();
        let sum: f64 = live.iter().sum();
        let want = [
            (AvgLogic::new(0).apply(&[&p], AT), sum / live.len() as f64),
            (SumLogic::new(0).apply(&[&p], AT), sum),
            (
                MaxLogic::new(0).apply(&[&p], AT),
                live.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ),
            (
                MinLogic::new(0).apply(&[&p], AT),
                live.iter().copied().fold(f64::INFINITY, f64::min),
            ),
        ];
        for (out, want) in want {
            let got = out.row(0).f64(0);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn partial_then_merge_is_exact() {
        let p1 = pane(&[10.0, 20.0]);
        let p2 = pane(&[40.0]);
        let mut partials = PartialAvgLogic::new(0).apply(&[&p1], AT);
        partials.append_batch(&PartialAvgLogic::new(0).apply(&[&p2], AT));
        assert_eq!(partials.i64_column(1), Some(&[2i64, 1][..]));
        let merged = MergeAvgLogic::default().apply(&[&partials], AT);
        let avg = merged.row(0).f64(0);
        assert!((avg - 70.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_avg_with_zero_count_emits_nothing() {
        assert!(MergeAvgLogic::default()
            .apply(&[&TupleBatch::new()], AT)
            .is_empty());
    }

    #[test]
    fn sum_logic() {
        let p = pane(&[1.5, 2.5]);
        assert_eq!(
            rows(SumLogic::new(0).apply(&[&p], AT)),
            vec![vec![Value::F64(4.0)]]
        );
    }

    #[test]
    fn count_with_having() {
        for p in [pane(&[10.0, 55.0, 50.0, 99.0]), int_pane(&[10, 55, 50, 99])] {
            let out = CountLogic::new(Some(Predicate::new(0, CmpOp::Ge, 50.0))).apply(&[&p], AT);
            assert_eq!(rows(out), vec![vec![Value::I64(3)]]);
            let all = CountLogic::new(None).apply(&[&p], AT);
            assert_eq!(rows(all), vec![vec![Value::I64(4)]]);
        }
    }

    #[test]
    fn count_having_zero_matches_still_emits() {
        // The pane was processed: the count result (0) is a valid result
        // carrying the pane's SIC mass.
        let p = pane(&[1.0]);
        let out = CountLogic::new(Some(Predicate::new(0, CmpOp::Ge, 50.0))).apply(&[&p], AT);
        assert_eq!(rows(out), vec![vec![Value::I64(0)]]);
    }

    #[test]
    fn max_min() {
        let p = pane(&[3.0, -1.0, 7.0]);
        assert_eq!(
            rows(MaxLogic::new(0).apply(&[&p], AT)),
            vec![vec![Value::F64(7.0)]]
        );
        assert_eq!(
            rows(MinLogic::new(0).apply(&[&p], AT)),
            vec![vec![Value::F64(-1.0)]]
        );
        assert!(MaxLogic::new(0).apply(&[&TupleBatch::new()], AT).is_empty());
    }

    #[test]
    fn aggregates_span_ports() {
        let p0 = int_pane(&[1]);
        let p1 = pane(&[3.0]);
        let out = AvgLogic::new(0).apply(&[&p0, &p1], AT);
        assert_eq!(rows(out), vec![vec![Value::F64(2.0)]]);
    }

    #[test]
    fn dropped_rows_are_ignored() {
        for mut p in [pane(&[10.0, 1000.0, 30.0]), int_pane(&[10, 1000, 30])] {
            p.drop_row(1);
            let out = AvgLogic::new(0).apply(&[&p], AT);
            assert_eq!(rows(out), vec![vec![Value::F64(20.0)]]);
        }
    }
}
