//! Sample covariance over two input streams (the COV workload of Table 1:
//! "covariance of CPU usage of two nodes every sec").

use themis_core::prelude::*;

use super::{emit, PaneLogic};
use crate::kernels;

/// Computes the sample covariance between the `field` values of port 0 and
/// port 1 within one pane, pairing tuples positionally (both sources sample
/// the same clock). Emits `[cov]`, or nothing when fewer than two pairs are
/// available.
///
/// The covariance runs as a single [`kernels::cov_sums`] pass
/// (`Σx, Σy, Σxy` with lane-split accumulators) over the panes' live
/// columns: typed panes without drops lend their native `f64` slices
/// zero-copy; shed or non-`f64` panes compact into a scratch vector
/// first, because positional pairing of *live* rows cannot apply the two
/// drop masks independently.
#[derive(Debug)]
pub struct CovLogic {
    field: usize,
    schema: Schema,
}

impl CovLogic {
    /// Creates the logic on `field` of both ports.
    pub fn new(field: usize) -> Self {
        CovLogic {
            field,
            schema: Schema::new([("cov", FieldType::F64)]),
        }
    }
}

impl PaneLogic for CovLogic {
    fn apply(&mut self, panes: &[&TupleBatch], at: Timestamp) -> TupleBatch {
        let (Some(&px), Some(&py)) = (panes.first(), panes.get(1)) else {
            return TupleBatch::new();
        };
        let xs = kernels::live_f64(px, self.field);
        let ys = kernels::live_f64(py, self.field);
        let cov = kernels::cov_sums(&xs, &ys).sample_cov();
        emit(&self.schema, at, cov.map(|c| [Value::F64(c)]).into_iter())
    }

    fn name(&self) -> &'static str {
        "cov"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pane(vals: &[f64]) -> TupleBatch {
        let mut b = TupleBatch::with_schema(Schema::new([("value", FieldType::F64)]));
        for &v in vals {
            b.push_row(Timestamp(0), Sic(0.1), &[Value::F64(v)]);
        }
        b
    }

    fn cov(x: &TupleBatch, y: &TupleBatch) -> Option<f64> {
        let out = CovLogic::new(0).apply(&[x, y], Timestamp(0));
        (!out.is_empty()).then(|| out.row(0).f64(0))
    }

    #[test]
    fn covariance_of_linear_series() {
        let x = pane(&[1.0, 2.0, 3.0, 4.0]);
        let y = pane(&[2.0, 4.0, 6.0, 8.0]);
        assert!((cov(&x, &y).unwrap() - 10.0 / 3.0).abs() < 1e-9);
        // An `i64` column (the compacting path) computes the same value.
        let ix: TupleBatch = (1..=4i64)
            .map(|v| Tuple::measurement(Timestamp(0), Sic(0.1), v))
            .collect();
        assert_eq!(cov(&ix, &y), cov(&x, &y));
    }

    #[test]
    fn negative_covariance() {
        let x = pane(&[1.0, 2.0, 3.0]);
        let y = pane(&[3.0, 2.0, 1.0]);
        assert!(cov(&x, &y).unwrap() < 0.0);
    }

    #[test]
    fn uses_min_length() {
        let x = pane(&[1.0, 2.0, 3.0]);
        let y = pane(&[1.0, 2.0]);
        assert!(cov(&x, &y).is_some());
    }

    #[test]
    fn shed_rows_are_compacted_before_pairing() {
        let mut x = pane(&[1.0, 99.0, 2.0, 3.0, 4.0]);
        x.drop_row(1);
        let y = pane(&[2.0, 4.0, 6.0, 8.0]);
        let clean = pane(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cov(&x, &y), cov(&clean, &y), "live rows pair positionally");
    }

    #[test]
    fn too_few_pairs_emits_nothing() {
        let x = pane(&[1.0]);
        let y = pane(&[2.0]);
        assert_eq!(cov(&x, &y), None);
        assert!(CovLogic::new(0).apply(&[], Timestamp(0)).is_empty());
    }
}
