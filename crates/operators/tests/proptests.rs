//! Property-based tests: Eq.-3 SIC propagation invariants over arbitrary
//! tuple streams and operator configurations, plus kernel and logic
//! parity with plain scalar folds over the generated rows, across random
//! schemas, drop patterns and all six shedding policies.

use proptest::prelude::*;

use themis_core::prelude::*;
use themis_operators::kernels;
use themis_operators::logic::{FilterLogic, GroupAggregateLogic};
use themis_operators::prelude::*;

/// Strategy: a batch of tuples within one 1-second window, each with a
/// small positive SIC and a keyed payload.
fn arb_window_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec((0u64..999, 1e-6f64..0.01, 0i64..8, -100.0f64..100.0), 1..60).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(ms, sic, key, v)| {
                    Tuple::new(
                        Timestamp::from_millis(ms),
                        Sic(sic),
                        vec![Value::I64(key), Value::F64(v)],
                    )
                })
                .collect()
        },
    )
}

fn total_sic(tuples: &[Tuple]) -> f64 {
    tuples.iter().map(|t| t.sic.value()).sum()
}

fn run_op(logic: LogicSpec, tuples: Vec<Tuple>) -> Vec<Emission> {
    let mut op = OperatorSpec::with_grace(
        WindowSpec::tumbling(TimeDelta::from_secs(1)),
        logic,
        TimeDelta::ZERO,
    )
    .build();
    op.feed(0, tuples, Timestamp::from_millis(999));
    op.tick(Timestamp::from_secs(1))
}

proptest! {
    /// Aggregates that always emit at least one row conserve the pane's
    /// full SIC mass (Eq. 3).
    #[test]
    fn aggregates_conserve_mass(tuples in arb_window_tuples()) {
        let input = total_sic(&tuples);
        for logic in [
            LogicSpec::Avg { field: 1 },
            LogicSpec::Sum { field: 1 },
            LogicSpec::Count { predicate: None },
            LogicSpec::Max { field: 1 },
            LogicSpec::Min { field: 1 },
            LogicSpec::TopK { k: 5, id_field: 0, value_field: 1 },
            LogicSpec::GroupAvg { key_field: 0, value_field: 1 },
            LogicSpec::GroupMax { key_field: 0, value_field: 1 },
            LogicSpec::Identity,
        ] {
            let out = run_op(logic.clone(), tuples.clone());
            let output: f64 = out.iter().map(|e| e.sic().value()).sum();
            prop_assert!(
                (output - input).abs() < 1e-9 * input.max(1.0),
                "{logic:?}: {input} in, {output} out"
            );
        }
    }

    /// A filter either conserves the pane's mass (when at least one row
    /// survives) or loses it entirely (when none do) — never anything in
    /// between.
    #[test]
    fn filter_mass_is_all_or_surviving(tuples in arb_window_tuples(), threshold in -100.0f64..100.0) {
        let input = total_sic(&tuples);
        let survivors = tuples
            .iter()
            .filter(|t| t.f64(1) >= threshold)
            .count();
        let out = run_op(
            LogicSpec::Filter(Predicate::new(1, CmpOp::Ge, threshold)),
            tuples.clone(),
        );
        let output: f64 = out.iter().map(|e| e.sic().value()).sum();
        if survivors == 0 {
            prop_assert_eq!(output, 0.0);
        } else {
            prop_assert!((output - input).abs() < 1e-9 * input.max(1.0));
            let rows: usize = out.iter().map(Emission::len).sum();
            prop_assert_eq!(rows, survivors);
        }
    }

    /// Sliding windows split each tuple's SIC across its panes without
    /// creating or destroying mass.
    #[test]
    fn sliding_window_conserves_mass(
        tuples in arb_window_tuples(),
        slide_ms in prop::sample::select(vec![250u64, 500]),
    ) {
        let input = total_sic(&tuples);
        let mut buf = WindowBuffer::new(
            WindowSpec::sliding(TimeDelta::from_secs(1), TimeDelta::from_millis(slide_ms)),
            1,
            TimeDelta::ZERO,
        );
        buf.push(0, tuples, Timestamp::from_millis(999));
        // Close everything well past the last pane.
        let panes = buf.close_up_to(Timestamp::from_secs(10));
        let output: f64 = panes.iter().map(|p| p.input_sic().value()).sum();
        prop_assert!(
            (output - input).abs() < 1e-9 * input.max(1.0),
            "{input} in vs {output} out across {} panes",
            panes.len()
        );
    }

    /// A join's output mass never exceeds its combined input mass, and
    /// equals it when every row finds a match; and the join feeding an
    /// AVG (the live operator stack) averages exactly the right-hand
    /// values a nested-loop equi-join pairs up.
    #[test]
    fn join_mass_bounded_by_inputs(
        left in arb_window_tuples(),
        right in arb_window_tuples(),
    ) {
        let input = total_sic(&left) + total_sic(&right);
        let mut op = OperatorSpec::with_grace(
            WindowSpec::tumbling(TimeDelta::from_secs(1)),
            LogicSpec::Join { left_key: 0, right_key: 0 },
            TimeDelta::ZERO,
        )
        .build();
        op.feed(0, left.clone(), Timestamp::from_millis(999));
        op.feed(1, right.clone(), Timestamp::from_millis(999));
        let out = op.tick(Timestamp::from_secs(1));
        let output: f64 = out.iter().map(|e| e.sic().value()).sum();
        prop_assert!(output <= input + 1e-9, "join created mass: {output} > {input}");
        // With keys 0..8 on both sides of non-trivial panes, a match is
        // almost certain — if one exists, full mass must be carried.
        if !out.is_empty() {
            prop_assert!((output - input).abs() < 1e-9 * input.max(1.0));
        }
        // Join rows are `left ++ right`: the right value (field 1 of its
        // input) is field 3 of the output.
        let matched: Vec<f64> = left
            .iter()
            .flat_map(|l| right.iter().filter(move |r| r.values[0] == l.values[0]))
            .map(|r| r.values[1].as_f64())
            .collect();
        let joined: Vec<Tuple> = out.iter().flat_map(|e| e.tuples()).collect();
        let got = run_op(LogicSpec::Avg { field: 3 }, joined);
        prop_assert_eq!(got.len(), usize::from(!matched.is_empty()));
        if let Some(e) = got.first() {
            let want = matched.iter().sum::<f64>() / matched.len() as f64;
            prop_assert!(close(e.batch().row(0).f64(0), want), "join→avg vs nested loop");
        }
    }

    /// Count windows emit fixed-size panes and conserve mass for the
    /// tuples they release.
    #[test]
    fn count_window_pane_sizes(tuples in arb_window_tuples(), count in 1usize..10) {
        let n = tuples.len();
        let mut buf = WindowBuffer::new(WindowSpec::Count { count }, 1, TimeDelta::ZERO);
        buf.push(0, tuples, Timestamp::from_millis(999));
        let panes = buf.close_up_to(Timestamp::from_secs(1));
        prop_assert_eq!(panes.len(), n / count);
        for p in &panes {
            prop_assert_eq!(p.input_len(), count);
        }
        prop_assert_eq!(buf.buffered(), n % count);
    }

    /// Operator output timestamps never exceed the pane stamp, so derived
    /// tuples always fall into the window that produced them (no cascaded
    /// window latency).
    #[test]
    fn aggregate_outputs_stamped_within_window(tuples in arb_window_tuples()) {
        let out = run_op(LogicSpec::Avg { field: 1 }, tuples);
        for e in &out {
            for t in e.iter() {
                prop_assert!(t.ts.as_micros() < 1_000_000, "stamp {} >= window end", t.ts);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Kernel and logic parity: for random batches, every typed kernel and
// every logic's output matches a plain scalar fold over the generated
// rows — bit-for-bit for order-independent results (min/max/count/
// filter/top-k/group-by), and within a tiny reassociation bound for the
// lane-split float sums (sum/avg/cov) — across drop patterns produced by
// all six shedding policies plus direct row-level drops.
// ---------------------------------------------------------------------

/// The row shape of the parity cases: `[id: i64, v: f64, flag: bool]`.
fn parity_schema() -> Schema {
    Schema::new([
        ("id", FieldType::I64),
        ("v", FieldType::F64),
        ("flag", FieldType::Bool),
    ])
}

type ParityRow = (u64, i64, f64, bool);

fn arb_parity_rows() -> impl Strategy<Value = Vec<ParityRow>> {
    prop::collection::vec((0u64..999, 0i64..8, -100.0f64..100.0, 0u8..2), 1..150).prop_map(|rows| {
        rows.into_iter()
            .map(|(ms, id, v, flag)| (ms, id, v, flag == 1))
            .collect()
    })
}

fn parity_values(&(_, id, v, flag): &ParityRow) -> Vec<Value> {
    vec![Value::I64(id), Value::F64(v), Value::Bool(flag)]
}

fn parity_batch(rows: &[ParityRow]) -> TupleBatch {
    let mut typed = TupleBatch::with_schema_capacity(parity_schema(), rows.len());
    for row in rows {
        typed.push_row(
            Timestamp::from_millis(row.0),
            Sic(0.001),
            &parity_values(row),
        );
    }
    typed
}

/// Runs each policy over the rows chunked into shed-candidate batches and
/// returns the row-level drop sets the decisions induce (plus a direct
/// row-level pattern so partially-shed 64-row words are exercised too).
fn policy_drop_patterns(n_rows: usize, chunk: usize, cap: usize) -> Vec<Vec<usize>> {
    let chunk = chunk.max(1);
    let mut patterns = Vec::new();
    // Candidate snapshot: every `chunk` rows form one batch of one of two
    // queries, each batch worth its row count in tuples and uniform SIC.
    let starts: Vec<usize> = (0..n_rows).step_by(chunk).collect();
    let mut states: Vec<QueryBufferState> = (0..2)
        .map(|q| QueryBufferState {
            query: QueryId(q),
            base_sic: Sic::ZERO,
            batches: Vec::new(),
        })
        .collect();
    for (bi, &start) in starts.iter().enumerate() {
        let len = chunk.min(n_rows - start);
        states[bi % 2].batches.push(CandidateBatch {
            buffer_index: bi,
            sic: Sic(0.001 * len as f64),
            tuples: len,
            created: Timestamp(bi as u64),
        });
    }
    for policy in registered_policies() {
        let decision = policy.build(42).select_to_keep(cap, &states);
        let shed = decision.shed_bitmap(starts.len());
        let mut dropped = Vec::new();
        for (bi, &start) in starts.iter().enumerate() {
            if shed.is_dropped(bi) {
                let len = chunk.min(n_rows - start);
                dropped.extend(start..start + len);
            }
        }
        patterns.push(dropped);
    }
    // Direct row-level drops: every 3rd row, leaving partial words live.
    patterns.push((0..n_rows).step_by(3).collect());
    patterns
}

/// `a` and `b` agree up to float reassociation of the lane-split sums.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-8 + 1e-9 * a.abs().max(b.abs())
}

fn single_f64(out: &TupleBatch) -> Option<f64> {
    out.iter().next().map(|r| r.f64(0))
}

/// `(key, value)` rows sorted by key.
fn keyed_rows(map: std::collections::BTreeMap<i64, f64>) -> Vec<Vec<Value>> {
    map.into_iter()
        .map(|(k, v)| vec![Value::I64(k), Value::F64(v)])
        .collect()
}

proptest! {
    /// Every typed kernel and every logic agrees with a scalar fold over
    /// the live generated rows under the same drops, for all six shedding
    /// policies.
    #[test]
    fn typed_kernels_match_scalar_value_path(
        rows in arb_parity_rows(),
        chunk in 1usize..12,
        cap_pct in 10usize..100,
    ) {
        const AT: Timestamp = Timestamp(0);
        let base = parity_batch(&rows);
        let cap = (rows.len() * cap_pct / 100).max(1);
        for dropped in policy_drop_patterns(rows.len(), chunk, cap) {
            let mut typed = base.clone();
            for &i in &dropped {
                typed.drop_row(i);
            }
            let live: Vec<&ParityRow> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| !dropped.contains(i))
                .map(|(_, r)| r)
                .collect();
            prop_assert_eq!(typed.len(), live.len());

            // Scalar references, folded sequentially over the live rows.
            let scalar_sum: f64 = live.iter().map(|r| r.2).sum();
            let scalar_n = live.len() as u64;
            let scalar_max = live
                .iter()
                .map(|r| r.2)
                .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.max(v))));
            let scalar_min = live
                .iter()
                .map(|r| r.2)
                .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.min(v))));

            // Kernels on the typed columns.
            let col = typed.f64_column(1).expect("typed v column");
            let (k_sum, k_n) = kernels::sum_count_f64(col, typed.drops());
            prop_assert_eq!(k_n, scalar_n, "live count");
            prop_assert!(close(k_sum, scalar_sum), "sum {k_sum} vs {scalar_sum}");
            prop_assert_eq!(kernels::max_f64(col, typed.drops()), scalar_max, "max");
            prop_assert_eq!(kernels::min_f64(col, typed.drops()), scalar_min, "min");

            // Aggregate logic over the pane.
            let avg = (scalar_n > 0).then(|| scalar_sum / scalar_n as f64);
            let sum = (scalar_n > 0).then_some(scalar_sum);
            for (logic, want) in [(LogicSpec::Avg { field: 1 }, avg), (LogicSpec::Sum { field: 1 }, sum)] {
                match (single_f64(&logic.build().apply(&[&typed], AT)), want) {
                    (Some(got), Some(want)) => prop_assert!(close(got, want), "{logic:?}: {got} vs {want}"),
                    (got, want) => prop_assert_eq!(got, want, "{:?}", logic),
                }
            }
            // Order-independent: bit-for-bit.
            prop_assert_eq!(single_f64(&LogicSpec::Max { field: 1 }.build().apply(&[&typed], AT)), scalar_max);
            prop_assert_eq!(single_f64(&LogicSpec::Min { field: 1 }.build().apply(&[&typed], AT)), scalar_min);

            // COUNT with HAVING and FILTER, on a native f64 field (mask
            // kernel) and on an i64 field (row-view path), bit-for-bit.
            for (pred, field_of) in [
                (Predicate::new(1, CmpOp::Ge, 0.0), (|r: &ParityRow| r.2) as fn(&ParityRow) -> f64),
                (Predicate::new(0, CmpOp::Ge, 3.0), |r: &ParityRow| r.1 as f64),
            ] {
                let matching: Vec<&&ParityRow> =
                    live.iter().filter(|r| pred.matches(field_of(r))).collect();
                let count = LogicSpec::Count { predicate: Some(pred) }.build().apply(&[&typed], AT);
                let want_count: Vec<Vec<Value>> = live
                    .iter()
                    .take(1)
                    .map(|_| vec![Value::I64(matching.len() as i64)])
                    .collect();
                prop_assert_eq!(count.to_rows(), want_count, "count(having)");
                let filtered = FilterLogic::new(pred).apply(&[&typed], AT);
                prop_assert_eq!(filtered.len(), matching.len(), "filter survivors");
                for (got, want) in filtered.iter().zip(&matching) {
                    prop_assert_eq!(got.ts, Timestamp::from_millis(want.0));
                    prop_assert_eq!(got.values.to_vec(), parity_values(want));
                }
            }

            // TOP-K and group-bys against per-key folds in row order.
            let mut best = std::collections::BTreeMap::new();
            let mut sums = std::collections::BTreeMap::new();
            for r in &live {
                best.entry(r.1).and_modify(|m: &mut f64| *m = m.max(r.2)).or_insert(r.2);
                let e = sums.entry(r.1).or_insert((0.0, 0u64));
                e.0 += r.2;
                e.1 += 1;
            }
            let mut top: Vec<(i64, f64)> = best.iter().map(|(&k, &v)| (k, v)).collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            top.truncate(3);
            let top: Vec<Vec<Value>> = top.into_iter().map(|(k, v)| vec![Value::I64(k), Value::F64(v)]).collect();
            let avgs = sums.into_iter().map(|(k, (s, n))| (k, s / n as f64)).collect();
            for (keyed, want) in [
                (LogicSpec::TopK { k: 3, id_field: 0, value_field: 1 }, top),
                (LogicSpec::GroupMax { key_field: 0, value_field: 1 }, keyed_rows(best)),
                (LogicSpec::GroupAvg { key_field: 0, value_field: 1 }, keyed_rows(avgs)),
            ] {
                prop_assert_eq!(keyed.build().apply(&[&typed], AT).to_rows(), want, "{:?}", keyed);
            }

            // COV across two ports: the kernel's one-pass sums vs a
            // sequential scalar fold over the live values.
            let half = base.rows() / 2;
            if half >= 2 {
                let xs: Vec<f64> = typed.column_f64(1).take(half).collect();
                let ys: Vec<f64> = typed.column_f64(2).take(half).collect();
                let n = xs.len().min(ys.len());
                if n >= 2 {
                    let (mut sx, mut sy, mut sxy) = (0.0, 0.0, 0.0);
                    for i in 0..n {
                        sx += xs[i];
                        sy += ys[i];
                        sxy += xs[i] * ys[i];
                    }
                    let scalar_cov = (sxy - sx * sy / n as f64) / (n as f64 - 1.0);
                    let k = kernels::cov_sums(&xs, &ys).sample_cov().unwrap();
                    prop_assert!(close(k, scalar_cov), "cov {k} vs {scalar_cov}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Group-by kernel parity: `group_sum_count_f64` and the
// `GroupAggregate` logic against a scalar per-key fold over the
// generated rows, over random schemas (tag field position varies), key
// cardinalities, and the same six-policy drop patterns.
// ---------------------------------------------------------------------

type GroupRow = (u64, usize, f64);

fn arb_group_rows() -> impl Strategy<Value = (Vec<GroupRow>, usize, bool)> {
    (
        prop::collection::vec((0u64..999, 0usize..1000, -100.0f64..100.0), 1..150),
        1usize..40,
        0u8..2,
    )
        .prop_map(|(rows, card, lead)| (rows, card, lead == 1))
}

/// Builds the tagged rows as a typed batch, returning it with each row's
/// tag code. `lead` prepends an extra i64 field, so the tag/value fields
/// sit at different indices across runs (the "random schemas" axis).
fn group_parity_batch(
    rows: &[GroupRow],
    card: usize,
    lead: bool,
) -> (TupleBatch, Vec<u32>, usize, usize) {
    let (key_field, value_field) = if lead { (1, 2) } else { (0, 1) };
    let fields: Vec<(&str, FieldType)> = if lead {
        vec![
            ("id", FieldType::I64),
            ("tag", FieldType::Tag),
            ("v", FieldType::F64),
        ]
    } else {
        vec![("tag", FieldType::Tag), ("v", FieldType::F64)]
    };
    let schema = Schema::new(fields);
    let dict = schema.interner().expect("tag schema").clone();
    let codes: Vec<u32> = (0..card)
        .map(|k| dict.intern(&format!("key-{k}")))
        .collect();
    let mut typed = TupleBatch::with_schema_capacity(schema, rows.len());
    let mut row_codes = Vec::with_capacity(rows.len());
    for &(ms, key, v) in rows {
        let code = codes[key % card];
        row_codes.push(code);
        let mut row = Vec::with_capacity(3);
        if lead {
            row.push(Value::I64(key as i64));
        }
        row.push(Value::Tag(code));
        row.push(Value::F64(v));
        typed.push_row(Timestamp::from_millis(ms), Sic(0.001), &row);
    }
    (typed, row_codes, key_field, value_field)
}

proptest! {
    /// The group-by kernel and the `GroupAggregate` logic agree with a
    /// scalar per-key fold over the live rows under the same drops, for
    /// all six shedding policies.
    #[test]
    fn group_kernel_matches_scalar_reference(
        input in arb_group_rows(),
        chunk in 1usize..12,
        cap_pct in 10usize..100,
    ) {
        let (rows, card, lead) = input;
        let (base, row_codes, key_field, value_field) = group_parity_batch(&rows, card, lead);
        let cap = (rows.len() * cap_pct / 100).max(1);
        for dropped in policy_drop_patterns(rows.len(), chunk, cap) {
            let mut typed = base.clone();
            for &i in &dropped {
                typed.drop_row(i);
            }

            // Sequential per-key fold over the live rows. Kernel and
            // reference both add per key in row order, so the float sums
            // match bit-for-bit.
            let mut want: std::collections::BTreeMap<u32, (f64, u64)> = Default::default();
            for (i, &(_, _, v)) in rows.iter().enumerate() {
                if !dropped.contains(&i) {
                    let e = want.entry(row_codes[i]).or_insert((0.0, 0));
                    e.0 += v;
                    e.1 += 1;
                }
            }
            let want: Vec<(u32, f64, u64)> = want.into_iter().map(|(c, (s, n))| (c, s, n)).collect();

            let codes = typed.tag_column(key_field).expect("tag column").codes();
            let vals = typed.f64_column(value_field).expect("value column");
            prop_assert_eq!(&kernels::group_sum_count_f64(codes, vals, typed.drops()), &want);

            let out = GroupAggregateLogic::new(key_field, value_field).apply(&[&typed], Timestamp(0));
            let got: Vec<(u32, f64, u64)> = out
                .iter()
                .map(|r| (r.i64(0) as u32, r.f64(1), r.i64(2) as u64))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
