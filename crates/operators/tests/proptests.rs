//! Property-based tests: Eq.-3 SIC propagation invariants over arbitrary
//! tuple streams and operator configurations, plus typed-kernel /
//! scalar-fold parity over random schemas, drop patterns and all six
//! shedding policies.

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
// Typed-kernel parity: for random schemas and batches, every typed
// kernel result matches the scalar `Value`-path fold — bit-for-bit for
// order-independent kernels (min/max/count/filter/top-k/group-by), and
// within a tiny reassociation bound for the lane-split float sums
// (sum/avg/cov) — across drop patterns produced by all six shedding
// policies plus direct row-level drops.
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

/// Builds the same logical rows as an arena batch and a typed batch.
fn parity_batches(rows: &[ParityRow]) -> (TupleBatch, TupleBatch) {
    let mut arena = TupleBatch::with_capacity(3, rows.len());
    let mut typed = TupleBatch::with_schema_capacity(parity_schema(), rows.len());
    for &(ms, id, v, flag) in rows {
        let row = [Value::I64(id), Value::F64(v), Value::Bool(flag)];
        let ts = Timestamp::from_millis(ms);
        arena.push_row(ts, Sic(0.001), &row);
        typed.push_row(ts, Sic(0.001), &row);
    }
    (arena, typed)
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
    for policy in PolicyKind::ALL {
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

fn single_f64(out: &[(Option<Timestamp>, Row)]) -> Option<f64> {
    out.first().map(|(_, r)| r[0].as_f64())
}

proptest! {
    /// Every typed kernel agrees with the scalar `Value`-path fold on the
    /// same rows under the same drops, for all six shedding policies.
    #[test]
    fn typed_kernels_match_scalar_value_path(
        rows in arb_parity_rows(),
        chunk in 1usize..12,
        cap_pct in 10usize..100,
    ) {
        let (arena_base, typed_base) = parity_batches(&rows);
        // Both layouts hold the same rows before anything is dropped.
        prop_assert_eq!(arena_base.to_tuples(), typed_base.to_tuples());
        let cap = (rows.len() * cap_pct / 100).max(1);
        for dropped in policy_drop_patterns(rows.len(), chunk, cap) {
            let (mut arena, mut typed) = (arena_base.clone(), typed_base.clone());
            for &i in &dropped {
                arena.drop_row(i);
                typed.drop_row(i);
            }
            prop_assert_eq!(arena.len(), typed.len());

            // Scalar references, folded sequentially through the arena.
            let scalar_sum: f64 = arena.column_f64(1).sum();
            let scalar_n = arena.len() as u64;
            let scalar_max = arena
                .column_f64(1)
                .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.max(v))));
            let scalar_min = arena
                .column_f64(1)
                .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.min(v))));

            // Kernels on the typed columns.
            let col = typed.f64_column(1).expect("typed v column");
            let (k_sum, k_n) = kernels::sum_count_f64(col, typed.drops());
            prop_assert_eq!(k_n, scalar_n, "live count");
            prop_assert!(close(k_sum, scalar_sum), "sum {k_sum} vs {scalar_sum}");
            prop_assert_eq!(kernels::max_f64(col, typed.drops()), scalar_max, "max");
            prop_assert_eq!(kernels::min_f64(col, typed.drops()), scalar_min, "min");

            // Aggregate logic: typed pane (kernel path) vs arena pane
            // (scalar fallback path).
            for field_logic in [
                LogicSpec::Avg { field: 1 },
                LogicSpec::Sum { field: 1 },
            ] {
                let a = single_f64(&field_logic.build().apply(&[&arena]));
                let t = single_f64(&field_logic.build().apply(&[&typed]));
                match (a, t) {
                    (Some(a), Some(t)) => prop_assert!(close(a, t), "{field_logic:?}: {a} vs {t}"),
                    (a, t) => prop_assert_eq!(a, t, "{:?}", field_logic),
                }
            }
            for field_logic in [
                LogicSpec::Max { field: 1 },
                LogicSpec::Min { field: 1 },
            ] {
                // Order-independent: bit-for-bit.
                let a = single_f64(&field_logic.build().apply(&[&arena]));
                let t = single_f64(&field_logic.build().apply(&[&typed]));
                prop_assert_eq!(a, t, "{:?}", field_logic);
            }

            // COUNT with HAVING: mask kernel vs row-walk, bit-for-bit.
            let pred = Predicate::new(1, CmpOp::Ge, 0.0);
            let count = LogicSpec::Count { predicate: Some(pred) };
            prop_assert_eq!(
                count.build().apply(&[&arena]),
                count.build().apply(&[&typed]),
                "count(having)"
            );

            // FILTER: the columnar gather (mask kernel) vs the row path.
            let mut filter = FilterLogic::new(pred);
            let row_out = filter.apply(&[&arena]);
            let col_out = FilterLogic::new(pred)
                .apply_columnar(&[&typed], Timestamp(0))
                .expect("typed filter path");
            prop_assert_eq!(col_out.len(), row_out.len(), "filter survivors");
            for (i, (ts, row)) in row_out.iter().enumerate() {
                let got = col_out.row(i);
                prop_assert_eq!(Some(got.ts), *ts);
                prop_assert_eq!(&got.values.to_vec(), row, "filter row {i}");
            }

            // TOP-K and group-bys: typed column folds vs row views,
            // bit-for-bit (same fold order on both layouts).
            for keyed in [
                LogicSpec::TopK { k: 3, id_field: 0, value_field: 1 },
                LogicSpec::GroupMax { key_field: 0, value_field: 1 },
                LogicSpec::GroupAvg { key_field: 0, value_field: 1 },
            ] {
                prop_assert_eq!(
                    keyed.build().apply(&[&arena]),
                    keyed.build().apply(&[&typed]),
                    "{:?}",
                    keyed
                );
            }

            // COV across two ports: the kernel's one-pass sums vs a
            // sequential scalar fold over the arena's live values.
            let half = arena_base.rows() / 2;
            if half >= 2 {
                let xs: Vec<f64> = arena.column_f64(1).take(half).collect();
                let ys: Vec<f64> = arena.column_f64(2).take(half).collect();
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
// Group-by kernel parity: `group_sum_count_f64` against a scalar
// per-key reference, over random schemas (tag field position varies),
// key cardinalities, and the same six-policy drop patterns.
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

/// Builds the same logical tagged rows as an arena batch and a typed
/// batch. `lead` prepends an extra i64 field, so the tag/value fields sit
/// at different indices across runs (the "random schemas" axis).
fn group_parity_batches(
    rows: &[GroupRow],
    card: usize,
    lead: bool,
) -> (TupleBatch, TupleBatch, usize, usize) {
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
    let mut arena = TupleBatch::with_capacity(schema.len(), rows.len());
    let mut typed = TupleBatch::with_schema_capacity(schema, rows.len());
    for &(ms, key, v) in rows {
        let code = codes[key % card];
        let mut row = Vec::with_capacity(3);
        if lead {
            row.push(Value::I64(key as i64));
        }
        row.push(Value::Tag(code));
        row.push(Value::F64(v));
        let ts = Timestamp::from_millis(ms);
        arena.push_row(ts, Sic(0.001), &row);
        typed.push_row(ts, Sic(0.001), &row);
    }
    (arena, typed, key_field, value_field)
}

proptest! {
    /// The group-by kernel agrees with a scalar per-key fold on the same
    /// rows under the same drops, for all six shedding policies — and the
    /// `GroupAggregate` logic's columnar path matches its row path.
    #[test]
    fn group_kernel_matches_scalar_reference(
        input in arb_group_rows(),
        chunk in 1usize..12,
        cap_pct in 10usize..100,
    ) {
        let (rows, card, lead) = input;
        let (arena_base, typed_base, key_field, value_field) =
            group_parity_batches(&rows, card, lead);
        let cap = (rows.len() * cap_pct / 100).max(1);
        for dropped in policy_drop_patterns(rows.len(), chunk, cap) {
            let (mut arena, mut typed) = (arena_base.clone(), typed_base.clone());
            for &i in &dropped {
                arena.drop_row(i);
                typed.drop_row(i);
            }

            // Kernel on the raw code/value slices vs a sequential scalar
            // per-key fold over the live arena rows. Both add per key in
            // row order, so the float sums match bit-for-bit.
            let codes = typed.tag_column(key_field).expect("tag column").codes();
            let vals = typed.f64_column(value_field).expect("value column");
            let got = kernels::group_sum_count_f64(codes, vals, typed.drops());
            let mut want: std::collections::HashMap<u32, (f64, u64)> = Default::default();
            for t in arena.iter() {
                let code = t.get(key_field).map(|v| v.as_i64()).unwrap_or(0).max(0) as u32;
                let v = t.get(value_field).map(|v| v.as_f64()).unwrap_or(0.0);
                let e = want.entry(code).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            }
            prop_assert_eq!(got.len(), want.len(), "distinct keys");
            prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "ascending codes");
            for &(c, s, n) in &got {
                let &(ws, wn) = want.get(&c).expect("key in reference");
                prop_assert_eq!(n, wn, "count for code {}", c);
                prop_assert_eq!(s, ws, "sum for code {}", c);
            }

            // Logic parity: arena row path vs typed row path vs typed
            // columnar (kernel) path.
            let mut logic = GroupAggregateLogic::new(key_field, value_field);
            let row_out = logic.apply(&[&arena]);
            prop_assert_eq!(&row_out, &logic.apply(&[&typed]), "row-path layouts");
            let col_out = logic
                .apply_columnar(&[&typed], Timestamp(0))
                .expect("typed group path");
            prop_assert_eq!(col_out.len(), row_out.len(), "group rows");
            for (i, (_, row)) in row_out.iter().enumerate() {
                prop_assert_eq!(&col_out.row(i).values.to_vec(), row, "group row {}", i);
            }
        }
    }
}
