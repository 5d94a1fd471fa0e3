//! Property-based tests over the core THEMIS invariants.

use proptest::prelude::*;
use themis_core::prelude::*;

/// Strategy: a buffer snapshot of up to 8 queries, each with up to 20
/// batches of 1-20 tuples and small positive SIC values.
fn arb_states() -> impl Strategy<Value = Vec<QueryBufferState>> {
    prop::collection::vec(
        (
            0.0f64..0.5,
            prop::collection::vec((1usize..20, 1e-6f64..0.05), 0..20),
        ),
        1..8,
    )
    .prop_map(|queries| {
        let mut idx = 0usize;
        queries
            .into_iter()
            .enumerate()
            .map(|(q, (base, batches))| {
                let batches = batches
                    .into_iter()
                    .map(|(tuples, sic)| {
                        let b = CandidateBatch {
                            buffer_index: idx,
                            sic: Sic(sic),
                            tuples,
                            created: Timestamp(idx as u64),
                        };
                        idx += 1;
                        b
                    })
                    .collect();
                QueryBufferState {
                    query: QueryId(q as u32),
                    base_sic: Sic(base),
                    batches,
                }
            })
            .collect()
    })
}

proptest! {
    /// The shedder never admits more tuples than the capacity, for any
    /// policy.
    #[test]
    fn shedders_respect_capacity(states in arb_states(), cap in 0usize..500, seed in 0u64..1000) {
        for policy in registered_policies() {
            let d = policy.build(seed).select_to_keep(cap, &states);
            prop_assert!(d.kept_tuples <= cap, "{} kept {} > cap {}", policy, d.kept_tuples, cap);
        }
    }

    /// Keep-set indices are unique and refer to actual buffered batches.
    #[test]
    fn keep_set_is_valid(states in arb_states(), cap in 0usize..500, seed in 0u64..1000) {
        let valid: std::collections::HashSet<usize> = states
            .iter()
            .flat_map(|q| q.batches.iter().map(|b| b.buffer_index))
            .collect();
        let mut s = BalanceSicShedder::new(seed);
        let d = s.select_to_keep(cap, &states);
        let mut seen = std::collections::HashSet::new();
        for &i in &d.keep {
            prop_assert!(valid.contains(&i), "kept unknown index {i}");
            prop_assert!(seen.insert(i), "duplicate keep index {i}");
        }
        // Conservation: kept + shed tuples equals the buffered total.
        let total: usize = states.iter().map(|q| q.buffered_tuples()).sum();
        prop_assert_eq!(d.kept_tuples + d.shed_tuples, total);
    }

    /// With unlimited capacity, nothing is shed by any policy.
    #[test]
    fn unlimited_capacity_sheds_nothing(states in arb_states(), seed in 0u64..100) {
        let total: usize = states.iter().map(|q| q.buffered_tuples()).sum();
        for policy in registered_policies() {
            let d = policy.build(seed).select_to_keep(total, &states);
            prop_assert_eq!(d.kept_tuples, total, "{} shed under no overload", policy);
        }
    }

    /// BALANCE-SIC keeps a minimum per-query SIC at least as high as
    /// random shedding's when all batches are single tuples (so the
    /// convergence argument applies exactly). The property is max-min
    /// fairness, the objective Algorithm 1 approximates — not Jain's
    /// index: with two queries of 2 × 0.0199 and 14 × 0.0034 SIC under
    /// capacity 8, BALANCE-SIC keeps (2, 6) tuples (min 0.0203, Jain
    /// 0.905) while random keeps (1, 7) (min 0.0199, Jain 0.992).
    #[test]
    fn balance_is_fairer_than_random_on_unit_batches(
        per_query in prop::collection::vec((1usize..60, 1e-4f64..0.02), 2..6),
        seed in 0u64..50,
    ) {
        let mut idx = 0usize;
        let states: Vec<QueryBufferState> = per_query
            .iter()
            .enumerate()
            .map(|(q, &(n, sic))| {
                let batches = (0..n)
                    .map(|_| {
                        let b = CandidateBatch {
                            buffer_index: idx,
                            sic: Sic(sic),
                            tuples: 1,
                            created: Timestamp(idx as u64),
                        };
                        idx += 1;
                        b
                    })
                    .collect();
                QueryBufferState { query: QueryId(q as u32), base_sic: Sic::ZERO, batches }
            })
            .collect();
        let total: usize = states.iter().map(|q| q.buffered_tuples()).sum();
        let cap = total / 2;
        let kept_sics = |d: &ShedDecision| -> Vec<f64> {
            let kept: std::collections::HashSet<usize> = d.keep.iter().copied().collect();
            states
                .iter()
                .map(|q| {
                    q.batches
                        .iter()
                        .filter(|b| kept.contains(&b.buffer_index))
                        .map(|b| b.sic.value())
                        .sum::<f64>()
                })
                .collect()
        };
        let min_kept = |d: &ShedDecision| kept_sics(d).into_iter().fold(f64::INFINITY, f64::min);
        let mb = min_kept(&BalanceSicShedder::new(seed).select_to_keep(cap, &states));
        let mr = min_kept(&RandomShedder::new(seed).select_to_keep(cap, &states));
        // Slack covers only float summation order.
        prop_assert!(mb >= mr - 1e-12, "balance min {mb} vs random min {mr}");
    }

    /// Jain's index is bounded by [1/n, 1] on non-degenerate inputs.
    #[test]
    fn jain_bounds(values in prop::collection::vec(0.0f64..1.0, 1..50)) {
        let j = jain_index(&values);
        let n = values.len() as f64;
        prop_assert!(j <= 1.0 + 1e-12);
        prop_assert!(j >= 1.0 / n - 1e-12);
    }

    /// Eq. 3 conserves SIC mass: splitting an input sum across any positive
    /// number of outputs and re-summing returns the input sum.
    #[test]
    fn sic_propagation_conserves_mass(mass in 0.0f64..10.0, n in 1usize..100) {
        let per = Sic::derived_tuple(Sic(mass), n);
        let back: Sic = std::iter::repeat(per).take(n).sum();
        prop_assert!((back.value() - mass).abs() < 1e-9 * mass.max(1.0));
    }

    /// The sliding accumulator's total is always the sum of the last
    /// `window` worth of additions.
    #[test]
    fn sliding_accumulator_window_sum(
        adds in prop::collection::vec((0u64..5_000, 0.0f64..10.0), 1..100),
    ) {
        use themis_core::stw::{SlidingAccumulator, StwConfig};
        let cfg = StwConfig::new(TimeDelta::from_millis(1000), TimeDelta::from_millis(250));
        let mut acc = SlidingAccumulator::new(cfg);
        let mut adds = adds;
        adds.sort_by_key(|&(t, _)| t);
        for &(t, v) in &adds {
            acc.add(Timestamp::from_millis(t), v);
        }
        let now_ms = adds.last().unwrap().0;
        let now_slide = now_ms / 250;
        // Manual reference: sum of values whose slide index is within the
        // last 4 slides.
        let expect: f64 = adds
            .iter()
            .filter(|&&(t, _)| {
                let s = t / 250;
                now_slide - s < 4
            })
            .map(|&(_, v)| v)
            .sum();
        prop_assert!((acc.total() - expect).abs() < 1e-9, "{} vs {}", acc.total(), expect);
    }

    /// Shedding through the batch bitmap drops exactly the same tuple set
    /// as the row path, for every registered policy: snapshots built from
    /// columnar batches equal snapshots built from tuple rows, two
    /// same-seeded shedders reach the same decision on them, and applying
    /// that decision by marking the drop bitmap keeps the same tuples (in
    /// the same order) as splicing kept `Vec<Tuple>`s.
    #[test]
    fn bitmap_shedding_matches_row_path_for_all_policies(
        batches in prop::collection::vec(
            (0u32..4, 1usize..12, 1e-6f64..0.05),
            1..24,
        ),
        cap in 0usize..200,
        seed in 0u64..500,
    ) {
        // One workload, two representations.
        let rows: Vec<(QueryId, Vec<Tuple>)> = batches
            .iter()
            .enumerate()
            .map(|(i, &(q, n, sic))| {
                let tuples: Vec<Tuple> = (0..n)
                    .map(|k| {
                        Tuple::measurement(
                            Timestamp((i * 100 + k) as u64),
                            Sic(sic),
                            (i * 1000 + k) as f64,
                        )
                    })
                    .collect();
                (QueryId(q), tuples)
            })
            .collect();
        let columnar: Vec<Batch> = rows
            .iter()
            .map(|(q, tuples)| Batch::new(*q, tuples[0].ts, tuples.clone()))
            .collect();

        // Row-path snapshot: per-tuple iteration.
        let mut by_query: std::collections::BTreeMap<QueryId, Vec<CandidateBatch>> =
            std::collections::BTreeMap::new();
        for (idx, (q, tuples)) in rows.iter().enumerate() {
            by_query.entry(*q).or_default().push(CandidateBatch {
                buffer_index: idx,
                sic: tuples.iter().map(|t| t.sic).sum(),
                tuples: tuples.len(),
                created: tuples[0].ts,
            });
        }
        let row_states: Vec<QueryBufferState> = by_query
            .into_iter()
            .map(|(query, batches)| QueryBufferState {
                query,
                base_sic: Sic::ZERO,
                batches,
            })
            .collect();
        // Batch-path snapshot: header reads.
        let batch_states = build_buffer_states(&columnar, |_| Sic::ZERO);

        for policy in registered_policies() {
            let d_row = policy.build(seed).select_to_keep(cap, &row_states);
            let d_batch = policy.build(seed).select_to_keep(cap, &batch_states);
            prop_assert_eq!(
                &d_row.keep, &d_batch.keep,
                "{}: decisions diverged across representations", policy.name()
            );

            // Row path: splice the kept tuples out of the buffer.
            let kept: std::collections::HashSet<usize> = d_row.keep.iter().copied().collect();
            let row_kept: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .filter(|(idx, _)| kept.contains(idx))
                .flat_map(|(_, (_, tuples))| tuples.clone())
                .collect();

            // Batch path: mark shed batches in the bitmap, then read what
            // is still live.
            let shed = d_batch.shed_bitmap(columnar.len());
            let mut marked = columnar.clone();
            for (idx, b) in marked.iter_mut().enumerate() {
                if shed.is_dropped(idx) {
                    // Whole-batch shed: flip the rows' bits.
                    let mut data = b.clone().into_data();
                    data.drop_all();
                    *b = Batch::from_data(b.query(), b.created(), data);
                }
            }
            let batch_kept: Vec<Tuple> = marked
                .iter()
                .flat_map(|b| b.iter().map(|r| r.to_tuple()))
                .collect();

            prop_assert_eq!(
                &row_kept, &batch_kept,
                "{}: bitmap kept a different tuple set", policy.name()
            );
        }
    }

    /// Dictionary-encoded tag columns survive the batch plumbing: rows
    /// pushed into a batch with a `Tag` field stay identical to a plain
    /// row model through split_front → append_batch → random drops →
    /// gather, and every surviving code still resolves to the string it
    /// was interned from.
    #[test]
    fn dictionary_round_trip_preserves_tags(
        rows in prop::collection::vec((0usize..6, 0u32..2, 0u32..2), 1..48),
        split_at in 0usize..48,
    ) {
        let schema = Schema::new([("tag", FieldType::Tag), ("x", FieldType::F64)]);
        let dict = schema.interner().expect("tag schema has an interner").clone();
        let pool: Vec<String> = (0..6).map(|k| format!("tag-{k}")).collect();
        let codes: Vec<u32> = pool.iter().map(|s| dict.intern(s)).collect();

        let tuples: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, &(k, _, _))| {
                Tuple::new(
                    Timestamp(i as u64),
                    Sic(1e-3),
                    vec![Value::Tag(codes[k]), Value::F64(i as f64)],
                )
            })
            .collect();

        let mut typed = TupleBatch::with_schema_capacity(schema.clone(), tuples.len());
        for t in &tuples {
            typed.push_tuple(t);
        }
        prop_assert!(typed.tag_column(0).is_some());

        // split_front + append_batch is an identity on the row sequence.
        let n = split_at % (tuples.len() + 1);
        let mut typed_front = typed.split_front(n);
        typed_front.append_batch(&typed);
        let mut typed = typed_front;

        // Random drop bitmap.
        for (i, &(_, dropped, _)) in rows.iter().enumerate() {
            if dropped == 1 {
                typed.drop_row(i);
            }
        }

        // Gather the rows whose mask bit is set; dropped rows' bits are
        // cleared up front, as the filter kernel's predicate mask does.
        let mut mask = vec![0u64; rows.len().div_ceil(64)];
        for (i, &(_, dropped, keep)) in rows.iter().enumerate() {
            if keep == 1 && dropped == 0 {
                mask[i / 64] |= 1 << (i % 64);
            }
        }
        let typed_out = typed.gather(&mask);

        // Gathered typed batches keep the dictionary column and share the
        // original interner — no re-encoding on the hot path.
        if !typed_out.is_empty() {
            let col = typed_out.tag_column(0).expect("gather keeps the tag column");
            prop_assert!(std::sync::Arc::ptr_eq(col.dict(), &dict));
        }

        // Reference model: the rows that survive both drop and mask.
        let expect: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .filter(|&(_, &(_, dropped, keep))| dropped == 0 && keep == 1)
            .map(|(i, _)| tuples[i].clone())
            .collect();
        let typed_tuples = typed_out.into_tuples();
        prop_assert_eq!(&typed_tuples, &expect);
        for t in &typed_tuples {
            match t.values[0] {
                Value::Tag(c) => {
                    let k = codes.iter().position(|&cc| cc == c).expect("known code");
                    prop_assert_eq!(dict.resolve(c).as_deref(), Some(pool[k].as_str()));
                }
                ref v => prop_assert!(false, "tag field materialised as {v:?}"),
            }
        }
    }

    /// Cost-model capacity estimates are always positive and respond
    /// monotonically to the per-tuple cost.
    #[test]
    fn cost_model_monotone(
        fast_us in 1u64..100,
        slow_extra in 1u64..1000,
        tuples in 1u64..10_000,
    ) {
        let interval = TimeDelta::from_millis(250);
        let mut fast = CostModel::new(1.0);
        fast.observe(TimeDelta::from_micros(fast_us * tuples), tuples);
        let mut slow = CostModel::new(1.0);
        slow.observe(TimeDelta::from_micros((fast_us + slow_extra) * tuples), tuples);
        let cf = fast.capacity(interval, 1);
        let cs = slow.capacity(interval, 1);
        prop_assert!(cf >= 1 && cs >= 1);
        prop_assert!(cf >= cs, "faster node must have >= capacity ({cf} vs {cs})");
    }
}

/// The shedding pass as it was when it grouped through a hash map and
/// marked through a hash set and a sorted copy of the keep list: the
/// reference its hash-free form must match bit for bit.
mod hashed {
    use std::collections::{HashMap, HashSet};
    use themis_core::prelude::*;

    pub fn build_buffer_states<'a>(
        buffer: impl IntoIterator<Item = &'a Batch>,
        reported_sic: impl Fn(QueryId) -> Sic,
    ) -> Vec<QueryBufferState> {
        let mut by_query: HashMap<QueryId, Vec<CandidateBatch>> = HashMap::new();
        for (idx, b) in buffer.into_iter().enumerate() {
            by_query.entry(b.query()).or_default().push(CandidateBatch {
                buffer_index: idx,
                sic: b.sic(),
                tuples: b.len(),
                created: b.created(),
            });
        }
        let mut states: Vec<QueryBufferState> = by_query
            .into_iter()
            .map(|(query, batches)| {
                let buffered: Sic = batches.iter().map(|b| b.sic).sum();
                let base = Sic((reported_sic(query).value() - buffered.value()).max(0.0));
                QueryBufferState {
                    query,
                    base_sic: base,
                    batches,
                }
            })
            .collect();
        states.sort_by_key(|s| s.query);
        states
    }

    /// `(kept_tuples, shed_tuples, shed_batches)` of `keep` over `queries`.
    pub fn counts(keep: &[usize], queries: &[QueryBufferState]) -> (usize, usize, usize) {
        let kept: HashSet<usize> = keep.iter().copied().collect();
        let mut out = (0, 0, 0);
        for b in queries.iter().flat_map(|q| &q.batches) {
            if kept.contains(&b.buffer_index) {
                out.0 += b.tuples;
            } else {
                out.1 += b.tuples;
                out.2 += 1;
            }
        }
        out
    }

    pub fn shed_bitmap(keep: &[usize], n_batches: usize) -> DropBitmap {
        let mut keep = keep.to_vec();
        keep.sort_unstable();
        let mut bm = DropBitmap::with_rows(n_batches);
        let mut it = keep.into_iter().peekable();
        for i in 0..n_batches {
            if it.peek() == Some(&i) {
                it.next();
            } else {
                bm.drop_row(i);
            }
        }
        bm
    }
}

/// Every field of two snapshots, SIC values compared bit for bit.
fn same_states(a: &[QueryBufferState], b: &[QueryBufferState]) -> bool {
    let bits = |s: Sic| s.value().to_bits();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.query == y.query
                && bits(x.base_sic) == bits(y.base_sic)
                && x.batches.len() == y.batches.len()
                && x.batches.iter().zip(&y.batches).all(|(c, d)| {
                    (c.buffer_index, c.tuples, c.created) == (d.buffer_index, d.tuples, d.created)
                        && bits(c.sic) == bits(d.sic)
                })
        })
}

proptest! {
    /// The shedding pass hashes nothing and decides exactly as it did
    /// when it hashed. Over buffers of up to 60 batches of up to 6
    /// interleaved queries, with random reported SICs:
    /// `build_buffer_states` matches the hashed reference bit for bit;
    /// every registered policy, seeded alike, keeps the same batches in
    /// the same order from either snapshot (so it drew the same random
    /// numbers); its tuple and batch counts equal the reference's; and
    /// its shed bitmap marks the same batches.
    #[test]
    fn the_shedding_pass_matches_its_hashed_reference(
        batches in prop::collection::vec((0u32..6, 1usize..20, 1e-4f64..0.05), 0..60),
        reported in prop::collection::vec(0.0f64..1.0, 6),
        cap in 0usize..400,
        seed in 0u64..500,
    ) {
        let buffer: Vec<Batch> = batches
            .iter()
            .enumerate()
            .map(|(i, &(q, n, sic))| {
                let ts = Timestamp(i as u64);
                let tuples = (0..n).map(|k| Tuple::measurement(ts, Sic(sic), k as f64)).collect();
                Batch::new(QueryId(q), ts, tuples)
            })
            .collect();
        let reported_sic = |q: QueryId| Sic(reported[q.0 as usize]);
        let states = build_buffer_states(&buffer, reported_sic);
        let reference = hashed::build_buffer_states(&buffer, reported_sic);
        prop_assert!(same_states(&states, &reference), "{states:?} vs {reference:?}");
        for policy in registered_policies() {
            let decision = policy.build(seed).select_to_keep(cap, &states);
            let expected = policy.build(seed).select_to_keep(cap, &reference);
            prop_assert_eq!(&decision.keep, &expected.keep, "{}", policy.name());
            prop_assert_eq!(
                (decision.kept_tuples, decision.shed_tuples, decision.shed_batches),
                hashed::counts(&decision.keep, &states),
                "{}", policy.name()
            );
            let bitmap = decision.shed_bitmap(buffer.len());
            let reference = hashed::shed_bitmap(&decision.keep, buffer.len());
            prop_assert_eq!(bitmap.dropped(), reference.dropped(), "{}", policy.name());
            for i in 0..buffer.len() {
                prop_assert_eq!(bitmap.is_dropped(i), reference.is_dropped(i));
            }
        }
    }
}
