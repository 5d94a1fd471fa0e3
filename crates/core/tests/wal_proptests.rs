//! Property-based tests over the WAL checkpoint codec: encode→decode is
//! lossless for every column type a pane can hold (F64/I64/Bool/Tag
//! columns and their dictionaries, drop bitmaps, NaN-carrying SIC
//! values), and every corruption of the byte
//! stream — truncation at any offset, any flipped byte — maps to an
//! actionable [`WalError::Corrupt`] or a tolerated torn tail, never a
//! panic.

use proptest::prelude::*;
use themis_core::prelude::*;
use themis_core::wal::{decode_records, decode_records_tolerant, encode_record};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A typed batch over a schema exercising all four column types, tags
/// drawn from a six-entry dictionary that is interned in full (so some
/// dictionary entries may go unreferenced by any row).
fn arb_typed_batch() -> impl Strategy<Value = TupleBatch> {
    prop::collection::vec(
        (
            (0u64..1_000_000, 0.0f64..1.0), // ts, sic
            (
                0usize..6,          // tag pool index
                -1.0e12f64..1.0e12, // F64 cell
                i64::MIN..i64::MAX, // I64 cell
                0u8..2,             // Bool cell
            ),
            0u8..2, // dropped?
        ),
        0..24,
    )
    .prop_map(|rows| {
        let schema = Schema::new([
            ("tag", FieldType::Tag),
            ("x", FieldType::F64),
            ("n", FieldType::I64),
            ("ok", FieldType::Bool),
        ]);
        let dict = schema
            .interner()
            .expect("tag schema has an interner")
            .clone();
        let codes: Vec<u32> = (0..6).map(|k| dict.intern(&format!("tag-{k}"))).collect();
        let mut b = TupleBatch::with_schema_capacity(schema, rows.len());
        for &((ts, sic), (k, x, n, ok), _) in &rows {
            b.push_row(
                Timestamp(ts),
                Sic(sic),
                &[
                    Value::Tag(codes[k]),
                    Value::F64(x),
                    Value::I64(n),
                    Value::Bool(ok == 1),
                ],
            );
        }
        for (i, &(.., dropped)) in rows.iter().enumerate() {
            if dropped == 1 {
                b.drop_row(i);
            }
        }
        b
    })
}

fn arb_pane() -> impl Strategy<Value = PaneRecord> {
    (
        (0u32..8, 0usize..3, 0usize..3, 0usize..2),
        (0u8..2, 0u64..u64::MAX),
        arb_typed_batch(),
    )
        .prop_map(|((q, fragment, op, port), (kind, t), batch)| PaneRecord {
            query: QueryId(q),
            fragment,
            op,
            port,
            key: if kind == 0 {
                PaneKey::Time(t)
            } else {
                PaneKey::Pending
            },
            batch,
        })
}

/// SIC values are generated from raw bit patterns so the round-trip
/// property covers NaNs, infinities and subnormals bit-for-bit.
fn arb_snapshot() -> impl Strategy<Value = NodeSnapshot> {
    (
        0usize..64,
        prop::collection::vec((0u32..32, 0u64..u64::MAX), 0..8),
        prop::collection::vec(arb_pane(), 0..3),
    )
        .prop_map(|(node, sic, panes)| NodeSnapshot {
            node,
            sic: sic
                .into_iter()
                .map(|(q, bits)| (QueryId(q), Sic(f64::from_bits(bits))))
                .collect(),
            panes,
        })
}

fn arb_delta() -> impl Strategy<Value = SicDelta> {
    (0usize..64, 0u32..32, 0u64..u64::MAX).prop_map(|(node, q, bits)| SicDelta {
        node,
        query: QueryId(q),
        sic: Sic(f64::from_bits(bits)),
    })
}

// ---------------------------------------------------------------------------
// Semantic equality
// ---------------------------------------------------------------------------
//
// Restored typed batches carry a freshly re-interned dictionary, so
// `Schema` equality (which requires pointer-identical interners) can
// never hold across a round-trip, and codes may be remapped when panes
// share a decoded schema. Equality is therefore checked field by field:
// tags by their resolved strings, SIC by exact bit pattern.

fn batch_mismatch(a: &TupleBatch, b: &TupleBatch) -> Option<String> {
    if a.rows() != b.rows() {
        return Some(format!("rows {} vs {}", a.rows(), b.rows()));
    }
    if a.width() != b.width() {
        return Some(format!("width {} vs {}", a.width(), b.width()));
    }
    let fields = |t: &TupleBatch| -> Vec<(String, FieldType)> {
        t.schema()
            .map(|s| s.fields().map(|(n, ty)| (n.to_string(), ty)).collect())
            .unwrap_or_default()
    };
    if fields(a) != fields(b) {
        return Some(format!("schema {:?} vs {:?}", fields(a), fields(b)));
    }
    for i in 0..a.rows() {
        if a.is_live(i) != b.is_live(i) {
            return Some(format!(
                "row {i} liveness {} vs {}",
                a.is_live(i),
                b.is_live(i)
            ));
        }
        let (ta, tb) = (a.row(i).to_tuple(), b.row(i).to_tuple());
        if ta.ts != tb.ts {
            return Some(format!("row {i} ts {:?} vs {:?}", ta.ts, tb.ts));
        }
        if ta.sic.value().to_bits() != tb.sic.value().to_bits() {
            return Some(format!("row {i} sic bits {:?} vs {:?}", ta.sic, tb.sic));
        }
        for (f, (va, vb)) in ta.values.iter().zip(&tb.values).enumerate() {
            let same = match (va, vb) {
                // Tags compare by resolved string.
                (Value::Tag(ca), Value::Tag(cb)) => {
                    let resolve = |t: &TupleBatch, c: u32| {
                        t.schema()
                            .and_then(|s| s.interner())
                            .and_then(|d| d.resolve(c))
                    };
                    resolve(a, *ca) == resolve(b, *cb)
                }
                _ => va == vb,
            };
            if !same {
                return Some(format!("row {i} field {f}: {va:?} vs {vb:?}"));
            }
        }
    }
    None
}

fn snapshot_mismatch(a: &NodeSnapshot, b: &NodeSnapshot) -> Option<String> {
    if a.node != b.node {
        return Some(format!("node {} vs {}", a.node, b.node));
    }
    let bits = |sic: &[(QueryId, Sic)]| -> Vec<(QueryId, u64)> {
        sic.iter().map(|&(q, s)| (q, s.value().to_bits())).collect()
    };
    if bits(&a.sic) != bits(&b.sic) {
        return Some(format!("sic table {:?} vs {:?}", a.sic, b.sic));
    }
    if a.panes.len() != b.panes.len() {
        return Some(format!("panes {} vs {}", a.panes.len(), b.panes.len()));
    }
    for (i, (pa, pb)) in a.panes.iter().zip(&b.panes).enumerate() {
        if (pa.query, pa.fragment, pa.op, pa.port, pa.key)
            != (pb.query, pb.fragment, pb.op, pb.port, pb.key)
        {
            return Some(format!("pane {i} address mismatch"));
        }
        if let Some(why) = batch_mismatch(&pa.batch, &pb.batch) {
            return Some(format!("pane {i} batch: {why}"));
        }
    }
    None
}

fn delta_mismatch(a: &SicDelta, b: &SicDelta) -> Option<String> {
    if a.node != b.node || a.query != b.query || a.sic.value().to_bits() != b.sic.value().to_bits()
    {
        return Some(format!("{a:?} vs {b:?}"));
    }
    None
}

fn record_mismatch(a: &WalRecord, b: &WalRecord) -> Option<String> {
    match (a, b) {
        (WalRecord::Snapshot(x), WalRecord::Snapshot(y)) => snapshot_mismatch(x, y),
        (WalRecord::SicDelta(x), WalRecord::SicDelta(y)) => delta_mismatch(x, y),
        _ => Some("record kind mismatch".into()),
    }
}

/// The byte ranges of each frame in an encoded stream, recovered by
/// walking the length prefixes.
fn frame_bounds(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 8 + len;
        bounds.push((pos, end));
        pos = end;
    }
    bounds
}

fn encode_all(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in records {
        encode_record(r, &mut buf);
    }
    buf
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// Encode→decode round-trips every snapshot and delta: window panes
    /// (all column types, tag dictionaries, drop bitmaps) semantically
    /// identical, SIC values bit-identical.
    #[test]
    fn codec_round_trips_snapshots_and_deltas(
        snaps in prop::collection::vec(arb_snapshot(), 1..3),
        deltas in prop::collection::vec(arb_delta(), 0..12),
    ) {
        let records: Vec<WalRecord> = snaps
            .into_iter()
            .map(WalRecord::Snapshot)
            .chain(deltas.into_iter().map(WalRecord::SicDelta))
            .collect();
        let buf = encode_all(&records);

        let strict = decode_records(&buf).expect("valid stream decodes strictly");
        prop_assert_eq!(strict.len(), records.len());
        for (i, (orig, back)) in records.iter().zip(&strict).enumerate() {
            let why = record_mismatch(orig, back);
            prop_assert!(why.is_none(), "record {i}: {}", why.unwrap());
        }

        let (tolerant, torn) = decode_records_tolerant(&buf).expect("valid stream");
        prop_assert!(!torn, "intact stream reported a torn tail");
        prop_assert_eq!(tolerant.len(), records.len());
    }

    /// Truncating the stream at any byte never panics: the tolerant
    /// decoder returns exactly the complete frames and flags the torn
    /// tail, while the strict decoder reports the truncation offset.
    #[test]
    fn truncation_at_any_offset_is_detected(
        snap in arb_snapshot(),
        delta in arb_delta(),
        cut in 0usize..1 << 20,
    ) {
        let records = vec![WalRecord::Snapshot(snap), WalRecord::SicDelta(delta)];
        let buf = encode_all(&records);
        let bounds = frame_bounds(&buf);
        let cut = cut % (buf.len() + 1); // inclusive of the intact stream
        let truncated = &buf[..cut];
        let whole = bounds.iter().filter(|&&(_, end)| end <= cut).count();
        let at_boundary = cut == 0 || bounds.iter().any(|&(_, end)| end == cut);

        let (recovered, torn) =
            decode_records_tolerant(truncated).expect("truncation is always tolerated");
        prop_assert_eq!(recovered.len(), whole);
        prop_assert_eq!(torn, !at_boundary);
        for (orig, back) in records.iter().zip(&recovered) {
            prop_assert!(record_mismatch(orig, back).is_none());
        }

        let strict = decode_records(truncated);
        if at_boundary {
            prop_assert!(strict.is_ok());
        } else {
            let err = strict.expect_err("mid-frame cut must fail strict decode");
            prop_assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
            prop_assert!(err.to_string().contains("truncated frame"), "{err}");
        }
    }

    /// Flipping any checksum byte of any frame is a hard, actionable
    /// error naming the frame offset — in both decoders, since a
    /// complete frame with a bad CRC is damage, not a torn write.
    #[test]
    fn flipped_checksum_byte_is_a_hard_error(
        snap in arb_snapshot(),
        delta in arb_delta(),
        frame in 0usize..2,
        byte in 0usize..4,
        mask in 1u16..256,
    ) {
        let records = vec![WalRecord::Snapshot(snap), WalRecord::SicDelta(delta)];
        let mut buf = encode_all(&records);
        let (start, _) = frame_bounds(&buf)[frame];
        buf[start + 4 + byte] ^= mask as u8; // the CRC field sits after the length

        let strict = decode_records(&buf).expect_err("bad checksum must fail");
        prop_assert!(
            matches!(strict, WalError::Corrupt { offset, .. } if offset == start as u64),
            "{strict}"
        );
        prop_assert!(strict.to_string().contains("checksum mismatch"), "{strict}");

        let tolerant = decode_records_tolerant(&buf).expect_err("tolerance is for torn tails only");
        prop_assert!(tolerant.to_string().contains("checksum mismatch"), "{tolerant}");
    }

    /// Flipping any single byte anywhere in the stream never panics:
    /// decoding either succeeds (a flip in a length prefix can mimic a
    /// torn tail, which the tolerant decoder absorbs) or fails with a
    /// located, described corruption error.
    #[test]
    fn flipping_any_byte_never_panics(
        snap in arb_snapshot(),
        pos in 0usize..1 << 20,
        mask in 1u16..256,
    ) {
        let mut buf = encode_all(&[WalRecord::Snapshot(snap)]);
        let pos = pos % buf.len();
        buf[pos] ^= mask as u8;

        for result in [decode_records(&buf).map(|_| ()), decode_records_tolerant(&buf).map(|_| ())] {
            if let Err(err) = result {
                prop_assert!(matches!(&err, WalError::Corrupt { detail, .. } if !detail.is_empty()));
                prop_assert!(err.to_string().contains("wal corrupt at byte"), "{err}");
            }
        }
    }
}
