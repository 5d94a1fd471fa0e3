//! Property-based tests over the wire codec: encode→decode is lossless
//! for every message kind and every column type (interned tag
//! dictionaries, drop bitmaps, NaN-carrying SIC values), and every
//! corruption of the byte
//! stream — truncation at any offset, any flipped byte — maps to an
//! actionable [`NetError::Corrupt`] naming the damaged offset, never a
//! panic. The structure mirrors `wal_proptests.rs` deliberately: the
//! wire frame IS the WAL frame, so the failure taxonomy must match.

use proptest::prelude::*;
use themis_core::prelude::*;
use themis_net::prelude::*;

/// `[len: u32][crc: u32]` — keep in sync with `wal::FRAME_HEADER_BYTES`.
const HEADER: usize = 8;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A typed batch over a schema exercising all four column types, tags
/// drawn from a six-entry dictionary that is interned in full (so some
/// dictionary entries may go unreferenced by any row and must still
/// survive the wire for later batches on the same connection).
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

/// A routed batch frame: arbitrary routing header over a typed batch.
fn arb_wire_batch() -> impl Strategy<Value = WireBatch> {
    (
        (0u32..16, 0u32..8, 0u32..4, 0u32..64, 0u64..u64::MAX),
        arb_typed_batch(),
    )
        .prop_map(|((node, q, fragment, source, created), batch)| WireBatch {
            node,
            query: QueryId(q),
            fragment,
            source: SourceId(source),
            created: Timestamp(created),
            batch,
        })
}

/// A whole session: hello, a run of batches, bye — the exact frame
/// sequence a source pump writes.
fn arb_session() -> impl Strategy<Value = Vec<NetMsg>> {
    (
        prop::collection::vec(0u8..128, 0..12), // peer-name bytes (ascii subset)
        prop::collection::vec(arb_wire_batch(), 0..4),
        (0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(|(peer, batches, (sent, shed))| {
            let peer: String = peer
                .into_iter()
                .map(|b| char::from(b'a' + b % 26))
                .collect();
            let mut msgs = vec![NetMsg::Hello {
                version: PROTOCOL_VERSION,
                peer,
            }];
            msgs.extend(batches.into_iter().map(NetMsg::Batch));
            msgs.push(NetMsg::Bye {
                sent_batches: sent,
                shed_batches: shed,
            });
            msgs
        })
}

// ---------------------------------------------------------------------------
// Semantic equality
// ---------------------------------------------------------------------------
//
// Decoded typed batches carry a freshly re-interned dictionary, so
// `Schema` equality (pointer-identical interners) can never hold across
// the wire, and codes may be remapped when batches share a connection's
// schema cache. Equality is therefore field by field: tags by resolved
// string, SIC by exact bit pattern.

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

fn msg_mismatch(a: &NetMsg, b: &NetMsg) -> Option<String> {
    match (a, b) {
        (
            NetMsg::Hello {
                version: va,
                peer: pa,
            },
            NetMsg::Hello {
                version: vb,
                peer: pb,
            },
        ) => {
            if va != vb || pa != pb {
                return Some(format!("hello ({va}, {pa:?}) vs ({vb}, {pb:?})"));
            }
            None
        }
        (NetMsg::Batch(x), NetMsg::Batch(y)) => {
            if (x.node, x.query, x.fragment, x.source, x.created)
                != (y.node, y.query, y.fragment, y.source, y.created)
            {
                return Some("batch routing header mismatch".into());
            }
            batch_mismatch(&x.batch, &y.batch).map(|why| format!("batch payload: {why}"))
        }
        (
            NetMsg::Bye {
                sent_batches: sa,
                shed_batches: ha,
            },
            NetMsg::Bye {
                sent_batches: sb,
                shed_batches: hb,
            },
        ) => {
            if sa != sb || ha != hb {
                return Some(format!("bye ({sa}, {ha}) vs ({sb}, {hb})"));
            }
            None
        }
        _ => Some("message kind mismatch".into()),
    }
}

/// The byte ranges of each frame in an encoded stream, recovered by
/// walking the length prefixes.
fn frame_bounds(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + HEADER + len;
        bounds.push((pos, end));
        pos = end;
    }
    bounds
}

fn encode_all(msgs: &[NetMsg]) -> Vec<u8> {
    let mut buf = Vec::new();
    for m in msgs {
        encode_msg(m, &mut buf);
    }
    buf
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// Encode→decode round-trips a whole session semantically: routing
    /// headers verbatim, batches (all column types, tag dictionaries,
    /// drop bitmaps) field-identical, SIC bit-identical —
    /// both through the one-shot stream decoder and through an
    /// incremental [`Decoder`] fed the stream in arbitrary chunks.
    #[test]
    fn codec_round_trips_whole_sessions(
        msgs in arb_session(),
        chunk in 1usize..4096,
    ) {
        let buf = encode_all(&msgs);

        let back = decode_frames(&buf).expect("valid stream decodes");
        prop_assert_eq!(back.len(), msgs.len());
        for (i, (orig, got)) in msgs.iter().zip(&back).enumerate() {
            let why = msg_mismatch(orig, got);
            prop_assert!(why.is_none(), "message {i}: {}", why.unwrap());
        }

        // The incremental decoder must agree no matter how the bytes
        // arrive off the socket.
        let mut dec = Decoder::new();
        let mut pending: Vec<u8> = Vec::new();
        let mut streamed = Vec::new();
        for piece in buf.chunks(chunk) {
            pending.extend_from_slice(piece);
            while let Some((msg, used)) = dec.next(&pending).expect("valid stream") {
                streamed.push(msg);
                pending.drain(..used);
            }
        }
        prop_assert!(pending.is_empty(), "{} undecoded bytes", pending.len());
        prop_assert_eq!(dec.consumed(), buf.len() as u64);
        prop_assert_eq!(streamed.len(), msgs.len());
        for (i, (orig, got)) in msgs.iter().zip(&streamed).enumerate() {
            let why = msg_mismatch(orig, got);
            prop_assert!(why.is_none(), "streamed message {i}: {}", why.unwrap());
        }
    }

    /// Truncating a captured stream at any byte never panics: a cut on a
    /// frame boundary decodes the complete prefix, a mid-frame cut is a
    /// [`NetError::Corrupt`] naming the start of the torn frame. (A live
    /// [`Decoder`] instead reports `Ok(None)` — "read more" — which the
    /// listener escalates only when the socket closes; this property
    /// covers the strict whole-stream view.)
    #[test]
    fn truncation_at_any_offset_is_detected(
        msgs in arb_session(),
        cut in 0usize..1 << 20,
    ) {
        let buf = encode_all(&msgs);
        let bounds = frame_bounds(&buf);
        let cut = cut % (buf.len() + 1); // inclusive of the intact stream
        let truncated = &buf[..cut];
        let whole = bounds.iter().filter(|&&(_, end)| end <= cut).count();
        let at_boundary = cut == 0 || bounds.iter().any(|&(_, end)| end == cut);

        let strict = decode_frames(truncated);
        if at_boundary {
            let prefix = strict.expect("boundary cut decodes the prefix");
            prop_assert_eq!(prefix.len(), whole);
            for (orig, got) in msgs.iter().zip(&prefix) {
                prop_assert!(msg_mismatch(orig, got).is_none());
            }
        } else {
            let frame_start = bounds
                .iter()
                .find(|&&(start, end)| start < cut && cut < end)
                .map(|&(start, _)| start as u64)
                .expect("mid-frame cut sits inside some frame");
            let err = strict.expect_err("mid-frame cut must fail strict decode");
            prop_assert!(
                matches!(err, NetError::Corrupt { offset, .. } if offset == frame_start),
                "{err} (expected offset {frame_start})"
            );
            prop_assert!(err.to_string().contains("truncated frame"), "{err}");
        }
    }

    /// Flipping any checksum byte of any frame is a hard, actionable
    /// error naming that frame's offset.
    #[test]
    fn flipped_checksum_byte_is_a_hard_error(
        msgs in arb_session(),
        frame in 0usize..1 << 20,
        byte in 0usize..4,
        mask in 1u16..256,
    ) {
        let mut buf = encode_all(&msgs);
        let bounds = frame_bounds(&buf);
        let (start, _) = bounds[frame % bounds.len()];
        buf[start + 4 + byte] ^= mask as u8; // the CRC field sits after the length

        let err = decode_frames(&buf).expect_err("bad checksum must fail");
        prop_assert!(
            matches!(err, NetError::Corrupt { offset, .. } if offset == start as u64),
            "{err} (expected offset {start})"
        );
        prop_assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    /// Flipping any single byte anywhere in the stream never panics, and
    /// always surfaces as a located, described corruption error: a body
    /// or CRC flip fails the checksum, a length flip reads as an
    /// implausible or truncated frame. CRC-32 detects every single-byte
    /// error, so a flipped wire byte can never decode silently.
    #[test]
    fn flipping_any_byte_is_located_corruption(
        msgs in arb_session(),
        pos in 0usize..1 << 20,
        mask in 1u16..256,
    ) {
        let mut buf = encode_all(&msgs);
        let pos = pos % buf.len();
        buf[pos] ^= mask as u8;

        let err = decode_frames(&buf).expect_err("flipped byte must fail decode");
        prop_assert!(
            matches!(&err, NetError::Corrupt { detail, .. } if !detail.is_empty()),
            "{err}"
        );
        prop_assert!(err.to_string().contains("wire corrupt at byte"), "{err}");
    }
}
