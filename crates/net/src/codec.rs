//! Wire codec: WAL frames on a socket.
//!
//! Every message is one frame of [`themis_core::frame`], the format WAL
//! records use (`[len][crc][kind][payload]`); this module only adds the
//! message kinds and [`MAX_FRAME_BYTES`]. A batch payload is the WAL
//! batch layout verbatim ([`themis_core::wal::encode_batch_bytes`]),
//! prefixed by its routing header. Decode errors are always actionable
//! [`NetError::Corrupt`] values naming the absolute stream offset — never
//! panics — so a flipped byte on the wire reads like a corrupt WAL file,
//! not a crash.

use std::collections::HashMap;
use std::fmt;

// The whole frame toolkit: messages are frames, and the tests below build
// raw ones from the same primitives.
use themis_core::frame::*;
use themis_core::prelude::{QueryId, SourceId, Timestamp, TupleBatch};
use themis_core::wal::{decode_batch_bytes, encode_batch_bytes, SchemaCache, WalError};

/// Wire protocol version carried in every [`NetMsg::Hello`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame body. A length prefix beyond this is treated
/// as corruption immediately: a streaming reader must not wait for (or
/// allocate) gigabytes because one length byte flipped in flight.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const MSG_HELLO: u8 = 1;
const MSG_BATCH: u8 = 2;
const MSG_BYE: u8 = 3;

/// Errors of the wire layer.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Malformed bytes at an absolute stream offset.
    Corrupt {
        /// Byte offset since the start of the stream.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
    /// Connecting to a peer failed after the configured bounded retries.
    ConnectFailed {
        /// The address dialled.
        addr: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last underlying error.
        detail: String,
    },
    /// A well-formed frame that violates the protocol (e.g. version skew).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network i/o error: {e}"),
            NetError::Corrupt { offset, detail } => {
                write!(f, "wire corrupt at byte {offset}: {detail}")
            }
            NetError::ConnectFailed {
                addr,
                attempts,
                detail,
            } => write!(
                f,
                "connect to {addr} failed after {attempts} attempts: {detail}"
            ),
            NetError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WalError> for NetError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => NetError::Io(e),
            WalError::Corrupt { offset, detail } => NetError::Corrupt { offset, detail },
        }
    }
}

/// A batch in flight: the routing header the pump would have attached
/// in-process, plus the columnar payload.
#[derive(Debug, Clone)]
pub struct WireBatch {
    /// Global node index hosting the destination fragment.
    pub node: u32,
    /// Owning query.
    pub query: QueryId,
    /// Destination fragment within the query.
    pub fragment: u32,
    /// The emitting source.
    pub source: SourceId,
    /// Emission timestamp (logical, source-process clock).
    pub created: Timestamp,
    /// The columnar payload, WAL batch layout on the wire.
    pub batch: TupleBatch,
}

/// One wire message.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// First frame on every connection: version handshake plus a peer
    /// name used in engine-side error reports.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// Human-readable peer identity (e.g. `source-pump-2`).
        peer: String,
    },
    /// A routed tuple batch.
    Batch(WireBatch),
    /// Clean shutdown: the peer's final send-side accounting, so the
    /// engine can surface remote shed counts in its report.
    Bye {
        /// Batch frames the peer actually wrote to the socket.
        sent_batches: u64,
        /// Batch frames the peer shed oldest-first from a full queue.
        shed_batches: u64,
    },
}

/// Appends one framed message to `out`.
pub fn encode_msg(msg: &NetMsg, out: &mut Vec<u8>) {
    match msg {
        NetMsg::Hello { version, peer } => write_frame(out, MSG_HELLO, |out| {
            put_u32(out, *version);
            put_str(out, peer);
        }),
        NetMsg::Batch(wb) => encode_batch_msg(wb, out),
        NetMsg::Bye {
            sent_batches,
            shed_batches,
        } => write_frame(out, MSG_BYE, |out| {
            put_u64(out, *sent_batches);
            put_u64(out, *shed_batches);
        }),
    }
}

/// Appends the frame `encode_msg(&NetMsg::Batch(wb.clone()), out)` would,
/// encoded from the borrowed batch (no copy of its columns).
pub(crate) fn encode_batch_msg(wb: &WireBatch, out: &mut Vec<u8>) {
    write_frame(out, MSG_BATCH, |out| {
        put_u32(out, wb.node);
        put_u32(out, wb.query.0);
        put_u32(out, wb.fragment);
        put_u32(out, wb.source.0);
        put_u64(out, wb.created.0);
        encode_batch_bytes(out, &wb.batch);
    });
}

/// Incremental frame decoder for one connection. Feeds on the front of a
/// receive buffer; tracks the absolute stream offset so every error
/// names the byte the damage is at, and keeps one [`SchemaCache`] so all
/// batches a peer ships for the same query share a schema and tag
/// dictionary (codes are remapped through re-interning, exactly like a
/// WAL restore).
pub struct Decoder {
    schemas: SchemaCache,
    consumed: u64,
}

impl Decoder {
    /// A decoder positioned at stream offset zero.
    pub fn new() -> Self {
        Decoder {
            schemas: HashMap::new(),
            consumed: 0,
        }
    }

    /// Absolute offset of the first unconsumed byte.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Tries to decode one message from the front of `buf` (which must
    /// start at stream offset [`Decoder::consumed`]). Returns the
    /// message plus the frame's byte length for the caller to drain;
    /// `Ok(None)` means the frame is still incomplete — read more.
    pub fn next(&mut self, buf: &[u8]) -> Result<Option<(NetMsg, usize)>, NetError> {
        let at = self.consumed;
        if let Some(len) = frame_len(buf).filter(|&len| len > MAX_FRAME_BYTES) {
            let detail = format!("implausible frame length {len} (max {MAX_FRAME_BYTES})");
            return Err(corrupt(at, detail).into());
        }
        let Some((kind, mut r, frame)) = read_frame(buf, at)? else {
            return Ok(None);
        };
        let msg = match kind {
            MSG_HELLO => {
                let version = r.u32("hello version")?;
                let peer = r.str("hello peer name")?;
                r.done("hello")?;
                NetMsg::Hello { version, peer }
            }
            MSG_BATCH => {
                let node = r.u32("batch node")?;
                let query = QueryId(r.u32("batch query")?);
                let fragment = r.u32("batch fragment")?;
                let source = SourceId(r.u32("batch source")?);
                let created = Timestamp(r.u64("batch timestamp")?);
                let (bytes, bytes_at) = r.rest();
                let batch = decode_batch_bytes(bytes, bytes_at, query, &mut self.schemas)?;
                NetMsg::Batch(WireBatch {
                    node,
                    query,
                    fragment,
                    source,
                    created,
                    batch,
                })
            }
            MSG_BYE => {
                let sent_batches = r.u64("bye sent count")?;
                let shed_batches = r.u64("bye shed count")?;
                r.done("bye")?;
                NetMsg::Bye {
                    sent_batches,
                    shed_batches,
                }
            }
            other => return Err(unknown_kind(at, "message", other).into()),
        };
        self.consumed += frame as u64;
        Ok(Some((msg, frame)))
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

/// Strictly decodes a complete captured stream: any anomaly — a frame
/// truncated anywhere, a checksum mismatch, a malformed body — is a
/// [`NetError::Corrupt`] naming the offending offset. The property-test
/// entry point (sockets use [`Decoder`] incrementally instead).
pub fn decode_frames(buf: &[u8]) -> Result<Vec<NetMsg>, NetError> {
    let mut dec = Decoder::new();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some((msg, used)) = dec.next(&buf[pos..])? else {
            return Err(truncated(&buf[pos..], pos as u64).into());
        };
        out.push(msg);
        pos += used;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::prelude::{Sic, Value};

    fn batch() -> TupleBatch {
        let mut b = TupleBatch::new();
        for i in 0..3u64 {
            b.push_row(
                Timestamp(i * 10),
                Sic(0.5),
                &[Value::I64(i as i64), Value::F64(i as f64 * 1.5)],
            );
        }
        b.drop_row(1);
        b
    }

    #[test]
    fn round_trips_a_session() {
        let msgs = vec![
            NetMsg::Hello {
                version: PROTOCOL_VERSION,
                peer: "pump-0".into(),
            },
            NetMsg::Batch(WireBatch {
                node: 3,
                query: QueryId(7),
                fragment: 1,
                source: SourceId(9),
                created: Timestamp(12345),
                batch: batch(),
            }),
            NetMsg::Bye {
                sent_batches: 41,
                shed_batches: 1,
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            encode_msg(m, &mut buf);
        }
        let back = decode_frames(&buf).unwrap();
        assert_eq!(back.len(), 3);
        match &back[0] {
            NetMsg::Hello { version, peer } => {
                assert_eq!(*version, PROTOCOL_VERSION);
                assert_eq!(peer, "pump-0");
            }
            other => panic!("expected hello, got {other:?}"),
        }
        match &back[1] {
            NetMsg::Batch(wb) => {
                assert_eq!(wb.node, 3);
                assert_eq!(wb.query, QueryId(7));
                assert_eq!(wb.source, SourceId(9));
                assert_eq!(wb.batch.rows(), 3);
                assert!(!wb.batch.is_live(1));
            }
            other => panic!("expected batch, got {other:?}"),
        }
        match &back[2] {
            NetMsg::Bye {
                sent_batches,
                shed_batches,
            } => {
                assert_eq!(*sent_batches, 41);
                assert_eq!(*shed_batches, 1);
            }
            other => panic!("expected bye, got {other:?}"),
        }
    }

    /// A whole session (hello, batch, bye) pinned by length and CRC-32.
    /// Round-trip tests cannot see a format change made to the encoder
    /// and decoder at once; this can.
    #[test]
    fn session_bytes_are_pinned() {
        let mut buf = Vec::new();
        encode_msg(
            &NetMsg::Hello {
                version: PROTOCOL_VERSION,
                peer: "pump-0".into(),
            },
            &mut buf,
        );
        encode_msg(
            &NetMsg::Batch(WireBatch {
                node: 3,
                query: QueryId(7),
                fragment: 1,
                source: SourceId(9),
                created: Timestamp(12345),
                batch: batch(),
            }),
            &mut buf,
        );
        encode_msg(
            &NetMsg::Bye {
                sent_batches: 41,
                shed_batches: 1,
            },
            &mut buf,
        );
        assert_eq!((buf.len(), crc32(&buf)), (216, 0x9dbd_b755));
    }

    #[test]
    fn retired_payload_tag_is_located_corruption() {
        // A batch frame whose payload carries tag 0, the retired
        // schema-less layout: one row, a width, one tagged `Value`.
        let mut body = vec![MSG_BATCH];
        for header in [3u32, 7, 1, 9] {
            put_u32(&mut body, header);
        }
        put_u64(&mut body, 12345);
        put_u32(&mut body, 1);
        put_u64(&mut body, 5);
        put_u64(&mut body, 0.5f64.to_bits());
        put_u32(&mut body, 0);
        let tag_at = (FRAME_HEADER_BYTES + body.len()) as u64;
        body.push(0);
        put_u32(&mut body, 1);
        body.push(1);
        put_u64(&mut body, 2.0f64.to_bits());
        let mut buf = Vec::new();
        put_u32(&mut buf, body.len() as u32);
        put_u32(&mut buf, crc32(&body));
        buf.extend_from_slice(&body);
        match decode_frames(&buf).unwrap_err() {
            NetError::Corrupt { offset, detail } => {
                assert_eq!(offset, tag_at);
                assert!(detail.contains("unknown payload tag 0"), "{detail}");
            }
            other => panic!("expected corrupt, got {other}"),
        }
    }

    #[test]
    fn incremental_decode_waits_for_whole_frames() {
        let mut buf = Vec::new();
        encode_msg(
            &NetMsg::Bye {
                sent_batches: 1,
                shed_batches: 0,
            },
            &mut buf,
        );
        let mut dec = Decoder::new();
        for cut in 0..buf.len() {
            assert!(dec.next(&buf[..cut]).unwrap().is_none(), "cut at {cut}");
        }
        let (msg, used) = dec.next(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        assert!(matches!(msg, NetMsg::Bye { .. }));
        assert_eq!(dec.consumed(), buf.len() as u64);
    }

    #[test]
    fn implausible_length_is_corrupt_not_a_wait() {
        let mut buf = Vec::new();
        encode_msg(
            &NetMsg::Bye {
                sent_batches: 0,
                shed_batches: 0,
            },
            &mut buf,
        );
        buf[3] = 0xff; // drive the length prefix past MAX_FRAME_BYTES
        let err = decode_frames(&buf).unwrap_err();
        match err {
            NetError::Corrupt { offset, detail } => {
                assert_eq!(offset, 0);
                assert!(detail.contains("implausible frame length"), "{detail}");
            }
            other => panic!("expected corrupt, got {other}"),
        }
    }
}
