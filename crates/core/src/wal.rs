//! Write-ahead log and checkpoint codec for durable shard state.
//!
//! THEMIS sheds deliberately, so durability only has to bound the error on
//! what was *kept* — the AF-Stream observation ("Approximate Fault
//! Tolerance", Cheng/Huang/Lee): dropped tuples never need recovery, and a
//! checkpoint taken whenever some query's SIC has moved more than a declared
//! bound away from its checkpointed value keeps post-restore divergence
//! bounded without replaying every tuple.
//!
//! The on-disk unit is a **frame**:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [payload: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the payload; `crc` is CRC-32 (IEEE) over
//! the kind byte and payload, computed 16 bytes per step ([`crc32`], the
//! one checksum the wire codec shares). Two record kinds exist:
//!
//! * [`NodeSnapshot`] (`kind = 1`) — one node's full recoverable state:
//!   its SIC table and every buffered window pane as a columnar
//!   [`TupleBatch`] (timestamp/SIC columns bit-exact via `f64::to_bits`,
//!   payload as the native column layout, tag dictionaries snapshotted in
//!   code order so restored codes resolve identically).
//! * [`SicDelta`] (`kind = 2`) — a coordinator SIC update applied since the
//!   last checkpoint. Replay in order; the last write per query wins.
//!
//! A shard's durability directory is `root/shard-<i>/`, holding the latest
//! `checkpoint-<seq>.ckpt` (written to a temp file, then renamed; older
//! sequences pruned) plus `tail.wal`, the delta log appended between
//! checkpoints and truncated by each one. [`restore_shard`] reads the
//! newest checkpoint strictly and the tail tolerantly: an *incomplete*
//! final frame (the write the crash interrupted) is reported as a torn
//! tail and skipped, while any complete-but-corrupt frame is a hard
//! [`WalError::Corrupt`] naming the byte offset — never a panic.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::batch::{DropBitmap, TupleBatch};
use crate::ids::QueryId;
use crate::schema::{BoolColumn, Column, FieldType, Schema, TagColumn, TagInterner};
use crate::sic::Sic;
use crate::time::Timestamp;

/// Record kind byte of a [`NodeSnapshot`] frame.
pub const REC_NODE_SNAPSHOT: u8 = 1;
/// Record kind byte of a [`SicDelta`] frame.
pub const REC_SIC_DELTA: u8 = 2;

/// Bytes of frame header (`len` + `crc`) preceding every record.
pub const FRAME_HEADER_BYTES: usize = 8;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-16 over tables generated at compile time —
// no dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// `tables[k][b]` is the CRC register contribution of byte `b` followed by
/// `k` zero bytes, so one step can fold 16 input bytes independently.
/// `tables[0]` is the classic bytewise table.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = crc32_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE) of `data` — the checksum of every WAL frame, checkpoint
/// and wire frame. Folds 16 bytes per step (slicing-by-16) and finishes
/// the sub-16-byte tail bytewise; the output is the standard CRC-32, so
/// the bytes on disk and on the wire are those of a bytewise CRC.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let mut bytes: [u8; 16] = block.try_into().expect("16-byte block");
        // The register overlaps the block's first four bytes; the other
        // twelve enter unmixed.
        let head = c ^ u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        bytes[..4].copy_from_slice(&head.to_le_bytes());
        c = 0;
        for (i, &b) in bytes.iter().enumerate() {
            c ^= t[15 - i][b as usize];
        }
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Which pane of a window buffer a checkpointed batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaneKey {
    /// A time-window pane, keyed by its pane index.
    Time(u64),
    /// A count-window's pending (not yet full) batch buffer.
    Pending,
}

/// One buffered window pane of one operator port, addressed by its
/// position in the node's runtime tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PaneRecord {
    /// Owning query.
    pub query: QueryId,
    /// Fragment index within the query (the `(query, fragment)` runtime
    /// key).
    pub fragment: usize,
    /// Operator position within the fragment's pipeline.
    pub op: usize,
    /// Input port of the operator.
    pub port: usize,
    /// Which pane of the window buffer.
    pub key: PaneKey,
    /// The buffered columnar batch.
    pub batch: TupleBatch,
}

/// A full checkpoint of one node's recoverable state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSnapshot {
    /// The node's id.
    pub node: usize,
    /// The node's SIC table, `(query, latest sic)` per hosted query.
    pub sic: Vec<(QueryId, Sic)>,
    /// Every buffered window pane on the node.
    pub panes: Vec<PaneRecord>,
}

/// A coordinator SIC update logged since the last checkpoint. Carries the
/// absolute value, so replaying the tail in order converges regardless of
/// where the checkpoint cut the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SicDelta {
    /// The node whose table was updated.
    pub node: usize,
    /// The updated query.
    pub query: QueryId,
    /// The new absolute SIC value.
    pub sic: Sic,
}

/// Any record a WAL stream can hold.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A node checkpoint.
    Snapshot(NodeSnapshot),
    /// A SIC-table delta.
    SicDelta(SicDelta),
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a WAL operation failed. Decoding never panics: every anomaly in the
/// byte stream maps to [`WalError::Corrupt`] naming the offset.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The byte stream is invalid at `offset`.
    Corrupt {
        /// Byte offset of the offending frame or field.
        offset: u64,
        /// Human-readable description of the anomaly.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

fn corrupt(offset: u64, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        offset,
        detail: detail.into(),
    }
}

/// Prefixes a [`WalError::Corrupt`] detail with the file it came from.
fn in_file(err: WalError, path: &Path) -> WalError {
    match err {
        WalError::Corrupt { offset, detail } => WalError::Corrupt {
            offset,
            detail: format!("{}: {detail}", path.display()),
        },
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked little-endian reader over one frame body. `base` is
/// the body's absolute offset, so errors name file positions.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], base: u64) -> Self {
        Reader { buf, pos: 0, base }
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt(
                self.offset(),
                format!(
                    "truncated {what}: need {n} bytes, {} left in record",
                    self.buf.len() - self.pos
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WalError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, WalError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self, what: &str) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A length guarded against the bytes actually remaining, so corrupt
    /// counts fail as "truncated" instead of attempting huge allocations.
    fn count(&mut self, per_item: usize, what: &str) -> Result<usize, WalError> {
        let n = self.u32(what)? as usize;
        let need = n.saturating_mul(per_item.max(1));
        if self.buf.len() - self.pos < need {
            return Err(corrupt(
                self.offset(),
                format!(
                    "implausible {what} count {n}: needs ≥{need} bytes, {} left in record",
                    self.buf.len() - self.pos
                ),
            ));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, WalError> {
        let n = self.count(1, what)?;
        let at = self.offset();
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(at, format!("{what} is not valid utf-8")))
    }

    fn done(&self, what: &str) -> Result<(), WalError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(
                self.offset(),
                format!(
                    "{} trailing bytes after {what} record",
                    self.buf.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Batch codec
// ---------------------------------------------------------------------------

/// The payload tag every batch carries: typed columns. Tag 0 belonged to
/// a retired schema-less layout and now decodes as corruption.
const PAYLOAD_TYPED: u8 = 1;

fn field_type_code(ty: FieldType) -> u8 {
    match ty {
        FieldType::F64 => 0,
        FieldType::I64 => 1,
        FieldType::Bool => 2,
        FieldType::Tag => 3,
    }
}

fn field_type_from(code: u8, at: u64) -> Result<FieldType, WalError> {
    match code {
        0 => Ok(FieldType::F64),
        1 => Ok(FieldType::I64),
        2 => Ok(FieldType::Bool),
        3 => Ok(FieldType::Tag),
        other => Err(corrupt(at, format!("unknown field type code {other}"))),
    }
}

fn encode_batch(out: &mut Vec<u8>, batch: &TupleBatch) {
    let rows = batch.rows();
    put_u32(out, rows as u32);
    for ts in batch.ts_column() {
        put_u64(out, ts.0);
    }
    for sic in batch.sic_column() {
        put_u64(out, sic.0.to_bits());
    }
    let words = batch.drops().words();
    put_u32(out, words.len() as u32);
    for &w in words {
        put_u64(out, w);
    }
    out.push(PAYLOAD_TYPED);
    // A batch without a schema has no rows: it encodes as zero fields.
    let schema = batch.schema();
    put_u32(out, batch.width() as u32);
    for (name, ty) in schema.into_iter().flat_map(Schema::fields) {
        put_str(out, name);
        out.push(field_type_code(ty));
    }
    // Full dictionary snapshot in code order, so restored codes resolve
    // to the same strings (and an in-order re-intern into a fresh
    // interner reproduces the codes exactly).
    match schema.and_then(Schema::interner) {
        Some(dict) => {
            let n = dict.len();
            put_u32(out, n as u32);
            for code in 0..n as u32 {
                let s = dict.resolve(code).unwrap_or_else(|| Arc::from(""));
                put_str(out, &s);
            }
        }
        None => put_u32(out, 0),
    }
    for col in batch.columns() {
        match col {
            Column::F64(v) => {
                for &x in v {
                    put_u64(out, x.to_bits());
                }
            }
            Column::I64(v) => {
                for &x in v {
                    put_u64(out, x as u64);
                }
            }
            Column::Bool(v) => {
                let words = v.words();
                put_u32(out, words.len() as u32);
                for &w in words {
                    put_u64(out, w);
                }
            }
            Column::Tag(v) => {
                for &c in v.codes() {
                    put_u32(out, c);
                }
            }
        }
    }
}

/// Interned decode state shared across the panes of one restore pass:
/// all panes of a query that declared the same fields share one
/// [`Schema`] (hence one tag dictionary), exactly as they did live.
///
/// Public because the wire codec (`themis_net`) shares the WAL's batch
/// layout and keeps one cache per ingest connection, so every batch a
/// remote source ships for the same query resolves into one shared
/// schema and tag dictionary.
pub type SchemaCache = HashMap<(QueryId, Vec<(String, FieldType)>), Schema>;

/// Encodes one [`TupleBatch`] in the WAL's columnar batch layout
/// (timestamps, bit-exact SIC values, drop-bitmap words, then the typed
/// payload: schema, code-ordered tag-dictionary snapshot, columns).
/// Exposed so the wire codec frames the exact same bytes the durability
/// layer does; see [`decode_batch_bytes`] for the inverse.
pub fn encode_batch_bytes(out: &mut Vec<u8>, batch: &TupleBatch) {
    encode_batch(out, batch);
}

/// Decodes one batch that occupies *exactly* `buf` (trailing bytes are a
/// [`WalError::Corrupt`]). `base` is `buf`'s absolute offset within the
/// enclosing stream, so errors name real positions; `schemas` plays the
/// same role as in a restore pass — batches of the same query re-intern
/// their dictionary snapshots into one shared [`Schema`].
pub fn decode_batch_bytes(
    buf: &[u8],
    base: u64,
    query: QueryId,
    schemas: &mut SchemaCache,
) -> Result<TupleBatch, WalError> {
    let mut r = Reader::new(buf, base);
    let batch = decode_batch(&mut r, query, schemas)?;
    r.done("batch")?;
    Ok(batch)
}

fn read_drops(r: &mut Reader<'_>, rows: usize) -> Result<DropBitmap, WalError> {
    let words_len = r.count(8, "drop words")?;
    let mut drops = DropBitmap::with_rows(rows);
    for w in 0..words_len {
        let at = r.offset();
        let word = r.u64("drop word")?;
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            let row = w * 64 + b;
            if row >= rows {
                return Err(corrupt(at, format!("drop bit {row} beyond {rows} rows")));
            }
            drops.drop_row(row);
            bits &= bits - 1;
        }
    }
    Ok(drops)
}

fn decode_batch(
    r: &mut Reader<'_>,
    query: QueryId,
    schemas: &mut SchemaCache,
) -> Result<TupleBatch, WalError> {
    let rows = r.count(16, "batch rows")?;
    let mut ts = Vec::with_capacity(rows);
    for _ in 0..rows {
        ts.push(Timestamp(r.u64("timestamp")?));
    }
    let mut sic = Vec::with_capacity(rows);
    for _ in 0..rows {
        sic.push(Sic(r.f64("sic")?));
    }
    let drops = read_drops(r, rows)?;
    let at = r.offset();
    let tag = r.u8("payload tag")?;
    if tag != PAYLOAD_TYPED {
        return Err(corrupt(at, format!("unknown payload tag {tag}")));
    }
    let n_fields = r.count(6, "schema fields")?;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let name = r.str("field name")?;
        let at = r.offset();
        let ty = field_type_from(r.u8("field type")?, at)?;
        fields.push((name, ty));
    }
    let schema = schemas
        .entry((query, fields.clone()))
        .or_insert_with(|| Schema::new(fields.clone()))
        .clone();
    // Re-intern the snapshotted dictionary in code order; `remap`
    // translates stored codes into the (possibly pre-existing)
    // shared interner. Identity when the orders match — the
    // common case of a fresh restore.
    let n_dict = r.count(4, "tag dictionary")?;
    let mut remap = Vec::with_capacity(n_dict);
    if n_dict > 0 {
        let Some(dict) = schema.interner() else {
            return Err(corrupt(
                at,
                "tag dictionary present but schema has no tag field",
            ));
        };
        for _ in 0..n_dict {
            let s = r.str("tag dictionary entry")?;
            remap.push(dict.intern(&s));
        }
    }
    let mut columns = Vec::with_capacity(n_fields);
    for (i, (_, ty)) in fields.iter().enumerate() {
        match ty {
            FieldType::F64 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.f64("f64 column")?);
                }
                columns.push(Column::F64(v));
            }
            FieldType::I64 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.u64("i64 column")? as i64);
                }
                columns.push(Column::I64(v));
            }
            FieldType::Bool => {
                let words_len = r.count(8, "bool words")?;
                let mut words = Vec::with_capacity(words_len);
                for _ in 0..words_len {
                    words.push(r.u64("bool word")?);
                }
                let mut col = BoolColumn::with_capacity(rows);
                for row in 0..rows {
                    let w = words.get(row / 64).copied().unwrap_or(0);
                    col.push(w >> (row % 64) & 1 != 0);
                }
                columns.push(Column::Bool(col));
            }
            FieldType::Tag => {
                let dict = schema
                    .interner()
                    .cloned()
                    .unwrap_or_else(|| Arc::new(TagInterner::new()));
                let mut col = TagColumn::with_capacity(dict, rows);
                for _ in 0..rows {
                    let at = r.offset();
                    let code = r.u32("tag code")? as usize;
                    let Some(&mapped) = remap.get(code) else {
                        return Err(corrupt(
                            at,
                            format!(
                                "tag code {code} beyond dictionary of {} in field {i}",
                                remap.len()
                            ),
                        ));
                    };
                    col.push_code(mapped);
                }
                columns.push(Column::Tag(col));
            }
        }
    }
    Ok(TupleBatch::from_typed_parts(
        schema, ts, sic, columns, drops,
    ))
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn encode_pane(out: &mut Vec<u8>, pane: &PaneRecord) {
    put_u32(out, pane.query.0);
    put_u32(out, pane.fragment as u32);
    put_u32(out, pane.op as u32);
    put_u32(out, pane.port as u32);
    match pane.key {
        PaneKey::Time(idx) => {
            out.push(0);
            put_u64(out, idx);
        }
        PaneKey::Pending => out.push(1),
    }
    encode_batch(out, &pane.batch);
}

fn decode_pane(r: &mut Reader<'_>, schemas: &mut SchemaCache) -> Result<PaneRecord, WalError> {
    let query = QueryId(r.u32("pane query")?);
    let fragment = r.u32("pane fragment")? as usize;
    let op = r.u32("pane op")? as usize;
    let port = r.u32("pane port")? as usize;
    let at = r.offset();
    let key = match r.u8("pane key tag")? {
        0 => PaneKey::Time(r.u64("pane index")?),
        1 => PaneKey::Pending,
        other => return Err(corrupt(at, format!("unknown pane key tag {other}"))),
    };
    let batch = decode_batch(r, query, schemas)?;
    Ok(PaneRecord {
        query,
        fragment,
        op,
        port,
        key,
        batch,
    })
}

fn encode_snapshot(out: &mut Vec<u8>, snap: &NodeSnapshot) {
    put_u32(out, snap.node as u32);
    put_u32(out, snap.sic.len() as u32);
    for &(query, sic) in &snap.sic {
        put_u32(out, query.0);
        put_u64(out, sic.0.to_bits());
    }
    put_u32(out, snap.panes.len() as u32);
    for pane in &snap.panes {
        encode_pane(out, pane);
    }
}

fn decode_snapshot(
    r: &mut Reader<'_>,
    schemas: &mut SchemaCache,
) -> Result<NodeSnapshot, WalError> {
    let node = r.u32("snapshot node")? as usize;
    let n_sic = r.count(12, "sic entries")?;
    let mut sic = Vec::with_capacity(n_sic);
    for _ in 0..n_sic {
        let query = QueryId(r.u32("sic query")?);
        sic.push((query, Sic(r.f64("sic value")?)));
    }
    let n_panes = r.count(17, "panes")?;
    let mut panes = Vec::with_capacity(n_panes);
    for _ in 0..n_panes {
        panes.push(decode_pane(r, schemas)?);
    }
    Ok(NodeSnapshot { node, sic, panes })
}

fn encode_delta(out: &mut Vec<u8>, delta: &SicDelta) {
    put_u32(out, delta.node as u32);
    put_u32(out, delta.query.0);
    put_u64(out, delta.sic.0.to_bits());
}

fn decode_delta(r: &mut Reader<'_>) -> Result<SicDelta, WalError> {
    Ok(SicDelta {
        node: r.u32("delta node")? as usize,
        query: QueryId(r.u32("delta query")?),
        sic: Sic(r.f64("delta sic")?),
    })
}

/// Appends one framed record to `out`.
pub fn encode_record(record: &WalRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    match record {
        WalRecord::Snapshot(s) => {
            out.push(REC_NODE_SNAPSHOT);
            encode_snapshot(out, s);
        }
        WalRecord::SicDelta(d) => {
            out.push(REC_SIC_DELTA);
            encode_delta(out, d);
        }
    }
    let body = start + FRAME_HEADER_BYTES;
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

fn decode_stream(buf: &[u8], tolerate_torn_tail: bool) -> Result<(Vec<WalRecord>, bool), WalError> {
    let mut records = Vec::new();
    let mut schemas = SchemaCache::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let remaining = buf.len() - pos;
        if remaining < FRAME_HEADER_BYTES {
            if tolerate_torn_tail {
                return Ok((records, true));
            }
            return Err(corrupt(
                pos as u64,
                format!("truncated frame header: {remaining} bytes"),
            ));
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 {
            return Err(corrupt(pos as u64, "empty frame"));
        }
        if remaining - FRAME_HEADER_BYTES < len {
            // The record the crash interrupted: its bytes simply end
            // early. Only ever tolerated as the *final* frame.
            if tolerate_torn_tail {
                return Ok((records, true));
            }
            return Err(corrupt(
                pos as u64,
                format!(
                    "truncated frame body: header declares {len} bytes, {} present",
                    remaining - FRAME_HEADER_BYTES
                ),
            ));
        }
        let body = &buf[pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len];
        let computed = crc32(body);
        if computed != stored_crc {
            // A complete frame that fails its checksum is damage, not a
            // torn write — always a hard error.
            return Err(corrupt(
                pos as u64,
                format!("checksum mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"),
            ));
        }
        let base = (pos + FRAME_HEADER_BYTES) as u64;
        let mut r = Reader::new(&body[1..], base + 1);
        match body[0] {
            REC_NODE_SNAPSHOT => {
                let snap = decode_snapshot(&mut r, &mut schemas)?;
                r.done("snapshot")?;
                records.push(WalRecord::Snapshot(snap));
            }
            REC_SIC_DELTA => {
                let delta = decode_delta(&mut r)?;
                r.done("sic delta")?;
                records.push(WalRecord::SicDelta(delta));
            }
            other => {
                return Err(corrupt(base, format!("unknown record kind {other}")));
            }
        }
        pos += FRAME_HEADER_BYTES + len;
    }
    Ok((records, false))
}

/// Strictly decodes a record stream: any anomaly — truncation anywhere,
/// checksum mismatch, malformed body — is a [`WalError::Corrupt`]. Used
/// for checkpoint files, which are written atomically and must be whole.
pub fn decode_records(buf: &[u8]) -> Result<Vec<WalRecord>, WalError> {
    decode_stream(buf, false).map(|(records, _)| records)
}

/// Decodes a record stream tolerating a torn final record (the append a
/// crash interrupted): an *incomplete* last frame stops decoding and sets
/// the returned flag. A complete frame with a bad checksum is still a
/// hard [`WalError::Corrupt`].
pub fn decode_records_tolerant(buf: &[u8]) -> Result<(Vec<WalRecord>, bool), WalError> {
    decode_stream(buf, true)
}

// ---------------------------------------------------------------------------
// Shard log: checkpoint files + delta tail
// ---------------------------------------------------------------------------

/// The durability directory of shard `shard` under `root`.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq}.ckpt"))
}

fn tail_path(dir: &Path) -> PathBuf {
    dir.join("tail.wal")
}

/// Sequence numbers of the checkpoints present in `dir`, unsorted.
fn checkpoint_seqs(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    Ok(seqs)
}

/// One shard's durable log: atomically-replaced checkpoint files plus an
/// appended delta tail, under `root/shard-<i>/`.
#[derive(Debug)]
pub struct ShardLog {
    dir: PathBuf,
    next_seq: u64,
    tail: Option<fs::File>,
}

impl ShardLog {
    /// Opens (creating directories as needed) the log of `shard` under
    /// `root`. Appends continue an existing tail; the next checkpoint
    /// sequence follows the highest already on disk.
    pub fn create(root: &Path, shard: usize) -> Result<Self, WalError> {
        let dir = shard_dir(root, shard);
        fs::create_dir_all(&dir)?;
        let next_seq = checkpoint_seqs(&dir)?
            .into_iter()
            .max()
            .map_or(0, |s| s + 1);
        Ok(ShardLog {
            dir,
            next_seq,
            tail: None,
        })
    }

    /// The shard's durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a checkpoint holding `snapshots` (temp file + rename, so a
    /// crash mid-write never leaves a partial checkpoint), truncates the
    /// delta tail it supersedes, and prunes older checkpoint files.
    pub fn checkpoint(&mut self, snapshots: &[NodeSnapshot]) -> Result<(), WalError> {
        let mut buf = Vec::new();
        for snap in snapshots {
            let start = buf.len();
            buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
            buf.push(REC_NODE_SNAPSHOT);
            encode_snapshot(&mut buf, snap);
            let body = start + FRAME_HEADER_BYTES;
            let len = (buf.len() - body) as u32;
            let crc = crc32(&buf[body..]);
            buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
            buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        }
        let seq = self.next_seq;
        let tmp = self.dir.join("checkpoint.tmp");
        fs::write(&tmp, &buf)?;
        fs::rename(&tmp, checkpoint_path(&self.dir, seq))?;
        self.next_seq = seq + 1;
        // The tail's deltas are folded into this checkpoint: start fresh.
        self.tail = None;
        fs::write(tail_path(&self.dir), b"")?;
        for old in checkpoint_seqs(&self.dir)? {
            if old < seq {
                let _ = fs::remove_file(checkpoint_path(&self.dir, old));
            }
        }
        Ok(())
    }

    /// Appends one SIC delta to the tail and flushes it to the OS.
    pub fn append(&mut self, delta: &SicDelta) -> Result<(), WalError> {
        if self.tail.is_none() {
            self.tail = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(tail_path(&self.dir))?,
            );
        }
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + 17);
        encode_record(&WalRecord::SicDelta(*delta), &mut buf);
        let file = self.tail.as_mut().expect("tail opened above");
        file.write_all(&buf)?;
        file.flush()?;
        Ok(())
    }
}

/// Everything recoverable for one shard: the latest checkpoint's node
/// snapshots plus the delta tail logged after it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardRestore {
    /// Node snapshots of the newest checkpoint, in file order.
    pub snapshots: Vec<NodeSnapshot>,
    /// SIC deltas appended since that checkpoint, in log order.
    pub deltas: Vec<SicDelta>,
    /// True when the tail ended in a torn (incomplete) record that was
    /// skipped — the write the crash interrupted.
    pub torn_tail: bool,
}

/// Reads shard `shard`'s durable state under `root`: the newest
/// checkpoint (strict decode — checkpoints are atomic and must be whole)
/// plus the delta tail (tolerant decode — a torn final record is
/// skipped and flagged). `Ok(None)` when the shard never logged anything.
pub fn restore_shard(root: &Path, shard: usize) -> Result<Option<ShardRestore>, WalError> {
    let dir = shard_dir(root, shard);
    if !dir.is_dir() {
        return Ok(None);
    }
    let mut restore = ShardRestore::default();
    let mut found = false;
    if let Some(seq) = checkpoint_seqs(&dir)?.into_iter().max() {
        let path = checkpoint_path(&dir, seq);
        let bytes = fs::read(&path)?;
        for record in decode_records(&bytes).map_err(|e| in_file(e, &path))? {
            match record {
                WalRecord::Snapshot(s) => restore.snapshots.push(s),
                WalRecord::SicDelta(d) => restore.deltas.push(d),
            }
        }
        found = true;
    }
    let tail = tail_path(&dir);
    if tail.is_file() {
        let bytes = fs::read(&tail)?;
        if !bytes.is_empty() {
            found = true;
        }
        let (records, torn) = decode_records_tolerant(&bytes).map_err(|e| in_file(e, &tail))?;
        restore.torn_tail = torn;
        for record in records {
            match record {
                WalRecord::Snapshot(s) => restore.snapshots.push(s),
                WalRecord::SicDelta(d) => restore.deltas.push(d),
            }
        }
    }
    Ok(found.then_some(restore))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("themis-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A three-row batch over every field type, row 1 dropped.
    fn pinned_batch() -> TupleBatch {
        let schema = Schema::new([
            ("x", FieldType::F64),
            ("n", FieldType::I64),
            ("ok", FieldType::Bool),
            ("tag", FieldType::Tag),
        ]);
        let dict = schema.interner().unwrap().clone();
        let (a, b) = (dict.intern("a"), dict.intern("b"));
        let mut batch = TupleBatch::with_schema(schema);
        for (ts, sic, x, n, ok, tag) in [
            (1u64, 0.5, 1.5, 7i64, true, a),
            (2, 0.25, -2.0, -1, false, b),
            (3, 0.125, 0.0, 42, true, a),
        ] {
            batch.push_row(
                Timestamp(ts),
                Sic(sic),
                &[
                    Value::F64(x),
                    Value::I64(n),
                    Value::Bool(ok),
                    Value::Tag(tag),
                ],
            );
        }
        batch.drop_row(1);
        batch
    }

    fn encoded(record: &WalRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_record(record, &mut buf);
        buf
    }

    fn snapshot() -> NodeSnapshot {
        NodeSnapshot {
            node: 3,
            sic: vec![(QueryId(1), Sic(0.25)), (QueryId(2), Sic(0.5))],
            panes: vec![PaneRecord {
                query: QueryId(1),
                fragment: 0,
                op: 0,
                port: 1,
                key: PaneKey::Time(42),
                batch: pinned_batch(),
            }],
        }
    }

    /// The batch layout every checkpoint and wire frame carries, as
    /// written before the schema-less layout was retired: restoring
    /// older checkpoints depends on these bytes not moving.
    #[test]
    fn typed_batch_bytes_are_pinned() {
        const PINNED: [&str; 12] = [
            "03000000",                                               // rows
            "010000000000000002000000000000000300000000000000",       // ts
            "000000000000e03f000000000000d03f000000000000c03f",       // sic
            "010000000200000000000000",                               // drop words
            "01",                                                     // payload tag
            "04000000",                                               // field count
            "010000007800010000006e01020000006f6b020300000074616703", // fields
            "030000000000000001000000610100000062",                   // dictionary
            "000000000000f83f00000000000000c00000000000000000",       // x
            "0700000000000000ffffffffffffffff2a00000000000000",       // n
            "010000000500000000000000",                               // ok
            "010000000200000001000000",                               // tag codes
        ];
        let mut out = Vec::new();
        encode_batch_bytes(&mut out, &pinned_batch());
        let hex: String = out.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, PINNED.concat());
    }

    #[test]
    fn retired_payload_tag_is_located_corruption() {
        // One row, no drops, then payload tag 0 with a width and one
        // tagged `Value` — the retired schema-less layout.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 5);
        put_u64(&mut buf, 0.5f64.to_bits());
        put_u32(&mut buf, 0);
        let tag_at = buf.len() as u64;
        buf.push(0);
        put_u32(&mut buf, 1);
        buf.push(1);
        put_u64(&mut buf, 2.0f64.to_bits());
        let err = decode_batch_bytes(&buf, 100, QueryId(0), &mut SchemaCache::new()).unwrap_err();
        match err {
            WalError::Corrupt { offset, detail } => {
                assert_eq!(offset, 100 + tag_at);
                assert!(detail.contains("unknown payload tag 0"), "{detail}");
            }
            other => panic!("expected corrupt, got {other}"),
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_stream_round_trips() {
        let mut buf = Vec::new();
        encode_record(&WalRecord::Snapshot(snapshot()), &mut buf);
        let delta = SicDelta {
            node: 3,
            query: QueryId(1),
            sic: Sic(0.75),
        };
        encode_record(&WalRecord::SicDelta(delta), &mut buf);
        let records = decode_records(&buf).unwrap();
        assert_eq!(records.len(), 2);
        // Restored tag columns use a re-interned dictionary, so compare
        // the re-encoded bytes rather than the interner identities.
        assert_eq!(
            encoded(&records[0]),
            encoded(&WalRecord::Snapshot(snapshot()))
        );
        assert_eq!(records[1], WalRecord::SicDelta(delta));
    }

    #[test]
    fn torn_tail_is_tolerated_but_strict_decode_rejects_it() {
        let mut buf = Vec::new();
        encode_record(
            &WalRecord::SicDelta(SicDelta {
                node: 0,
                query: QueryId(9),
                sic: Sic(0.5),
            }),
            &mut buf,
        );
        let whole = buf.len();
        encode_record(&WalRecord::Snapshot(snapshot()), &mut buf);
        buf.truncate(whole + 11); // rip the second record mid-body
        let (records, torn) = decode_records_tolerant(&buf).unwrap();
        assert_eq!(records.len(), 1);
        assert!(torn);
        let err = decode_records(&buf).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("truncated frame body"), "{err}");
    }

    #[test]
    fn flipped_byte_is_a_checksum_error_even_when_tolerant() {
        let mut buf = Vec::new();
        encode_record(&WalRecord::Snapshot(snapshot()), &mut buf);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = decode_records_tolerant(&buf).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn shard_log_checkpoints_appends_and_restores() {
        let root = tmp_root("cycle");
        let mut log = ShardLog::create(&root, 7).unwrap();
        log.checkpoint(&[snapshot()]).unwrap();
        let d1 = SicDelta {
            node: 3,
            query: QueryId(1),
            sic: Sic(0.3),
        };
        let d2 = SicDelta {
            node: 3,
            query: QueryId(1),
            sic: Sic(0.6),
        };
        log.append(&d1).unwrap();
        log.append(&d2).unwrap();
        let restore = restore_shard(&root, 7).unwrap().unwrap();
        assert_eq!(restore.snapshots.len(), 1);
        assert_eq!(
            encoded(&WalRecord::Snapshot(restore.snapshots[0].clone())),
            encoded(&WalRecord::Snapshot(snapshot()))
        );
        assert_eq!(restore.deltas, vec![d1, d2]);
        assert!(!restore.torn_tail);
        // A new checkpoint truncates the tail and prunes the old file.
        log.checkpoint(&[snapshot()]).unwrap();
        let restore = restore_shard(&root, 7).unwrap().unwrap();
        assert!(restore.deltas.is_empty());
        let seqs = checkpoint_seqs(&shard_dir(&root, 7)).unwrap();
        assert_eq!(seqs, vec![1]);
        // Unlogged shards restore to None.
        assert!(restore_shard(&root, 8).unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_on_disk_is_flagged_and_skipped() {
        let root = tmp_root("torn");
        let mut log = ShardLog::create(&root, 0).unwrap();
        let d = SicDelta {
            node: 1,
            query: QueryId(4),
            sic: Sic(0.9),
        };
        log.append(&d).unwrap();
        log.append(&d).unwrap();
        drop(log);
        let tail = tail_path(&shard_dir(&root, 0));
        let bytes = fs::read(&tail).unwrap();
        fs::write(&tail, &bytes[..bytes.len() - 5]).unwrap();
        let restore = restore_shard(&root, 0).unwrap().unwrap();
        assert_eq!(restore.deltas, vec![d]);
        assert!(restore.torn_tail);
        let _ = fs::remove_dir_all(&root);
    }
}
