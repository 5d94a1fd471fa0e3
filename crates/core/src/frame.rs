//! The one frame format shared by the WAL ([`crate::wal`]) and the wire
//! codec (`themis_net::codec`).
//!
//! Every WAL record, checkpoint entry and wire message is one **frame**:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [payload: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the payload; `crc` is CRC-32 (IEEE)
//! over the kind byte and payload, computed 16 bytes per step
//! ([`crc32`]). [`write_frame`] appends one frame, [`read_frame`] checks
//! and opens one, and [`Reader`] walks its payload. What the kind bytes
//! mean is the caller's business; so is any cap on `len` (the wire
//! rejects implausible lengths before waiting for a body, the WAL takes
//! any length). Errors are [`WalError::Corrupt`] values naming absolute
//! stream offsets — decoding never panics.

use crate::wal::WalError;

/// Bytes of frame header (`len` + `crc`) preceding every frame body.
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

/// Appends `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as a `u32` byte length followed by its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one frame of `kind` whose payload `payload` writes: the header
/// is reserved first and backfilled with the length and checksum, so the
/// payload is encoded straight into `out` with no staging copy.
pub fn write_frame(out: &mut Vec<u8>, kind: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_BYTES]);
    out.push(kind);
    payload(out);
    let body = start + FRAME_HEADER_BYTES;
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// A [`WalError::Corrupt`] at `offset`.
pub fn corrupt(offset: u64, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        offset,
        detail: detail.into(),
    }
}

/// The body length the header at the front of `buf` declares, or `None`
/// while fewer than [`FRAME_HEADER_BYTES`] bytes are present.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    let header = buf.get(..FRAME_HEADER_BYTES)?;
    Some(u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize)
}

/// Checks and opens the frame at the front of `buf`, which starts at
/// absolute stream offset `at`. Returns the kind byte, a [`Reader`] over
/// the payload and the frame's total byte length; `Ok(None)` means the
/// frame is incomplete (header or body still short). A zero length or a
/// checksum mismatch is corruption at `at`.
pub fn read_frame(buf: &[u8], at: u64) -> Result<Option<(u8, Reader<'_>, usize)>, WalError> {
    let Some(len) = frame_len(buf) else {
        return Ok(None);
    };
    if len == 0 {
        return Err(corrupt(at, "empty frame"));
    }
    let Some(body) = buf.get(FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len) else {
        return Ok(None);
    };
    let stored = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if computed != stored {
        // A complete frame that fails its checksum is damage, not a torn
        // write — always a hard error.
        return Err(corrupt(
            at,
            format!("checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        ));
    }
    let payload_at = at + FRAME_HEADER_BYTES as u64 + 1;
    Ok(Some((
        body[0],
        Reader::new(&body[1..], payload_at),
        FRAME_HEADER_BYTES + len,
    )))
}

/// The strict decoders' error for a stream that ends inside a frame:
/// `rest` is the stream from that frame's start, at absolute offset `at`.
pub fn truncated(rest: &[u8], at: u64) -> WalError {
    match frame_len(rest) {
        None => corrupt(at, format!("truncated frame header: {} bytes", rest.len())),
        Some(len) => corrupt(
            at,
            format!(
                "truncated frame body: header declares {len} bytes, {} present",
                rest.len() - FRAME_HEADER_BYTES
            ),
        ),
    }
}

/// The error for a frame at `at` whose kind byte names no `what` kind.
pub fn unknown_kind(at: u64, what: &str, kind: u8) -> WalError {
    let kind_at = at + FRAME_HEADER_BYTES as u64;
    corrupt(kind_at, format!("unknown {what} kind {kind}"))
}

/// A bounds-checked little-endian reader over a frame payload. `base` is
/// the payload's absolute stream offset, so errors name real positions.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, whose first byte sits at stream offset `base`.
    pub(crate) fn new(buf: &'a [u8], base: u64) -> Self {
        Reader { buf, pos: 0, base }
    }

    /// Absolute stream offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes; `what` names the field in the error.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        if self.left() < n {
            return Err(corrupt(
                self.offset(),
                format!(
                    "truncated {what}: need {n} bytes, {} left in frame",
                    self.left()
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, WalError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, WalError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// An `f64` from its little-endian bit pattern.
    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u32` item count guarded against the bytes actually remaining
    /// (`per_item` each, at least one), so corrupt counts fail as
    /// corruption instead of attempting huge allocations.
    pub(crate) fn count(&mut self, per_item: usize, what: &str) -> Result<usize, WalError> {
        let n = self.u32(what)? as usize;
        let need = n.saturating_mul(per_item.max(1));
        if self.left() < need {
            return Err(corrupt(
                self.offset(),
                format!(
                    "implausible {what} count {n}: needs ≥{need} bytes, {} left in frame",
                    self.left()
                ),
            ));
        }
        Ok(n)
    }

    /// A string written by [`put_str`].
    pub fn str(&mut self, what: &str) -> Result<String, WalError> {
        let n = self.count(1, what)?;
        let at = self.offset();
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(at, format!("{what} is not valid utf-8")))
    }

    /// Everything not yet read, with its absolute offset.
    pub fn rest(&mut self) -> (&'a [u8], u64) {
        let at = self.offset();
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        (s, at)
    }

    /// Fails unless every byte was read; `what` names the frame.
    pub fn done(&self, what: &str) -> Result<(), WalError> {
        if self.left() != 0 {
            return Err(corrupt(
                self.offset(),
                format!("{} trailing bytes after {what} frame", self.left()),
            ));
        }
        Ok(())
    }
}
