//! Federation transport for THEMIS (PR 10).
//!
//! The paper's setting is *federated* stream processing: autonomous
//! sites exchange streams over real links. This crate supplies the
//! wire layer that turns the in-process prototype into communicating
//! processes:
//!
//! - [`codec`] — the wire messages, carried in the WAL's length-prefixed,
//!   CRC-checked frames (`themis_core::frame`, the one frame codec) with
//!   the WAL's columnar batch layout byte-for-byte (typed column
//!   payloads, drop bitmaps, tag dictionaries shipped as code-ordered
//!   snapshots re-interned per connection).
//! - [`transport`] — outbound side: bounded-retry connects with backoff
//!   and per-peer send queues that **shed oldest-first instead of
//!   blocking** when full. Shedding at the socket mirrors shedding at
//!   the node: dropped tuples never need redelivery (AF-Stream's
//!   bounded-loss observation), so an overloaded link degrades the
//!   realised rate instead of back-pressuring the source into a stall.
//! - [`listener`] — inbound side: the engine's ingest listener, one
//!   reader thread per source process, decoded batches handed to a
//!   callback and connection failures surfaced as events rather than
//!   panics.

pub mod codec;
pub mod listener;
pub mod transport;

/// Convenient single import: `use themis_net::prelude::*;`.
pub mod prelude {
    pub use crate::codec::{
        decode_frames, encode_msg, Decoder, NetError, NetMsg, WireBatch, PROTOCOL_VERSION,
    };
    pub use crate::listener::{IngestEvent, IngestServer};
    pub use crate::transport::{connect_with_retry, FragmentRouter, NetConfig, PeerSender};
}
