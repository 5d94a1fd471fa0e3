//! Pins the exact stream every rate pattern emits, byte for byte.
//!
//! Each case drives one [`SourceDriver`] for 200 emissions under a fixed
//! seed and pins the length and CRC-32 of its batches' concatenated WAL
//! encodings (timestamps, SIC values, drop words, schema and columns).
//! One more case steps a three-query [`SourcePump`] on a virtual clock,
//! removing one query mid-run, and pins its routed stream the same way
//! with each batch's node, query, fragment and source prepended. A
//! changed batch size, value, timestamp, phase or routing fails here.

use themis_core::frame::crc32;
use themis_core::prelude::*;
use themis_core::wal::encode_batch_bytes;
use themis_query::prelude::{Ingress, SourceKind, SourceSpec};
use themis_workloads::prelude::*;
use themis_workloads::pump::{source_seed, SourceBinding, SourcePump};

/// `name length crc` per case.
const PINNED: &str = "\
steady 71000 0xc7032745
paper-bursty 117080 0x90639343
flash-crowd 96600 0xb9903fcb
trace 71640 0xcce31d99
adversarial 71000 0x693ab625
shared-bursty 163160 0x0763ea4b
pump 25152 0x34175114
";

fn spec(source: u32) -> SourceSpec {
    SourceSpec::plain(SourceId(source), Some(7), SourceKind::Cpu)
}

fn render(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:#010x}\n", bytes.len(), crc32(bytes))
}

/// 200 emissions of one driver.
fn driver_stream(profile: SourceProfile) -> Vec<u8> {
    let mut d = SourceDriver::new(QueryId(1), &spec(3), profile, 21);
    let mut out = Vec::new();
    for _ in 0..200 {
        encode_batch_bytes(&mut out, d.emit().data());
    }
    out
}

/// Three queries at 2.5 tuples per beat (the per-emission carry decides
/// every batch size), stepped to 20 s with query 1 removed at 8 s.
fn pump_stream() -> Vec<u8> {
    let bindings = (0..3u32).map(|q| SourceBinding {
        query: QueryId(q),
        spec: spec(10 + q),
        profile: SourceProfile::steady(10, 4, Dataset::Mixed),
        seed: source_seed(5, SourceId(10 + q)),
        node: q as usize,
        fragment: q as usize % 2,
    });
    let mut pump = SourcePump::default();
    pump.add(Timestamp::ZERO, bindings);
    let (mut out, mut now, mut removed) = (Vec::new(), Timestamp::ZERO, false);
    while let Some(next) = pump.step(now, |node, rb| {
        let Ingress::Source(source) = rb.ingress else {
            panic!("a pump emits source batches only");
        };
        for word in [node as u32, rb.query.0, rb.fragment as u32, source.0] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        encode_batch_bytes(&mut out, rb.batch.data());
    }) {
        if next > Timestamp::from_secs(20) {
            break;
        }
        if !removed && next >= Timestamp::from_secs(8) {
            pump.remove(QueryId(1));
            removed = true;
        }
        now = next;
    }
    out
}

#[test]
fn every_patterns_stream_is_pinned() {
    // 10 tuples per 250 ms beat: 200 emissions span 50 s, long enough for
    // bursts, spikes and several trace cycles to show.
    let p = |pattern| SourceProfile::steady(40, 4, Dataset::Mixed).with_pattern(pattern);
    let flash = RatePattern::FlashCrowd {
        every: TimeDelta::from_secs(5),
        width: TimeDelta::from_secs(1),
        magnitude: 3.0,
    };
    let beats = vec![0.5, 2.0, 0.25, 1.25];
    let trace = TraceData::from_factors("pattern-pins", TimeDelta::from_secs(1), beats);
    let trace = trace.unwrap().register();
    let tick = TimeDelta::from_secs(1);
    let shared = p(RatePattern::Steady).with_shared_load(RatePattern::PAPER_BURSTY, 77);
    let cases = [
        ("steady", p(RatePattern::Steady)),
        ("paper-bursty", p(RatePattern::PAPER_BURSTY)),
        ("flash-crowd", p(flash)),
        ("trace", p(RatePattern::Trace { trace })),
        ("adversarial", p(RatePattern::Adversarial { tick })),
        ("shared-bursty", shared),
    ];
    let mut got: String = cases
        .into_iter()
        .map(|(name, profile)| render(name, &driver_stream(profile)))
        .collect();
    got += &render("pump", &pump_stream());
    assert_eq!(got, PINNED);
}
