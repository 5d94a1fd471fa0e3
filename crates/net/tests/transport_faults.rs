//! Transport fault injection: the outbound side must degrade, never
//! hang. A refused connect exhausts its bounded retries and reports an
//! actionable error naming the address and attempt count; a send queue
//! backed up behind a peer that never reads sheds oldest-first and keeps
//! accepting batches at full speed instead of deadlocking the pump; and
//! `close` accounts for every batch exactly.

use std::io::Read;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use themis_core::prelude::*;
use themis_net::prelude::*;

/// A loopback port with nothing listening on it: bind, note, release.
/// (Another process could grab it between drop and dial, but ephemeral
/// ports are assigned round-robin, so in practice the dial is refused.)
fn vacant_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe listener");
    let addr = listener.local_addr().expect("probe addr").to_string();
    drop(listener);
    addr
}

fn tiny_cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_millis(250),
        connect_retries: 3,
        retry_backoff: Duration::from_millis(1),
        send_queue: 4,
    }
}

/// A deliberately bulky batch so a handful of frames out-run the kernel
/// socket buffers of an unread loopback connection.
fn bulky_batch() -> TupleBatch {
    let rows = 4096;
    let mut b = TupleBatch::with_capacity(2, rows);
    for i in 0..rows as u64 {
        b.push_row(
            Timestamp(i),
            Sic(1.0e-3),
            &[Value::I64(i as i64), Value::F64(i as f64)],
        );
    }
    b
}

fn wire_batch(created: u64) -> WireBatch {
    WireBatch {
        node: 0,
        query: QueryId(0),
        fragment: 0,
        source: SourceId(0),
        created: Timestamp(created),
        batch: bulky_batch(),
    }
}

#[test]
fn refused_connect_retries_then_reports_address_and_attempts() {
    let addr = vacant_addr();
    let cfg = tiny_cfg();
    let err = connect_with_retry(&addr, &cfg).expect_err("nothing is listening");
    match &err {
        NetError::ConnectFailed {
            addr: reported,
            attempts,
            detail,
        } => {
            assert_eq!(reported, &addr);
            assert_eq!(*attempts, cfg.connect_retries);
            assert!(!detail.is_empty(), "last o/s error must be carried");
        }
        other => panic!("expected ConnectFailed, got {other}"),
    }
    let text = err.to_string();
    assert!(text.contains(&addr), "error must name the address: {text}");
    assert!(
        text.contains("3 attempts"),
        "error must count attempts: {text}"
    );
}

#[test]
fn retry_bridges_a_peer_that_binds_late() {
    let addr = vacant_addr();
    let addr_for_listener = addr.clone();
    // The listener appears only after the first attempts have failed —
    // exactly the "engine still starting up" race the retry loop exists
    // to absorb.
    let listener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let listener = TcpListener::bind(addr_for_listener).expect("late bind");
        listener.accept().map(|(s, _)| s)
    });
    let cfg = NetConfig {
        connect_timeout: Duration::from_millis(250),
        connect_retries: 40,
        retry_backoff: Duration::from_millis(25),
        send_queue: 4,
    };
    let stream = connect_with_retry(&addr, &cfg).expect("retry outlives the late bind");
    drop(stream);
    listener
        .join()
        .expect("listener thread")
        .expect("accepted the retried connect");
}

#[test]
fn full_queue_sheds_oldest_and_never_blocks_the_sender() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let cfg = tiny_cfg();
    let sender = PeerSender::connect(&addr, "fault-pump", &cfg).expect("connect");
    // Accept the connection but never read a byte: the kernel buffers
    // fill, the writer thread stalls mid-frame, and the queue backs up.
    let (stalled, _) = listener.accept().expect("accept");

    let total = 64u64;
    let started = Instant::now();
    for i in 0..total {
        sender.send_batch(&wire_batch(i));
    }
    let elapsed = started.elapsed();

    // Enqueueing is pure queue work — even with every slot shedding it
    // must come nowhere near socket timescales. The generous bound only
    // guards against the regression that matters: blocking on the peer.
    assert!(
        elapsed < Duration::from_secs(10),
        "send loop took {elapsed:?}; the queue must never block on the socket"
    );
    let shed = sender.shed_count();
    let sent = sender.sent_count();
    assert!(
        shed > 0,
        "an unread peer must force oldest-first shedding (sent {sent} of {total})"
    );
    // Realised rate degrades instead of lying: every batch is accounted
    // sent, shed, or still queued — nothing is silently lost or doubled.
    assert!(
        sent + shed <= total,
        "accounting overflow: sent {sent} + shed {shed} > {total}"
    );

    // Kill the read side: the writer's next write fails, it abandons the
    // backlog, and close() must come back with the socket error instead
    // of waiting forever for a drain that can never happen.
    drop(stalled);
    drop(listener);
    match sender.close() {
        // The writer may have already pushed the final frames into the
        // kernel buffer before the reset landed.
        Ok(stats) => assert!(stats.shed_batches > 0),
        Err(e) => assert!(
            matches!(e, NetError::Io(_)),
            "dead link must surface as an i/o error, got {e}"
        ),
    }
}

/// Regression (close race): the writer used to bump `sent` only after
/// releasing the queue lock, so `close` could find the queue empty while
/// the last frame was still being written and report one batch short.
/// The in-flight frame now counts as backlog, so sent + shed is exact.
#[test]
fn close_accounts_for_every_batch() {
    const N: u64 = 16;
    let cfg = tiny_cfg();
    let mut small = TupleBatch::with_capacity(1, 1);
    small.push_row(Timestamp(0), Sic(1.0e-3), &[Value::F64(1.0)]);
    for iteration in 0..200 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut sink = Vec::new();
            stream
                .read_to_end(&mut sink)
                .expect("read to the peer's close");
        });
        let sender = PeerSender::connect(&addr, "close-race", &cfg).expect("connect");
        for i in 0..N {
            sender.send_batch(&WireBatch {
                node: 0,
                query: QueryId(0),
                fragment: 0,
                source: SourceId(0),
                created: Timestamp(i),
                batch: small.clone(),
            });
        }
        let stats = sender.close().expect("healthy loopback link");
        assert_eq!(
            stats.sent_batches + stats.shed_batches,
            N,
            "iteration {iteration}: {stats:?}"
        );
        reader.join().expect("reader thread");
    }
}
