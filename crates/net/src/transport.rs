//! Outbound transport: bounded-retry connects and per-peer send queues
//! that shed oldest-first instead of blocking.
//!
//! The send queue is the admission side of the paper's overload story
//! applied to a link: when the socket cannot drain fast enough, the
//! queue drops the *oldest* queued batch (stale data is worth the least
//! to a sliding window) and counts it, so the realised rate degrades
//! smoothly and the source pump never stalls behind a slow peer.
//! Shedding here is safe precisely because shed tuples never need
//! redelivery — the engine's own shedder would have been free to drop
//! them anyway.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::codec::{encode_batch_msg, encode_msg, NetError, NetMsg, WireBatch, PROTOCOL_VERSION};

/// Transport tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Total connect attempts before [`NetError::ConnectFailed`].
    pub connect_retries: u32,
    /// Base backoff between attempts (linear: attempt `k` sleeps
    /// `k * retry_backoff` first).
    pub retry_backoff: Duration,
    /// Per-peer send-queue capacity, in frames; an enqueue beyond this
    /// sheds the oldest queued batch instead of blocking.
    pub send_queue: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(1),
            connect_retries: 5,
            retry_backoff: Duration::from_millis(50),
            send_queue: 256,
        }
    }
}

/// Dials `addr` with the config's bounded retry schedule. Exhausting the
/// attempts yields an actionable [`NetError::ConnectFailed`] naming the
/// address, the attempt count and the last underlying error.
pub fn connect_with_retry(addr: &str, cfg: &NetConfig) -> Result<TcpStream, NetError> {
    let attempts = cfg.connect_retries.max(1);
    let mut last = String::from("no socket address resolved");
    for attempt in 0..attempts {
        if attempt > 0 {
            thread::sleep(cfg.retry_backoff * attempt);
        }
        // Re-resolve each attempt: the peer may only just be binding.
        match addr.to_socket_addrs() {
            Ok(mut addrs) => match addrs.next() {
                Some(sa) => match TcpStream::connect_timeout(&sa, cfg.connect_timeout) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        return Ok(stream);
                    }
                    Err(e) => last = e.to_string(),
                },
                None => last = String::from("no socket address resolved"),
            },
            Err(e) => last = e.to_string(),
        }
    }
    Err(NetError::ConnectFailed {
        addr: addr.to_string(),
        attempts,
        detail: last,
    })
}

struct SendQueue {
    frames: VecDeque<Vec<u8>>,
    /// The writer has popped a frame and not yet finished writing it.
    in_flight: bool,
    closed: bool,
}

/// Final send-side accounting returned by [`PeerSender::close`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SendStats {
    /// Batch frames actually written to the socket.
    pub sent_batches: u64,
    /// Batch frames shed oldest-first from a full queue.
    pub shed_batches: u64,
}

/// One outbound peer connection: a writer thread draining a bounded
/// frame queue. [`PeerSender::send_batch`] never blocks — a full queue
/// sheds its oldest batch and counts it.
pub struct PeerSender {
    queue: Arc<(Mutex<SendQueue>, Condvar)>,
    capacity: usize,
    shed: Arc<AtomicU64>,
    sent: Arc<AtomicU64>,
    failed: Arc<AtomicBool>,
    handle: Option<JoinHandle<Result<(), NetError>>>,
}

impl PeerSender {
    /// Connects to `addr` (bounded retry per `cfg`), writes the
    /// version handshake synchronously, and starts the writer thread.
    /// `peer` names this process in the engine's reports.
    pub fn connect(addr: &str, peer: &str, cfg: &NetConfig) -> Result<Self, NetError> {
        let mut stream = connect_with_retry(addr, cfg)?;
        // The handshake is written before the queue exists, so it can
        // never be a shedding victim.
        let mut hello = Vec::new();
        encode_msg(
            &NetMsg::Hello {
                version: PROTOCOL_VERSION,
                peer: peer.to_string(),
            },
            &mut hello,
        );
        stream.write_all(&hello)?;
        let queue = Arc::new((
            Mutex::new(SendQueue {
                frames: VecDeque::new(),
                in_flight: false,
                closed: false,
            }),
            Condvar::new(),
        ));
        let shed = Arc::new(AtomicU64::new(0));
        let sent = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicBool::new(false));
        let handle = {
            let queue = queue.clone();
            let sent = sent.clone();
            let failed = failed.clone();
            thread::Builder::new()
                .name(format!("net-send-{peer}"))
                .spawn(move || writer_loop(stream, &queue, &sent, &failed))
                .expect("spawn net sender")
        };
        Ok(PeerSender {
            queue,
            capacity: cfg.send_queue.max(1),
            shed,
            sent,
            failed,
            handle: Some(handle),
        })
    }

    /// Enqueues one batch, shedding the oldest queued batch first when
    /// the queue is full. Never blocks on the socket.
    pub fn send_batch(&self, wb: &WireBatch) {
        let mut frame = Vec::new();
        encode_batch_msg(wb, &mut frame);
        let (lock, cv) = &*self.queue;
        let mut q = lock.lock().unwrap();
        if q.closed {
            return;
        }
        // Only batches ever sit in the queue before close (the
        // handshake was written synchronously, the bye is enqueued
        // after the queue drained), so the front is always sheddable.
        if q.frames.len() >= self.capacity {
            q.frames.pop_front();
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        q.frames.push_back(frame);
        cv.notify_all();
    }

    /// Batches shed from the full queue so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Batches written to the socket so far.
    pub fn sent_count(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Drains the queue, sends the final [`NetMsg::Bye`] carrying exact
    /// sent/shed counts, and joins the writer. Returns the accounting,
    /// or the writer's socket error if the connection died.
    pub fn close(mut self) -> Result<SendStats, NetError> {
        let (lock, cv) = &*self.queue;
        let stats = {
            // Wait for the backlog — including a frame the writer is still
            // writing — to drain so the counters in the bye are final. A
            // failed writer abandons its backlog.
            let mut q = lock.lock().unwrap();
            while (!q.frames.is_empty() || q.in_flight) && !self.failed.load(Ordering::Relaxed) {
                q = cv.wait(q).unwrap();
            }
            // Snapshot before enqueueing the bye: the writer counts every
            // frame it writes, and the bye itself is not a batch.
            let stats = SendStats {
                sent_batches: self.sent.load(Ordering::Relaxed),
                shed_batches: self.shed.load(Ordering::Relaxed),
            };
            let mut bye = Vec::new();
            encode_msg(
                &NetMsg::Bye {
                    sent_batches: stats.sent_batches,
                    shed_batches: stats.shed_batches,
                },
                &mut bye,
            );
            q.frames.push_back(bye);
            q.closed = true;
            cv.notify_all();
            stats
        };
        let result = self
            .handle
            .take()
            .expect("writer joined once")
            .join()
            .unwrap_or_else(|_| Err(NetError::Protocol("net writer thread panicked".into())));
        result.map(|()| stats)
    }
}

impl Drop for PeerSender {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (lock, cv) = &*self.queue;
            {
                let mut q = lock.lock().unwrap();
                q.closed = true;
                cv.notify_all();
            }
            let _ = handle.join();
        }
    }
}

fn writer_loop(
    mut stream: TcpStream,
    queue: &Arc<(Mutex<SendQueue>, Condvar)>,
    sent: &Arc<AtomicU64>,
    failed: &Arc<AtomicBool>,
) -> Result<(), NetError> {
    let (lock, cv) = &**queue;
    loop {
        let frame = {
            let mut q = lock.lock().unwrap();
            loop {
                if let Some(frame) = q.frames.pop_front() {
                    q.in_flight = true;
                    break frame;
                }
                if q.closed {
                    return Ok(());
                }
                q = cv.wait(q).unwrap();
            }
        };
        let written = stream.write_all(&frame);
        // The in-flight mark clears under the same lock that counts the
        // frame, so `close` never sees it neither queued, in flight nor
        // counted.
        let mut q = lock
            .lock()
            .expect("send queue lock poisoned by a panicked sender");
        q.in_flight = false;
        if let Err(e) = written {
            failed.store(true, Ordering::Relaxed);
            // Unblock a closer waiting for the queue to drain; leftover
            // frames are abandoned — a dead link delivers nothing.
            q.frames.clear();
            cv.notify_all();
            return Err(NetError::Io(e));
        }
        sent.fetch_add(1, Ordering::Relaxed);
        cv.notify_all();
    }
}
