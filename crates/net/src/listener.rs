//! Inbound transport: the engine-side ingest listener.
//!
//! One accept thread plus one reader thread per source process. Decoded
//! messages are handed to a caller-supplied handler; every connection
//! failure — socket drop, decode error, version skew — becomes an
//! [`IngestEvent::Error`] naming the peer, never a panic, so the engine
//! keeps serving the surviving sources when one process dies mid-run.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::codec::{Decoder, NetError, NetMsg, WireBatch, PROTOCOL_VERSION};

/// What the ingest listener reports to its handler.
#[derive(Debug)]
pub enum IngestEvent {
    /// A decoded, routed batch from some source process.
    Batch {
        /// Peer name from its handshake (or its socket address).
        peer: Arc<str>,
        /// The batch.
        batch: WireBatch,
    },
    /// A peer finished cleanly: its final send-side accounting.
    Closed {
        /// Peer name from its handshake (or its socket address).
        peer: String,
        /// Batch frames the peer wrote to the socket.
        sent_batches: u64,
        /// Batch frames the peer shed from its full send queue.
        shed_batches: u64,
    },
    /// A connection failed: socket drop without a bye, corrupt bytes,
    /// or a protocol violation. The listener keeps serving other peers.
    Error {
        /// Peer name (handshake) or socket address.
        peer: String,
        /// What went wrong, actionable.
        detail: String,
    },
}

type Handler = Arc<dyn Fn(IngestEvent) + Send + Sync>;

/// A bound TCP ingest listener feeding decoded events to a handler.
pub struct IngestServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    batches: Arc<AtomicU64>,
    accept_handle: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl IngestServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`IngestServer::local_addr`]) and starts accepting.
    pub fn bind(addr: &str, handler: Handler) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let batches = Arc::new(AtomicU64::new(0));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let stop = stop.clone();
            let batches = batches.clone();
            let conns = conns.clone();
            thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(listener, handler, stop, batches, conns))
                .expect("spawn net acceptor")
        };
        Ok(IngestServer {
            addr: local,
            stop,
            batches,
            accept_handle: Some(accept_handle),
            conns,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Batches decoded and handed to the handler so far.
    pub fn batches_received(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Stops accepting, winds down every reader thread and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.conns.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self.conns.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    handler: Handler,
    stop: Arc<AtomicBool>,
    batches: Arc<AtomicU64>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn = 0usize;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, peer_addr)) => {
                let handler = handler.clone();
                let stop = stop.clone();
                let batches = batches.clone();
                let id = next_conn;
                next_conn += 1;
                let handle = thread::Builder::new()
                    .name(format!("net-ingest-{id}"))
                    .spawn(move || serve_conn(stream, peer_addr, handler, stop, batches))
                    .expect("spawn net reader");
                conns.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn serve_conn(
    stream: TcpStream,
    peer_addr: SocketAddr,
    handler: Handler,
    stop: Arc<AtomicBool>,
    batches: Arc<AtomicU64>,
) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    // Short read timeouts keep the reader responsive to shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut peer: Arc<str> = Arc::from(peer_addr.to_string());
    let mut dec = Decoder::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 64 * 1024];
    let mut saw_bye = false;
    loop {
        if stop.load(Ordering::Relaxed) {
            // Engine shutdown while the peer is still connected: not a
            // peer failure, just stop reading.
            return;
        }
        let n = match stream.read(&mut tmp) {
            Ok(0) => {
                if !saw_bye {
                    handler(IngestEvent::Error {
                        peer: peer.to_string(),
                        detail: format!(
                            "connection closed without bye at stream byte {}",
                            dec.consumed() + buf.len() as u64
                        ),
                    });
                }
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => {
                handler(IngestEvent::Error {
                    peer: peer.to_string(),
                    detail: format!("socket read failed: {e}"),
                });
                return;
            }
        };
        buf.extend_from_slice(&tmp[..n]);
        loop {
            match dec.next(&buf) {
                Ok(Some((msg, used))) => {
                    buf.drain(..used);
                    match msg {
                        NetMsg::Hello {
                            version,
                            peer: name,
                        } => {
                            if version != PROTOCOL_VERSION {
                                handler(IngestEvent::Error {
                                    peer: name,
                                    detail: format!(
                                        "protocol version skew: peer speaks {version}, \
                                         this engine speaks {PROTOCOL_VERSION}"
                                    ),
                                });
                                return;
                            }
                            peer = Arc::from(name);
                        }
                        NetMsg::Batch(wb) => {
                            batches.fetch_add(1, Ordering::Relaxed);
                            handler(IngestEvent::Batch {
                                peer: peer.clone(),
                                batch: wb,
                            });
                        }
                        NetMsg::Bye {
                            sent_batches,
                            shed_batches,
                        } => {
                            saw_bye = true;
                            handler(IngestEvent::Closed {
                                peer: peer.to_string(),
                                sent_batches,
                                shed_batches,
                            });
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    handler(IngestEvent::Error {
                        peer: peer.to_string(),
                        detail: e.to_string(),
                    });
                    return;
                }
            }
        }
        if saw_bye {
            // The bye is the peer's last frame; don't wait for its FIN.
            return;
        }
    }
}
