//! The serving core: acceptor, bounded worker pool, client-disconnect
//! watchdog, and graceful drain-then-shutdown.
//!
//! Thread layout:
//! * **acceptor** — non-blocking accept loop; pushes connections into the
//!   bounded [`ConnQueue`] or sheds them inline with 503.
//! * **workers** (N) — pop connections and serve keep-alive request
//!   loops; all query execution happens here, one query per worker at a
//!   time, gated by [`QueryGate`].
//! * **watchdog** — polls in-flight requests' sockets with `MSG_PEEK`;
//!   a half-closed peer cancels its query via [`CancelHandle`] so an
//!   abandoned request stops consuming CPU at the next governor
//!   checkpoint.
//!
//! Shutdown ([`Server::begin_shutdown`], wired to SIGTERM / stdin EOF by
//! `main`): the acceptor stops admitting and closes the queue; workers
//! drain the backlog, finish in-flight requests (responses carry
//! `Connection: close`), and exit; `join` then reaps every thread.

use crate::admission::{ConnQueue, QueryGate};
use crate::config::ServerConfig;
use crate::handlers;
use crate::http::{self, RecvError, Response};
use crate::metrics::Metrics;
use crate::plan_cache::PlanCache;
use gsql_core::CancelHandle;
use pgraph::wal::LiveGraph;
use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// State shared by every server thread.
pub struct Shared {
    pub cfg: ServerConfig,
    /// The mutable graph. Each request pins a snapshot
    /// ([`LiveGraph::snapshot`]) and runs against that immutable view;
    /// `POST /mutate` commits write batches through the WAL.
    pub live: LiveGraph,
    pub metrics: Metrics,
    pub plans: PlanCache,
    pub gate: QueryGate,
    pub queue: ConnQueue,
    pub watchdog: Watchdog,
    pub shutdown: AtomicBool,
    /// Set on the first WAL write failure: mutations are refused with
    /// 503 while reads keep serving the last durable snapshot.
    pub read_only: AtomicBool,
    conns: ConnRegistry,
}

/// Live connections, so drain can unblock workers parked in idle
/// keep-alive reads: `shutdown_reads` half-closes every socket's read
/// side (blocked reads see EOF immediately) while leaving the write
/// side intact for in-flight responses.
#[derive(Default)]
struct ConnRegistry {
    streams: Mutex<Vec<(u64, TcpStream)>>,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().unwrap().push((id, clone));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams.lock().unwrap().retain(|(i, _)| *i != id);
    }

    fn shutdown_reads(&self) {
        for (_, s) in self.streams.lock().unwrap().iter() {
            let _ = s.shutdown(std::net::Shutdown::Read);
        }
    }
}

impl Shared {
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    pub fn read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }
}

// ---- client-disconnect watchdog -----------------------------------------

struct WatchEntry {
    id: u64,
    stream: TcpStream,
    cancel: CancelHandle,
}

/// Registry of requests currently executing, polled for peer disconnect.
#[derive(Default)]
pub struct Watchdog {
    entries: Mutex<Vec<WatchEntry>>,
    next_id: AtomicU64,
}

/// RAII registration; dropping unregisters (taken before the response is
/// written, so the watchdog never touches a socket a worker is using).
pub struct WatchToken<'a> {
    watchdog: &'a Watchdog,
    id: u64,
}

impl Watchdog {
    /// Registers `stream`'s peer as the owner of a running query.
    /// Returns `None` (no disconnect detection, query still runs) if the
    /// fd cannot be duplicated.
    pub fn watch(&self, stream: &TcpStream, cancel: CancelHandle) -> Option<WatchToken<'_>> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().unwrap().push(WatchEntry { id, stream: clone, cancel });
        Some(WatchToken { watchdog: self, id })
    }

    /// One poll pass: cancel every query whose client is gone.
    fn scan(&self) {
        let entries = self.entries.lock().unwrap();
        for e in entries.iter() {
            if peer_disconnected(&e.stream) {
                e.cancel.cancel();
            }
        }
    }
}

impl Drop for WatchToken<'_> {
    fn drop(&mut self) {
        let mut entries = self.watchdog.entries.lock().unwrap();
        entries.retain(|e| e.id != self.id);
    }
}

/// `MSG_PEEK` probe on a (temporarily) non-blocking socket: EOF or a
/// hard error means the peer is gone; `WouldBlock` means it is idle and
/// waiting, which is the healthy in-flight state.
fn peer_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let verdict = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != io::ErrorKind::WouldBlock,
    };
    let _ = stream.set_nonblocking(false);
    verdict
}

// ---- the server ----------------------------------------------------------

/// A running `gsql-serve` instance.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    watchdog: JoinHandle<()>,
}

impl Server {
    /// Binds and starts all threads; returns once the listener is live.
    /// `live` is the (possibly durable) graph; tests pass
    /// [`LiveGraph::in_memory`].
    pub fn start(cfg: ServerConfig, live: LiveGraph) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            queue: ConnQueue::new(cfg.queue_depth),
            gate: QueryGate::new(cfg.max_concurrent_queries),
            plans: PlanCache::new(cfg.plan_cache_capacity, cfg.max_prepared),
            metrics: Metrics::default(),
            watchdog: Watchdog::default(),
            shutdown: AtomicBool::new(false),
            read_only: AtomicBool::new(false),
            conns: ConnRegistry::default(),
            live,
            cfg,
        });

        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gsql-acceptor".into())
                .spawn(move || acceptor_loop(&shared, listener))?
        };
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gsql-worker-{i}"))
                    .spawn(move || {
                        while let Some(conn) = shared.queue.pop() {
                            serve_connection(&shared, conn);
                        }
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let watchdog = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gsql-watchdog".into())
                .spawn(move || {
                    // Outlives the workers slightly: stops only once
                    // shutdown is flagged (scan of an empty registry is
                    // free).
                    while !shared.shutting_down() {
                        shared.watchdog.scan();
                        std::thread::sleep(Duration::from_millis(20));
                    }
                })?
        };

        Ok(Server { shared, addr, acceptor, workers, watchdog })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Flags shutdown: stop accepting, half-close idle keep-alive reads
    /// so parked workers wake, drain the backlog, let workers exit.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.conns.shutdown_reads();
    }

    /// Waits for the drain to complete and reaps every thread.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.watchdog.join();
    }

    /// `begin_shutdown` + `join`.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

fn acceptor_loop(shared: &Shared, listener: TcpListener) {
    loop {
        if shared.shutting_down() {
            shared.queue.close();
            return;
        }
        match listener.accept() {
            Ok((conn, _peer)) => {
                if let Err(rejected) = shared.queue.push(conn) {
                    // Shed inline: the acceptor must never block on a
                    // slow consumer, and the peer deserves a real signal
                    // rather than a silent RST.
                    shared.metrics.rejected_queue.fetch_add(1, Ordering::Relaxed);
                    shed_connection(rejected);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Writes a one-shot 503 to a connection the queue refused.
fn shed_connection(mut conn: TcpStream) {
    let resp = Response::json(
        503,
        br#"{"ok":false,"error":{"kind":"overloaded","message":"connection queue full"}}"#
            .to_vec(),
    )
    .with_header("retry-after", "1")
    .closing();
    let _ = conn.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = http::write_response(&mut conn, &resp);
}

/// Serves one connection's keep-alive request loop.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    let Ok(read_half) = stream.try_clone() else { return };
    let reg_id = shared.conns.register(&stream);
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;

    serve_requests(shared, &mut reader, &mut writer);
    if let Some(id) = reg_id {
        shared.conns.deregister(id);
    }
}

fn serve_requests(shared: &Shared, reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) {
    loop {
        if shared.shutting_down() {
            // Serve anything already pipelined, but don't park waiting
            // for a client that may never speak again.
            let _ = writer.set_read_timeout(Some(Duration::from_millis(100)));
        }
        match http::read_request(reader, shared.cfg.max_body_bytes) {
            Ok(req) => {
                let draining = shared.shutting_down();
                let mut resp = handlers::handle(shared, &req, writer);
                if draining || req.wants_close() {
                    resp.close = true;
                }
                match http::write_response(writer, &resp) {
                    Ok(true) => continue,
                    _ => return,
                }
            }
            Err(RecvError::Eof) => return,
            Err(RecvError::BodyTooLarge(n)) => {
                shared.metrics.rejected_body.fetch_add(1, Ordering::Relaxed);
                let body = format!(
                    r#"{{"ok":false,"error":{{"kind":"body-too-large","message":"request body of {n} bytes exceeds the {} byte limit"}}}}"#,
                    shared.cfg.max_body_bytes
                );
                // The oversized body was never read, so the connection
                // cannot be reused.
                let _ = http::write_response(writer, &Response::json(413, body).closing());
                return;
            }
            Err(RecvError::Malformed(msg)) => {
                let mut body = String::from(r#"{"ok":false,"error":{"kind":"bad-request","message":"#);
                crate::json::write_escaped(&mut body, &msg);
                body.push_str("}}");
                let _ = http::write_response(writer, &Response::json(400, body).closing());
                return;
            }
            Err(RecvError::Io(_)) => {
                // Idle timeout or peer reset; close quietly.
                let _ = writer.flush();
                return;
            }
        }
    }
}
