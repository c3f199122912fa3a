//! The TCP lookup front-end: connection-per-core serving with a cap on
//! live connections.
//!
//! # Thread anatomy
//!
//! One **accept loop** polls the listener and starts a connection for
//! each socket it accepts. While [`ServerConfig::max_connections`]
//! connections are live it stops accepting: further sockets wait in the
//! kernel's listen backlog until a connection closes.
//!
//! Each connection runs **one thread**. It reads frames through one
//! 64 KiB [`BufReader`], so a burst of pipelined frames costs one
//! `read(2)`, not two per frame. It decodes a request, matches a lookup
//! itself against the namespace's published snapshot
//! ([`submit_traced`](crate::node::NamespaceGroup::submit_traced)) and
//! encodes the reply into the connection's out-buffer before it decodes
//! the next, so replies leave in request order and every reply is known
//! where it is encoded. The out-buffer is **held** only while the read
//! buffer already holds the whole next request frame (length prefix and
//! payload); otherwise it is written at once. A burst's replies
//! therefore leave in one `write(2)`, a lone request is answered before
//! the thread reads again, and no reply waits behind a frame that has
//! not fully arrived. Memory per connection is the read buffer plus the
//! held replies. Those answer requests read from at most two fills of
//! the buffer (the first may straddle a refill), and no reply is longer
//! than 22⁄12 of its request frame, so the out-buffer stays under 4 ×
//! the read buffer. A request costs no thread hand-off; overload is
//! plain TCP backpressure on the connection, and a peer that stops
//! reading is cut off by [`ServerConfig::write_timeout`].
//!
//! # Graceful shutdown
//!
//! [`NetServer::shutdown`] flips a flag: the accept loop returns, which
//! closes the listener and drops any socket still in its backlog;
//! connections (which poll with a read timeout) stop decoding, write
//! the replies they hold — every request they decoded has been answered
//! — and half-close, so the peer reads those replies and then a clean
//! end of stream; the server joins all threads before returning.
//!
//! # Observability
//!
//! A request whose frame carries a **sampled** trace context gets a
//! [`RequestTrace`] collector and records three top-level hops:
//! `net_decode`, `serve_match` and `net_write`, which spans the reply's
//! encode and its write (for a held reply, the hold too). The connection
//! finishes the trace once the reply's bytes are written; the hops tile
//! the request's wall clock from frame receipt to response write. Every
//! answered request (traced or not) feeds the `net_request` SLO tracker
//! with its receipt-to-write latency, taken at that same write.

use crate::error::{NetError, Result};
use crate::node::TcamNode;
use crate::wire::{
    self, Status, MAX_KEYS_PER_REQUEST, OP_LOOKUP, OP_PING, RESP_FLAG_TRACED, WIRE_VERSION,
};
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcam_arch::packed::PackedWord;
use tcam_obs::trace::TraceContext;
use tcam_obs::RequestTrace;
use tcam_serve::error::ServeError;

/// Front-end configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum simultaneously live connections; further sockets wait in
    /// the listen backlog until one closes.
    pub max_connections: usize,
    /// No longer limits anything: a connection answers each request
    /// before it decodes the next, and holds the encoded replies only
    /// while its 64 KiB read buffer holds the whole next request, so
    /// memory per connection is that buffer plus the replies to the
    /// requests it held, and further pipelined requests wait in the
    /// socket (TCP backpressure). Kept so configurations that set it
    /// still build.
    pub inflight_per_connection: usize,
    /// Read-poll granularity: how quickly an idle connection notices
    /// shutdown.
    pub read_timeout: Duration,
    /// Upper bound on one blocking response write: a peer that stops
    /// reading (zero TCP window) errors the connection — which then
    /// closes — instead of pinning it forever. Together with
    /// [`wire::MAX_MID_FRAME_STALLS`] on the read side this keeps
    /// shutdown's thread joins finite no matter what peers do.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            inflight_per_connection: 8,
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Shared server state.
struct Shared {
    node: Arc<TcamNode>,
    config: ServerConfig,
    shutdown: AtomicBool,
    live_connections: AtomicU64,
    /// Handles of running/finished connection threads, reaped by the
    /// accept loop and drained at shutdown.
    connection_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The running front-end. Use [`NetServer::shutdown`] for a graceful
/// stop; plain drop aborts without draining.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop.
    ///
    /// # Errors
    ///
    /// Bind/listen I/O errors.
    pub fn start(node: Arc<TcamNode>, addr: &str, config: ServerConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // A panicking server thread should leave a post-mortem —
        // idempotent across multiple servers in-process.
        tcam_obs::install_panic_hook();
        let shared = Arc::new(Shared {
            node,
            config,
            shutdown: AtomicBool::new(false),
            live_connections: AtomicU64::new(0),
            connection_threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("tcam-net-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept loop");

        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connection count right now.
    #[must_use]
    pub fn live_connections(&self) -> u64 {
        self.shared.live_connections.load(Ordering::Relaxed)
    }

    /// Graceful stop: close the listener, drop the sockets in its backlog,
    /// let every connection answer the request it is on, join all threads.
    ///
    /// # Panics
    ///
    /// Panics if an internal server thread panicked.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            t.join().expect("accept loop panicked");
        }
        let handles = std::mem::take(
            &mut *self
                .shared
                .connection_threads
                .lock()
                .expect("connection thread list"),
        );
        for h in handles {
            h.join().expect("connection thread panicked");
        }
        tcam_obs::gauge_set("net_live_connections", 0.0);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Accepts sockets and starts a connection for each while under the
/// live-connection cap. Returns — closing the listener — on shutdown.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let cap = shared.config.max_connections as u64;
    while !shared.shutdown.load(Ordering::Relaxed) {
        if shared.live_connections.load(Ordering::Relaxed) >= cap {
            // At the cap: leave further sockets in the listen backlog.
            reap_finished(shared);
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => start_connection(stream, shared),
            // Nothing pending, or an error accept(2) says to retry
            // (ECONNABORTED, EPROTO, ENETUNREACH, …): poll again. Reaping
            // here keeps the handle list proportional to live connections.
            Err(_) => {
                reap_finished(shared);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn reap_finished(shared: &Shared) {
    let mut handles = shared
        .connection_threads
        .lock()
        .expect("connection thread list");
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let h = handles.swap_remove(i);
            let _ = h.join();
        } else {
            i += 1;
        }
    }
}

/// What one reply says: a lookup's answer or an immediately-known
/// status.
enum Outcome {
    /// `(epoch, results)`.
    Lookup(u64, Vec<Option<u32>>),
    Immediate(Status),
    /// A ping: answered with an empty OK response carrying the opcode.
    Pong,
}

struct Reply {
    request_id: u32,
    opcode: u8,
    outcome: Outcome,
    /// Frame-receipt instant: the request's SLO wall clock starts here.
    received: Instant,
    /// When the answer became known — the `net_write` hop's start.
    answered: Instant,
    /// The sampled request's hop collector (`None` = untraced).
    trace: Option<Arc<RequestTrace>>,
}

fn start_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    shared.live_connections.fetch_add(1, Ordering::Relaxed);
    #[allow(clippy::cast_precision_loss)]
    tcam_obs::gauge_set(
        "net_live_connections",
        shared.live_connections.load(Ordering::Relaxed) as f64,
    );
    tcam_obs::counter_add("net_connections_accepted", 1);
    let conn_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("tcam-net-conn".into())
        .spawn(move || {
            serve_connection(stream, &conn_shared);
            conn_shared.live_connections.fetch_sub(1, Ordering::Relaxed);
            #[allow(clippy::cast_precision_loss)]
            tcam_obs::gauge_set(
                "net_live_connections",
                conn_shared.live_connections.load(Ordering::Relaxed) as f64,
            );
        })
        .expect("spawn connection thread");
    shared
        .connection_threads
        .lock()
        .expect("connection thread list")
        .push(handle);
}

/// Reads frames through one buffer and answers each until EOF, a
/// protocol violation, a failed write, or shutdown; every exit writes
/// the replies still held.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::with_capacity(wire::READ_BUFFER_BYTES, &stream);
    let mut out = OutBuffer::default();
    serve_frames(&mut reader, &mut out, shared);
    out.write(&stream);
    // End the reply stream with a FIN before the close: closing with
    // request bytes still unread makes the kernel reset the connection,
    // and a peer that already has the FIN reads every reply and then a
    // clean end of stream.
    let _ = stream.shutdown(Shutdown::Write);
}

/// Decodes frames and answers each before the next. Returns when the
/// connection should close, leaving the caller to write what `out`
/// holds.
fn serve_frames(reader: &mut BufReader<&TcpStream>, out: &mut OutBuffer, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return; // graceful: every decoded request is answered
        }
        let payload = match wire::read_frame(reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF between frames
            Err(NetError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue; // idle poll tick; re-check the shutdown flag
            }
            Err(_) => return, // violation or hard I/O error: close
        };
        // The request origin: captured before decode, so decode itself is
        // inside the traced window (and the SLO wall clock).
        let received = Instant::now();
        if payload.len() < 8 {
            return; // too short to even carry a request id: close
        }
        let opcode = payload[1];
        let request_id = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
        let immediate = |opcode, status| Reply {
            request_id,
            opcode,
            outcome: Outcome::Immediate(status),
            received,
            answered: received,
            trace: None,
        };
        if payload[0] != WIRE_VERSION {
            // Answer so the peer can diagnose, then close: nothing else
            // in this stream will parse.
            out.push(immediate(OP_LOOKUP, Status::UnsupportedVersion));
            return;
        }
        let reply = match opcode {
            OP_PING => Reply {
                outcome: Outcome::Pong,
                ..immediate(opcode, Status::Ok)
            },
            OP_LOOKUP => match wire::decode_lookup_request(&payload) {
                Ok(req) => {
                    let decoded = Instant::now();
                    // Only a sampled context allocates a collector; the
                    // unsampled (and untraced) hot path records nothing.
                    let trace = req.trace.filter(TraceContext::is_sampled).map(|ctx| {
                        let t = RequestTrace::start_at(ctx, received);
                        t.hop("net_decode", received, decoded);
                        t
                    });
                    let outcome = lookup(shared, req.namespace, &req.keys, trace.as_deref());
                    Reply {
                        request_id,
                        opcode,
                        outcome,
                        received,
                        answered: Instant::now(),
                        trace,
                    }
                }
                // Framing is intact (length-prefixed), so a malformed
                // body is answerable without desyncing the stream.
                Err(_) => immediate(opcode, Status::BadRequest),
            },
            _ => immediate(OP_LOOKUP, Status::BadRequest),
        };
        tcam_obs::counter_add("net_requests", 1);
        out.push(reply);
        // Hold the replies only while the next request is here whole:
        // reading it then costs no `read(2)` and cannot wait on the peer.
        if !holds_whole_frame(reader.buffer()) && !out.write(reader.get_ref()) {
            return; // peer hung up mid-write
        }
    }
}

/// Whether `buffered` starts with a whole frame: the length prefix and
/// all the payload it announces.
fn holds_whole_frame(buffered: &[u8]) -> bool {
    buffered.get(..4).is_some_and(|prefix| {
        let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
        usize::try_from(len).is_ok_and(|len| buffered.len() - 4 >= len)
    })
}

/// Answers one decoded lookup, mapping every failure to its wire status.
fn lookup(
    shared: &Shared,
    namespace: u16,
    keys: &[PackedWord],
    trace: Option<&RequestTrace>,
) -> Outcome {
    if keys.is_empty() || keys.len() > MAX_KEYS_PER_REQUEST {
        return Outcome::Immediate(Status::BadRequest);
    }
    let Some(group) = shared.node.group(namespace) else {
        return Outcome::Immediate(Status::UnknownNamespace);
    };
    match group.submit_traced(keys, trace) {
        Ok((epoch, results)) => Outcome::Lookup(epoch, results),
        Err(NetError::Serve(ServeError::WidthMismatch { .. })) => {
            Outcome::Immediate(Status::WidthMismatch)
        }
        Err(_) => Outcome::Immediate(Status::BadRequest),
    }
}

/// The label a terminal wire status contributes to a finished trace.
fn status_label(status: Status) -> &'static str {
    match status {
        Status::Ok => "ok",
        Status::Overloaded => "overloaded",
        Status::BadRequest => "bad_request",
        Status::UnknownNamespace => "unknown_namespace",
        Status::ShuttingDown => "shutting_down",
        Status::UnsupportedVersion => "unsupported_version",
        Status::WidthMismatch => "width_mismatch",
    }
}

/// Replies encoded but not yet written, and what each still owes its
/// trace and the SLO once its bytes are out.
#[derive(Default)]
struct OutBuffer {
    /// The encoded frames, in request order.
    bytes: Vec<u8>,
    /// One reply's encoding, appended to `bytes`.
    frame: Vec<u8>,
    held: Vec<Held>,
}

/// What a held reply records when it is written.
struct Held {
    status: Status,
    received: Instant,
    answered: Instant,
    /// When its encode began (`net_request_ns` spans encode to write).
    encoded: Instant,
    trace: Option<Arc<RequestTrace>>,
}

impl OutBuffer {
    /// Encodes one reply behind those already held.
    fn push(&mut self, reply: Reply) {
        let encoded = Instant::now();
        let frame = &mut self.frame;
        let status = match reply.outcome {
            Outcome::Lookup(epoch, results) => {
                tcam_obs::counter_add("net_lookups", results.len() as u64);
                let flags = if reply.trace.is_some() {
                    RESP_FLAG_TRACED
                } else {
                    0
                };
                wire::encode_response_flagged(
                    frame,
                    OP_LOOKUP,
                    Status::Ok,
                    reply.request_id,
                    epoch,
                    &results,
                    flags,
                );
                Status::Ok
            }
            Outcome::Immediate(status) => {
                wire::encode_response(frame, reply.opcode, status, reply.request_id, 0, &[]);
                status
            }
            Outcome::Pong => {
                wire::encode_response(frame, OP_PING, Status::Ok, reply.request_id, 0, &[]);
                Status::Ok
            }
        };
        self.bytes.extend_from_slice(frame);
        self.held.push(Held {
            status,
            received: reply.received,
            answered: reply.answered,
            encoded,
            trace: reply.trace,
        });
    }

    /// Writes every held reply in one `write_all`, then closes each one's
    /// trace and scores it; `false` when the write failed.
    fn write(&mut self, mut stream: &TcpStream) -> bool {
        if self.held.is_empty() {
            return true;
        }
        let written = stream.write_all(&self.bytes).is_ok();
        self.bytes.clear();
        if !written {
            self.held.clear(); // the peer hung up: none of them was answered
            return false;
        }
        let done = Instant::now();
        for reply in self.held.drain(..) {
            if let Some(trace) = &reply.trace {
                // `net_write` spans the encode, the hold and the write: it
                // opens where the answer became known.
                trace.hop("net_write", reply.answered, done);
                let _ = trace.finish(status_label(reply.status), done);
            }
            // Every answered request feeds the wire-plane SLO: wall clock
            // from frame receipt to response written, non-OK counts
            // against the error budget.
            tcam_obs::slo_record(
                u64::try_from(done.saturating_duration_since(reply.received).as_nanos())
                    .unwrap_or(u64::MAX),
                reply.status == Status::Ok,
            );
            tcam_obs::hist_record(
                "net_request_ns",
                u64::try_from(done.saturating_duration_since(reply.encoded).as_nanos())
                    .unwrap_or(u64::MAX),
            );
        }
        true
    }
}
