//! The blocking/pipelined wire-protocol client.
//!
//! [`NetClient::lookup`] is the simple request/response call. For
//! throughput, pipeline: issue several [`NetClient::send_lookup`]s, then
//! collect with [`NetClient::recv_response`] — responses arrive in
//! request order, each carrying the request id for pairing: the server
//! answers a connection's requests one at a time, in the order they
//! arrive, and writes the replies to a burst it read whole in one write.
//!
//! **The request queue.** A send does not write: it encodes the request
//! and appends it to the client's queue. [`NetClient::recv_response`]
//! writes the whole queue with one `write(2)` before it reads, so a
//! burst of pipelined requests leaves in one write and its replies,
//! read through one 64 KiB buffer on the same socket, come back in about
//! one `read(2)`. A depth-1 [`NetClient::lookup`] or [`NetClient::ping`]
//! is a send and a receive, so it still costs one write. A send writes
//! the queue first when its frame would take the queue past 64 KiB (the
//! server's read buffer), so a queue never holds more than one server
//! read's worth of requests (a lone frame larger than that is queued
//! alone). [`NetClient::flush`] writes the queue without reading;
//! dropping a client discards its queue unwritten. `stack_bench`'s wire
//! phases drive exactly this loop. [`NetClient::lookup`] and
//! [`NetClient::ping`] check that the response they read carries their
//! own request id, so one called with responses still outstanding fails
//! instead of taking another request's reply.
//!
//! **Tracing.** [`NetClient::set_tracing`] attaches the wire trace
//! extension to every lookup, sampling one request in `sample_every`
//! for server-side span collection. A pre-extension server rejects the
//! flagged frame with `BadRequest`; [`NetClient::lookup`] detects that
//! on the first traced request, retries it once without the extension,
//! and stops tracing for the connection — so a new client against an
//! old server degrades to exactly the old behavior (identical results,
//! no trace) instead of failing.

use crate::error::{NetError, Result};
use crate::wire::{
    self, needs_wide_limbs, LookupResponse, Status, MAX_KEYS_PER_REQUEST, RESP_FLAG_TRACED,
};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;
use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_obs::trace::{next_trace_id, TraceContext};

/// A connection to a [`NetServer`](crate::server::NetServer).
///
/// Dropping a client closes the connection and discards any queued
/// request unwritten: call [`Self::flush`] first to send them.
pub struct NetClient {
    /// The connection: responses are read through the buffer, requests
    /// written to [`BufReader::get_ref`].
    reader: BufReader<TcpStream>,
    /// Encoded requests not yet written, in send order; at most
    /// [`wire::READ_BUFFER_BYTES`] unless it holds one larger frame.
    queue: Vec<u8>,
    /// The request being encoded, before it joins the queue.
    frame: Vec<u8>,
    next_id: u32,
    /// 0 = tracing off; N = attach a context to every lookup, sampled
    /// every Nth.
    trace_every: u32,
    trace_seq: u32,
    /// Learned peer capability: `Some(false)` after a traced request
    /// came back `BadRequest` (pre-extension server), `Some(true)` after
    /// a response acknowledged a trace.
    peer_traces: Option<bool>,
}

impl NetClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7700"`).
    ///
    /// # Errors
    ///
    /// Connect I/O errors.
    pub fn connect(addr: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::with_capacity(wire::READ_BUFFER_BYTES, stream),
            queue: Vec::with_capacity(wire::READ_BUFFER_BYTES),
            frame: Vec::new(),
            next_id: 1,
            trace_every: 0,
            trace_seq: 0,
            peer_traces: None,
        })
    }

    /// Enables the trace extension on subsequent lookups: every request
    /// carries a context, every `sample_every`-th is marked sampled
    /// (span collection server-side). `0` disables. Automatically
    /// disabled for the connection if the peer proves pre-extension.
    pub fn set_tracing(&mut self, sample_every: u32) {
        self.trace_every = sample_every;
        self.trace_seq = 0;
    }

    /// What this client has learned about the peer's trace support:
    /// `None` until a traced exchange settles it.
    #[must_use]
    pub fn peer_traces(&self) -> Option<bool> {
        self.peer_traces
    }

    /// Sets (or clears) the receive timeout for responses.
    ///
    /// # Errors
    ///
    /// Socket option I/O errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Queues one lookup request without waiting; returns its request
    /// id. Collect responses in order with [`Self::recv_response`], which
    /// writes the queue first.
    ///
    /// # Errors
    ///
    /// [`NetError::Wire`] when `keys` holds more than
    /// [`MAX_KEYS_PER_REQUEST`] keys (nothing is queued); write I/O errors
    /// when this frame would take the queue past its bound and writing
    /// the queue fails (the queue is then discarded).
    pub fn send_lookup(&mut self, namespace: u16, keys: &[PackedWord]) -> Result<u32> {
        let trace = self.next_trace_context();
        self.send_lookup_traced(namespace, keys, trace.as_ref())
    }

    /// Queues one lookup with an explicit trace context (or none),
    /// bypassing the sampling policy. Returns the request id.
    ///
    /// # Errors
    ///
    /// As [`Self::send_lookup`].
    pub fn send_lookup_traced(
        &mut self,
        namespace: u16,
        keys: &[PackedWord],
        trace: Option<&TraceContext>,
    ) -> Result<u32> {
        if keys.len() > MAX_KEYS_PER_REQUEST {
            return Err(NetError::Wire(format!(
                "{} keys exceed the {MAX_KEYS_PER_REQUEST}-key request limit",
                keys.len()
            )));
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        wire::encode_lookup_request_traced(
            &mut self.frame,
            namespace,
            id,
            keys,
            needs_wide_limbs(keys),
            trace,
        );
        self.enqueue()?;
        Ok(id)
    }

    /// Appends the encoded frame to the queue, writing the queue first
    /// when the frame would take it past [`wire::READ_BUFFER_BYTES`].
    fn enqueue(&mut self) -> Result<()> {
        if self.queue.len() + self.frame.len() > wire::READ_BUFFER_BYTES {
            self.flush()?;
        }
        self.queue.extend_from_slice(&self.frame);
        Ok(())
    }

    /// Writes every queued request in one `write_all`, without reading.
    /// [`Self::recv_response`] does this itself; call it directly when
    /// replies are collected some other way, or before dropping a client
    /// whose requests must still reach the server.
    ///
    /// # Errors
    ///
    /// Write I/O errors. The queue is emptied either way; after a failed
    /// write the connection is unusable.
    pub fn flush(&mut self) -> Result<()> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let written = self.reader.get_ref().write_all(&self.queue);
        self.queue.clear();
        Ok(written?)
    }

    /// The context the sampling policy attaches to the next lookup, if
    /// tracing is on and the peer hasn't proven pre-extension.
    fn next_trace_context(&mut self) -> Option<TraceContext> {
        if self.trace_every == 0 || self.peer_traces == Some(false) {
            return None;
        }
        let seq = self.trace_seq;
        self.trace_seq = self.trace_seq.wrapping_add(1);
        let id = next_trace_id();
        Some(if seq.is_multiple_of(self.trace_every) {
            TraceContext::sampled(id)
        } else {
            TraceContext::unsampled(id)
        })
    }

    /// Writes the queued requests, then receives the next response
    /// (they arrive in request order).
    ///
    /// # Errors
    ///
    /// Write or read I/O errors, or [`NetError::Wire`] on a malformed
    /// frame / closed stream mid-frame.
    pub fn recv_response(&mut self) -> Result<LookupResponse> {
        self.flush()?;
        let payload = wire::read_frame(&mut self.reader)?
            .ok_or_else(|| NetError::Wire("server closed the connection".into()))?;
        wire::decode_lookup_response(&payload)
    }

    /// Receives the next response and checks it answers request `id`.
    ///
    /// # Errors
    ///
    /// As [`Self::recv_response`], or [`NetError::Wire`] when the response
    /// carries another request's id (one sent earlier and not collected).
    fn recv_response_to(&mut self, id: u32) -> Result<LookupResponse> {
        let resp = self.recv_response()?;
        if resp.request_id != id {
            return Err(NetError::Wire(format!(
                "response id {} does not match request id {id}",
                resp.request_id
            )));
        }
        Ok(resp)
    }

    /// One blocking lookup of packed keys: send, receive, and surface a
    /// non-OK status as [`NetError::Status`]. Returns `(epoch, results)`.
    ///
    /// # Errors
    ///
    /// I/O or wire errors — [`NetError::Wire`], with nothing sent, when
    /// `keys` holds more than [`MAX_KEYS_PER_REQUEST`] keys — or the
    /// server's status (`UnknownNamespace`, `WidthMismatch`, …).
    pub fn lookup(
        &mut self,
        namespace: u16,
        keys: &[PackedWord],
    ) -> Result<(u64, Vec<Option<u32>>)> {
        let trace = self.next_trace_context();
        let traced = trace.is_some();
        let id = self.send_lookup_traced(namespace, keys, trace.as_ref())?;
        let resp = self.recv_response_to(id)?;
        if resp.status == Status::BadRequest && traced && self.peer_traces.is_none() {
            // A pre-extension server rejects the flagged frame's length.
            // Learn that, stop tracing this connection, and retry the
            // lookup once untraced — old-server interop at full function.
            self.peer_traces = Some(false);
            return self.lookup(namespace, keys);
        }
        if resp.status != Status::Ok {
            return Err(NetError::Status(resp.status));
        }
        if traced && resp.flags & RESP_FLAG_TRACED != 0 {
            self.peer_traces = Some(true);
        }
        Ok((resp.epoch, resp.results))
    }

    /// Convenience: packs ternary keys and looks them up.
    ///
    /// # Errors
    ///
    /// As [`Self::lookup`].
    pub fn lookup_ternary(
        &mut self,
        namespace: u16,
        keys: &[Vec<TernaryBit>],
    ) -> Result<(u64, Vec<Option<u32>>)> {
        let packed: Vec<PackedWord> = keys.iter().map(|k| PackedWord::pack(k)).collect();
        self.lookup(namespace, &packed)
    }

    /// Queues one ping without waiting; returns its request id. Its pong
    /// (status OK, no results) arrives in request order among the
    /// lookups' responses.
    ///
    /// # Errors
    ///
    /// Write I/O errors when the ping would take the queue past its
    /// bound and writing the queue fails (the queue is then discarded).
    pub fn send_ping(&mut self) -> Result<u32> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        wire::encode_ping_request(&mut self.frame, id);
        self.enqueue()?;
        Ok(id)
    }

    /// Liveness probe: round-trips a ping frame.
    ///
    /// # Errors
    ///
    /// I/O or wire errors — [`NetError::Wire`] when the next response
    /// answers an earlier, uncollected request instead — or a non-OK
    /// status.
    pub fn ping(&mut self) -> Result<()> {
        let id = self.send_ping()?;
        let resp = self.recv_response_to(id)?;
        if resp.status != Status::Ok {
            return Err(NetError::Status(resp.status));
        }
        Ok(())
    }
}
