//! The blocking/pipelined wire-protocol client.
//!
//! [`NetClient::lookup`] is the simple request/response call. For
//! throughput, pipeline: issue several [`NetClient::send_lookup`]s, then
//! collect with [`NetClient::recv_response`] — responses arrive in
//! request order, each carrying the request id for pairing: the server
//! answers a connection's requests one at a time, in the order they
//! arrive, and writes the replies to a burst it read whole in one write.
//! The client reads them through one 64 KiB buffer on its one socket
//! (requests are written straight to that socket), so a burst's replies
//! cost about one `read(2)`, not two per reply. `stack_bench`'s wire
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
    self, needs_wide_limbs, LookupResponse, Status, OP_PING, RESP_FLAG_TRACED, WIRE_VERSION,
};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;
use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_obs::trace::{next_trace_id, TraceContext};

/// A connection to a [`NetServer`](crate::server::NetServer).
pub struct NetClient {
    /// The connection: responses are read through the buffer, requests
    /// written to [`BufReader::get_ref`].
    reader: BufReader<TcpStream>,
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

    /// Sends one lookup request without waiting; returns its request id.
    /// Collect responses in order with [`Self::recv_response`].
    ///
    /// # Errors
    ///
    /// Send I/O errors.
    pub fn send_lookup(&mut self, namespace: u16, keys: &[PackedWord]) -> Result<u32> {
        let trace = self.next_trace_context();
        self.send_lookup_traced(namespace, keys, trace.as_ref())
    }

    /// Sends one lookup with an explicit trace context (or none),
    /// bypassing the sampling policy. Returns the request id.
    ///
    /// # Errors
    ///
    /// Send I/O errors.
    pub fn send_lookup_traced(
        &mut self,
        namespace: u16,
        keys: &[PackedWord],
        trace: Option<&TraceContext>,
    ) -> Result<u32> {
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
        self.reader.get_ref().write_all(&self.frame)?;
        Ok(id)
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

    /// Receives the next response (they arrive in request order).
    ///
    /// # Errors
    ///
    /// I/O errors, or [`NetError::Wire`] on a malformed frame / closed
    /// stream mid-frame.
    pub fn recv_response(&mut self) -> Result<LookupResponse> {
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
    /// I/O or wire errors, or the server's status (`UnknownNamespace`,
    /// `WidthMismatch`, …).
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

    /// Sends one ping without waiting; returns its request id. Its pong
    /// (status OK, no results) arrives in request order among the
    /// lookups' responses.
    ///
    /// # Errors
    ///
    /// Send I/O errors.
    pub fn send_ping(&mut self) -> Result<u32> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        // A ping is the 12-byte request header with a zero key count.
        self.frame.clear();
        self.frame.extend_from_slice(&12u32.to_le_bytes());
        self.frame.push(WIRE_VERSION);
        self.frame.push(OP_PING);
        self.frame.extend_from_slice(&0u16.to_le_bytes());
        self.frame.extend_from_slice(&id.to_le_bytes());
        self.frame.extend_from_slice(&[2, 0]); // limbs, reserved
        self.frame.extend_from_slice(&0u16.to_le_bytes());
        self.reader.get_ref().write_all(&self.frame)?;
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
