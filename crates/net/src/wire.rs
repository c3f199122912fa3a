//! The compact binary lookup protocol (DESIGN.md §12.1).
//!
//! Every message is one **length-prefixed frame**: a little-endian `u32`
//! byte count followed by that many payload bytes. The payload starts
//! with a fixed two-byte `(version, opcode)` header; the high bit of the
//! opcode marks a response. Keys travel as the serving path's packed
//! care-mask/value limbs — the server matches a decoded lookup batch
//! without ever touching a ternary vector, which is what lets one
//! connection sustain millions of lookups per second.
//!
//! **Versioning rules.** `WIRE_VERSION` is a major version: a peer that
//! sees any other value must reject the frame with
//! [`Status::UnsupportedVersion`] and close. Backwards-compatible
//! evolution uses the reserved bytes (which a v1 peer writes as 0 and
//! ignores on read) and new opcodes (an unknown opcode is answered with
//! [`Status::BadRequest`], not a closed connection, so newer clients can
//! probe). Anything else is a new major version.
//!
//! Layouts (all integers little-endian), after the `u32` length prefix:
//!
//! ```text
//! LOOKUP request            LOOKUP response
//! 0  version      u8        0  version     u8
//! 1  opcode 0x01  u8        1  opcode 0x81 u8
//! 2  namespace    u16       2  status      u8
//! 4  request_id   u32       3  flags       u8 (was reserved)
//! 8  limbs (2|4)  u8        4  request_id  u32
//! 9  flags        u8        8  epoch       u64
//! 10 count        u16       16 count       u16
//! 12 keys: count × limbs × 8 18 ids: count × u32 (0xFFFFFFFF = miss)
//! [keys+12: trace context, 16 bytes, iff flags bit 0]
//! ```
//!
//! A key's limbs are `mask[0], value[0]` (`limbs == 2`, words ≤ 64 bits)
//! or `mask[0], value[0], mask[1], value[1]` (`limbs == 4`). An error
//! response (status ≠ OK) carries `count == 0` and echoes the request id,
//! so a pipelining client can always pair responses to requests.
//!
//! **Trace extension.** Request byte 9 — reserved (written 0) in the
//! original v1 — is now a flags byte: bit 0 ([`REQ_FLAG_TRACE`]) says a
//! 16-byte [`TraceContext`] trails the keys. This is exactly the
//! reserved-byte evolution the versioning rules allow: an original-v1
//! *client* writes 0 and is decoded unchanged; an original-v1 *server*
//! sees a flagged frame whose length disagrees with its strict
//! `12 + count×limbs×8` expectation and answers `BadRequest` without
//! closing — which [`NetClient`](crate::client::NetClient) treats as
//! "peer does not trace" and retries once without the extension, so new
//! clients interop with old servers at full function, just untraced.
//! The response echoes bit 0 in its own flags byte (offset 3,
//! [`RESP_FLAG_TRACED`]) when the server actually collected the trace.
//! Unknown flag bits are ignored on read (they must not change frame
//! length; a length-bearing extension needs a new bit and a new tail,
//! appended after the trace context in flag-bit order).

use crate::error::{NetError, Result};
use std::io::{Read, Write};
use tcam_arch::packed::PackedWord;
use tcam_obs::trace::{TraceContext, TRACE_CONTEXT_BYTES};

/// Protocol major version (see the module docs for the evolution rules).
pub const WIRE_VERSION: u8 = 1;

/// Request flag bit 0: a 16-byte trace context trails the keys.
pub const REQ_FLAG_TRACE: u8 = 0x01;
/// Response flag bit 0: the server collected a trace for this request.
pub const RESP_FLAG_TRACED: u8 = 0x01;

/// Hard ceiling on a frame's payload size — a decoder guard against
/// garbage length prefixes, not a batching limit (the largest legal
/// lookup frame is ~2 MiB of keys).
pub const MAX_FRAME_BYTES: u32 = 4 << 20;

/// Maximum keys per lookup request (`count` is a `u16`).
pub const MAX_KEYS_PER_REQUEST: usize = u16::MAX as usize;

/// Request opcode: a batch of packed lookup keys.
pub const OP_LOOKUP: u8 = 0x01;
/// Request opcode: liveness probe (empty payload past the header).
pub const OP_PING: u8 = 0x02;
/// OR-mask marking a frame as a response to the same opcode.
pub const OP_RESPONSE: u8 = 0x80;

/// Sentinel rule id meaning "no rule matched".
pub const NO_MATCH: u32 = u32::MAX;

/// Consecutive timeout retries [`read_frame`] tolerates once a frame has
/// started (any prefix or payload byte pending) before giving up with a
/// wire error. On a stream with a read timeout of `T` this disconnects a
/// peer that stalls mid-frame after roughly `200·T` (~5 s at the server's
/// default 25 ms poll) instead of pinning the reader thread forever —
/// which would also pin [`NetServer`](crate::server::NetServer) shutdown,
/// since it joins every connection thread. Streams without a read
/// timeout never surface `WouldBlock`, so they are unaffected.
pub const MAX_MID_FRAME_STALLS: u32 = 200;

/// Capacity of the read buffer each server connection and each
/// [`NetClient`](crate::client::NetClient) reads frames through: a burst
/// of pipelined frames (16 of 64 keys is ≈ 17 KiB of requests, ≈ 4.4 KiB
/// of replies) arrives in one `read(2)` instead of two per frame. It also
/// bounds a client's queue of unwritten requests, so one write of the
/// queue is at most one server read's worth.
pub const READ_BUFFER_BYTES: usize = 64 << 10;

/// Response status codes. `Overloaded` stays in the protocol (a client
/// must still decode it) though this crate's server no longer sends it:
/// overload there is TCP backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Served; results follow.
    Ok = 0,
    /// Shed: the request was not queued. Retry after backoff.
    Overloaded = 1,
    /// Malformed request (bad opcode, undecodable body, no keys or too
    /// many).
    BadRequest = 2,
    /// The namespace in the header is not provisioned on this node.
    UnknownNamespace = 3,
    /// The node is draining; no new work is accepted.
    ShuttingDown = 4,
    /// The frame's version byte is not this peer's major version.
    UnsupportedVersion = 5,
    /// A key cares about a column at or past the namespace's rule width.
    WidthMismatch = 6,
}

impl Status {
    /// Decodes a status byte.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<Status> {
        match v {
            0 => Some(Status::Ok),
            1 => Some(Status::Overloaded),
            2 => Some(Status::BadRequest),
            3 => Some(Status::UnknownNamespace),
            4 => Some(Status::ShuttingDown),
            5 => Some(Status::UnsupportedVersion),
            6 => Some(Status::WidthMismatch),
            _ => None,
        }
    }
}

/// A decoded lookup request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupRequest {
    /// Tenant namespace (selects the table serving the request).
    pub namespace: u16,
    /// Client-chosen id echoed in the response (pipelining correlation).
    pub request_id: u32,
    /// The packed search keys.
    pub keys: Vec<PackedWord>,
    /// The optional trace-extension context (`None` on original-v1
    /// frames).
    pub trace: Option<TraceContext>,
}

/// A decoded lookup response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResponse {
    /// Outcome; `results` is empty unless `Ok`.
    pub status: Status,
    /// The request id this answers.
    pub request_id: u32,
    /// The newest table epoch that served any key of the batch — the
    /// linearizability tag (`BatchReply::epoch` carried to the wire).
    pub epoch: u64,
    /// Winning rule id per key, in request order (`None` = no match).
    pub results: Vec<Option<u32>>,
    /// Response flags (byte 3; [`RESP_FLAG_TRACED`] when the server
    /// collected a trace). Original-v1 servers write 0.
    pub flags: u8,
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Whether any key needs the second limb pair (word wider than 64 bits).
#[must_use]
pub fn needs_wide_limbs(keys: &[PackedWord]) -> bool {
    keys.iter().any(|k| k.mask[1] != 0 || k.value[1] != 0)
}

/// Encodes a lookup request into `buf` (cleared first), including the
/// length prefix. `wide` selects 4-limb keys; 2-limb encoding halves the
/// bytes for the common ≤ 64-bit word widths.
///
/// # Panics
///
/// Panics when `keys.len() > MAX_KEYS_PER_REQUEST`.
pub fn encode_lookup_request(
    buf: &mut Vec<u8>,
    namespace: u16,
    request_id: u32,
    keys: &[PackedWord],
    wide: bool,
) {
    encode_lookup_request_traced(buf, namespace, request_id, keys, wide, None);
}

/// [`encode_lookup_request`] plus the optional trace extension: with
/// `Some(trace)`, flag bit 0 is set and the 16-byte context is appended
/// after the keys. With `None` the frame is byte-identical to the
/// original v1 encoding.
///
/// # Panics
///
/// Panics when `keys.len() > MAX_KEYS_PER_REQUEST`.
pub fn encode_lookup_request_traced(
    buf: &mut Vec<u8>,
    namespace: u16,
    request_id: u32,
    keys: &[PackedWord],
    wide: bool,
    trace: Option<&TraceContext>,
) {
    assert!(
        keys.len() <= MAX_KEYS_PER_REQUEST,
        "batch exceeds u16 count"
    );
    let limbs: u8 = if wide { 4 } else { 2 };
    buf.clear();
    let payload =
        12 + keys.len() * usize::from(limbs) * 8 + trace.map_or(0, |_| TRACE_CONTEXT_BYTES);
    put_u32(buf, u32::try_from(payload).expect("payload fits u32"));
    buf.push(WIRE_VERSION);
    buf.push(OP_LOOKUP);
    put_u16(buf, namespace);
    put_u32(buf, request_id);
    buf.push(limbs);
    buf.push(if trace.is_some() { REQ_FLAG_TRACE } else { 0 });
    put_u16(buf, u16::try_from(keys.len()).expect("checked above"));
    for key in keys {
        put_u64(buf, key.mask[0]);
        put_u64(buf, key.value[0]);
        if wide {
            put_u64(buf, key.mask[1]);
            put_u64(buf, key.value[1]);
        }
    }
    if let Some(trace) = trace {
        buf.extend_from_slice(&trace.encode());
    }
}

/// Encodes a ping request into `buf` (cleared first), including the
/// length prefix: the 12-byte request header with opcode [`OP_PING`],
/// namespace 0, 2 limbs and a zero key count.
pub fn encode_ping_request(buf: &mut Vec<u8>, request_id: u32) {
    buf.clear();
    put_u32(buf, 12);
    buf.push(WIRE_VERSION);
    buf.push(OP_PING);
    put_u16(buf, 0);
    put_u32(buf, request_id);
    buf.push(2);
    buf.push(0);
    put_u16(buf, 0);
}

/// Decodes a lookup request payload (the bytes after the length prefix).
///
/// # Errors
///
/// [`NetError::Wire`] on any structural violation (the caller should
/// answer `BadRequest` or `UnsupportedVersion` and, for the latter,
/// close).
pub fn decode_lookup_request(payload: &[u8]) -> Result<LookupRequest> {
    if payload.len() < 12 {
        return Err(NetError::Wire(format!(
            "lookup request header truncated ({} bytes)",
            payload.len()
        )));
    }
    if payload[0] != WIRE_VERSION {
        return Err(NetError::Wire(format!(
            "unsupported wire version {}",
            payload[0]
        )));
    }
    if payload[1] != OP_LOOKUP {
        return Err(NetError::Wire(format!(
            "unexpected opcode {:#x}",
            payload[1]
        )));
    }
    let namespace = get_u16(payload, 2);
    let request_id = get_u32(payload, 4);
    let limbs = payload[8] as usize;
    if limbs != 2 && limbs != 4 {
        return Err(NetError::Wire(format!("bad limb count {limbs}")));
    }
    let flags = payload[9];
    let count = get_u16(payload, 10) as usize;
    let trace_bytes = if flags & REQ_FLAG_TRACE != 0 {
        TRACE_CONTEXT_BYTES
    } else {
        0
    };
    let expected = 12 + count * limbs * 8 + trace_bytes;
    if payload.len() != expected {
        return Err(NetError::Wire(format!(
            "lookup request of {count} keys × {limbs} limbs should be {expected} bytes, got {}",
            payload.len()
        )));
    }
    let mut keys = Vec::with_capacity(count);
    let mut at = 12;
    for _ in 0..count {
        let mut key = PackedWord {
            mask: [get_u64(payload, at), 0],
            value: [get_u64(payload, at + 8), 0],
        };
        at += 16;
        if limbs == 4 {
            key.mask[1] = get_u64(payload, at);
            key.value[1] = get_u64(payload, at + 8);
            at += 16;
        }
        keys.push(key);
    }
    let trace = if trace_bytes > 0 {
        TraceContext::decode(&payload[at..at + TRACE_CONTEXT_BYTES])
    } else {
        None
    };
    Ok(LookupRequest {
        namespace,
        request_id,
        keys,
        trace,
    })
}

/// Encodes a lookup response into `buf` (cleared first), including the
/// length prefix. Non-`Ok` statuses must carry an empty `results`.
///
/// # Panics
///
/// Panics when `results.len() > MAX_KEYS_PER_REQUEST`.
pub fn encode_lookup_response(
    buf: &mut Vec<u8>,
    status: Status,
    request_id: u32,
    epoch: u64,
    results: &[Option<u32>],
) {
    encode_response(buf, OP_LOOKUP, status, request_id, epoch, results);
}

/// Generalized response encoder: `opcode` is the **request** opcode being
/// answered (the response bit is OR'd in here). Pings use this with
/// [`OP_PING`] and an empty result list.
///
/// # Panics
///
/// Panics when `results.len() > MAX_KEYS_PER_REQUEST`.
pub fn encode_response(
    buf: &mut Vec<u8>,
    opcode: u8,
    status: Status,
    request_id: u32,
    epoch: u64,
    results: &[Option<u32>],
) {
    encode_response_flagged(buf, opcode, status, request_id, epoch, results, 0);
}

/// [`encode_response`] with explicit response flags (byte 3;
/// [`RESP_FLAG_TRACED`] acknowledges a collected trace). Flags 0 is
/// byte-identical to the original v1 encoding.
///
/// # Panics
///
/// Panics when `results.len() > MAX_KEYS_PER_REQUEST`.
#[allow(clippy::too_many_arguments)]
pub fn encode_response_flagged(
    buf: &mut Vec<u8>,
    opcode: u8,
    status: Status,
    request_id: u32,
    epoch: u64,
    results: &[Option<u32>],
    flags: u8,
) {
    assert!(
        results.len() <= MAX_KEYS_PER_REQUEST,
        "batch exceeds u16 count"
    );
    buf.clear();
    let payload = 18 + results.len() * 4;
    put_u32(buf, u32::try_from(payload).expect("payload fits u32"));
    buf.push(WIRE_VERSION);
    buf.push(opcode | OP_RESPONSE);
    buf.push(status as u8);
    buf.push(flags);
    put_u32(buf, request_id);
    put_u64(buf, epoch);
    put_u16(buf, u16::try_from(results.len()).expect("checked above"));
    for r in results {
        put_u32(buf, r.unwrap_or(NO_MATCH));
    }
}

/// Decodes a lookup response payload (the bytes after the length prefix).
///
/// # Errors
///
/// [`NetError::Wire`] on any structural violation.
pub fn decode_lookup_response(payload: &[u8]) -> Result<LookupResponse> {
    if payload.len() < 18 {
        return Err(NetError::Wire(format!(
            "lookup response header truncated ({} bytes)",
            payload.len()
        )));
    }
    if payload[0] != WIRE_VERSION {
        return Err(NetError::Wire(format!(
            "unsupported wire version {}",
            payload[0]
        )));
    }
    if payload[1] != (OP_LOOKUP | OP_RESPONSE) && payload[1] != (OP_PING | OP_RESPONSE) {
        return Err(NetError::Wire(format!(
            "unexpected opcode {:#x}",
            payload[1]
        )));
    }
    let status = Status::from_u8(payload[2])
        .ok_or_else(|| NetError::Wire(format!("unknown status {}", payload[2])))?;
    let flags = payload[3];
    let request_id = get_u32(payload, 4);
    let epoch = get_u64(payload, 8);
    let count = get_u16(payload, 16) as usize;
    let expected = 18 + count * 4;
    if payload.len() != expected {
        return Err(NetError::Wire(format!(
            "lookup response of {count} ids should be {expected} bytes, got {}",
            payload.len()
        )));
    }
    let mut results = Vec::with_capacity(count);
    for i in 0..count {
        let id = get_u32(payload, 18 + i * 4);
        results.push(if id == NO_MATCH { None } else { Some(id) });
    }
    Ok(LookupResponse {
        status,
        request_id,
        epoch,
        results,
        flags,
    })
}

/// Writes one already-encoded frame (length prefix included) to `w`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)
}

/// Reads one frame's payload from `r`. Returns `Ok(None)` on a clean EOF
/// **at a frame boundary** (the peer closed between frames); EOF inside a
/// frame is an error.
///
/// # Errors
///
/// I/O errors (including read timeouts, surfaced as `WouldBlock` /
/// `TimedOut`), or [`NetError::Wire`] when the length prefix exceeds
/// [`MAX_FRAME_BYTES`] or a started frame stalls for more than
/// [`MAX_MID_FRAME_STALLS`] consecutive timeout ticks.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean close before any prefix byte is a normal end-of-stream.
    let mut got = 0;
    let mut stalls = 0u32;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(NetError::Wire("eof inside frame length".into()));
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // A timeout with some prefix bytes already consumed must keep
            // reading (the frame is mid-flight) — but only boundedly, so
            // a peer stalled mid-frame cannot pin this thread forever;
            // with none consumed, surface it so pollers can check
            // shutdown flags.
            Err(e)
                if got > 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(NetError::Wire("peer stalled inside frame length".into()));
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Wire(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    let mut stalls = 0u32;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(NetError::Wire("eof inside frame payload".into())),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(NetError::Wire("peer stalled inside frame payload".into()));
                }
            }
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::parse_ternary;

    fn key(s: &str) -> PackedWord {
        PackedWord::pack(&parse_ternary(s).unwrap())
    }

    #[test]
    fn request_roundtrips_narrow_and_wide() {
        let keys = vec![key("10XX1"), key("00000"), key("XXXXX")];
        let mut buf = Vec::new();
        encode_lookup_request(&mut buf, 7, 42, &keys, false);
        assert_eq!(
            u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize,
            buf.len() - 4
        );
        let req = decode_lookup_request(&buf[4..]).unwrap();
        assert_eq!(req.namespace, 7);
        assert_eq!(req.request_id, 42);
        assert_eq!(req.keys, keys);

        // A 100-bit key forces the wide encoding.
        let wide_key = key(&"1X0".repeat(33)); // 99 bits
        assert!(needs_wide_limbs(&[wide_key]));
        encode_lookup_request(&mut buf, 0, 1, &[wide_key], true);
        let req = decode_lookup_request(&buf[4..]).unwrap();
        assert_eq!(req.keys, vec![wide_key]);
    }

    #[test]
    fn trace_extension_roundtrips_and_unflagged_frames_are_v1_identical() {
        let keys = vec![key("10XX1"), key("00000")];
        let ctx = TraceContext::sampled(0x1234_5678_9ABC_DEF0);
        let mut traced = Vec::new();
        encode_lookup_request_traced(&mut traced, 7, 42, &keys, false, Some(&ctx));
        let req = decode_lookup_request(&traced[4..]).unwrap();
        assert_eq!(req.keys, keys);
        assert_eq!(req.trace, Some(ctx));

        // No trace -> byte-identical to the original v1 encoder path.
        let mut plain = Vec::new();
        encode_lookup_request_traced(&mut plain, 7, 42, &keys, false, None);
        let mut v1 = Vec::new();
        encode_lookup_request(&mut v1, 7, 42, &keys, false);
        assert_eq!(plain, v1);
        assert_eq!(decode_lookup_request(&plain[4..]).unwrap().trace, None);

        // A flagged frame whose trace tail is missing is structurally
        // invalid (that's exactly what an original-v1 server rejects).
        let torn = &traced[4..traced.len() - TRACE_CONTEXT_BYTES];
        assert!(decode_lookup_request(torn).is_err());

        // The response echoes the traced flag.
        let mut buf = Vec::new();
        encode_response_flagged(
            &mut buf,
            OP_LOOKUP,
            Status::Ok,
            42,
            3,
            &[Some(1)],
            RESP_FLAG_TRACED,
        );
        let resp = decode_lookup_response(&buf[4..]).unwrap();
        assert_eq!(resp.flags & RESP_FLAG_TRACED, RESP_FLAG_TRACED);
        encode_lookup_response(&mut buf, Status::Ok, 42, 3, &[Some(1)]);
        assert_eq!(decode_lookup_response(&buf[4..]).unwrap().flags, 0);
    }

    #[test]
    fn ping_request_is_the_bare_header() {
        let mut buf = vec![0xAA; 3];
        encode_ping_request(&mut buf, 0x0403_0201);
        assert_eq!(
            buf,
            [
                12,
                0,
                0,
                0,
                WIRE_VERSION,
                OP_PING,
                0,
                0,
                1,
                2,
                3,
                4,
                2,
                0,
                0,
                0
            ]
        );
    }

    #[test]
    fn response_roundtrips_including_errors() {
        let results = vec![Some(3), None, Some(NO_MATCH - 1)];
        let mut buf = Vec::new();
        encode_lookup_response(&mut buf, Status::Ok, 9, 17, &results);
        let resp = decode_lookup_response(&buf[4..]).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.request_id, 9);
        assert_eq!(resp.epoch, 17);
        assert_eq!(resp.results, results);

        encode_lookup_response(&mut buf, Status::Overloaded, 10, 0, &[]);
        let resp = decode_lookup_response(&buf[4..]).unwrap();
        assert_eq!(resp.status, Status::Overloaded);
        assert!(resp.results.is_empty());
    }

    #[test]
    fn decoder_rejects_structural_garbage() {
        let keys = vec![key("1010")];
        let mut buf = Vec::new();
        encode_lookup_request(&mut buf, 0, 1, &keys, false);
        // Wrong version.
        let mut bad = buf[4..].to_vec();
        bad[0] = 99;
        assert!(decode_lookup_request(&bad).is_err());
        // Wrong opcode.
        let mut bad = buf[4..].to_vec();
        bad[1] = 0x7F;
        assert!(decode_lookup_request(&bad).is_err());
        // Count disagrees with the byte length.
        let mut bad = buf[4..].to_vec();
        bad[10] = 2;
        assert!(decode_lookup_request(&bad).is_err());
        // Truncated header.
        assert!(decode_lookup_request(&buf[4..12]).is_err());
        // Bad limb count.
        let mut bad = buf[4..].to_vec();
        bad[8] = 3;
        assert!(decode_lookup_request(&bad).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let keys = vec![key("1X"), key("01")];
        let mut frame = Vec::new();
        encode_lookup_request(&mut frame, 1, 2, &keys, false);
        let mut stream: Vec<u8> = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        write_frame(&mut stream, &frame).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        for _ in 0..2 {
            let payload = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(decode_lookup_request(&payload).unwrap().keys, keys);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean eof");
        // EOF inside a frame is a wire error, not a clean close.
        let mut torn = std::io::Cursor::new(frame[..frame.len() - 1].to_vec());
        assert!(read_frame(&mut torn).is_err());
    }

    #[test]
    fn mid_frame_stall_is_bounded() {
        /// Yields a few real bytes, then times out forever — a peer that
        /// stalled mid-frame (or a read-timeout stream gone idle).
        struct Staller {
            bytes: Vec<u8>,
            at: usize,
        }
        impl Read for Staller {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.at < self.bytes.len() {
                    buf[0] = self.bytes[self.at];
                    self.at += 1;
                    Ok(1)
                } else {
                    Err(std::io::ErrorKind::WouldBlock.into())
                }
            }
        }
        // Stalled inside the length prefix: bounded error, not a hang.
        let mut r = Staller {
            bytes: vec![8, 0],
            at: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(NetError::Wire(_))));
        // Stalled inside the payload likewise.
        let mut r = Staller {
            bytes: vec![8, 0, 0, 0, 1, 2, 3],
            at: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(NetError::Wire(_))));
        // Before any byte, the timeout still surfaces as Io (poll tick).
        let mut r = Staller {
            bytes: vec![],
            at: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(NetError::Io(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(stream);
        assert!(matches!(read_frame(&mut cursor), Err(NetError::Wire(_))));
    }
}
