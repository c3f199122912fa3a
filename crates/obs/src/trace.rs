//! End-to-end request tracing: a 16-byte wire-portable trace context,
//! a per-request hop collector, and a bounded in-process trace store
//! with per-latency-bucket exemplars.
//!
//! The [`TraceContext`] is the only part that crosses the wire: trace
//! id, parent span, and a sampling bit, packed into exactly
//! [`TRACE_CONTEXT_BYTES`] little-endian bytes so `tcam-net` can carry
//! it as an optional frame extension without renegotiating the
//! protocol version. Everything else stays server-side: a sampled
//! request gets one [`RequestTrace`] collector (an `Arc`, shared with
//! the lookup it rides on); each layer the request crosses records
//! **hops** — named `[start, end)` intervals measured against the
//! collector's single origin instant, so no two clocks are compared.
//!
//! [`RequestTrace::finish`] freezes the hops into a [`TraceRecord`]
//! and registers it with the global store: a bounded ring of recent
//! records (for `/trace` listings) plus one **exemplar** per latency
//! bucket of the shared [`crate::hist`] geometry — the most recent
//! sampled request that landed in that bucket, which is exactly what a
//! tail-latency investigation wants next to a histogram quantile.
//!
//! Span trees are assembled at render time by interval containment
//! (sort by start ascending / end descending, then a stack), so
//! recorders never coordinate about nesting: a hop lands inside
//! another purely because its interval does.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Exact encoded size of a [`TraceContext`] on the wire.
pub const TRACE_CONTEXT_BYTES: usize = 16;

/// Bounded count of recent finished traces kept for listing.
const RECENT_CAP: usize = 256;

/// The 16-byte wire-portable trace context (see module docs).
///
/// Layout (little-endian): `trace_id` u64 at 0, `parent_span` u32 at
/// 8, `flags` u8 at 12, three reserved bytes (written 0, ignored on
/// read — the same forward-compatibility rule the wire header uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Request-unique id; the `/trace?id=` lookup key (hex).
    pub trace_id: u64,
    /// Span id of the caller's enclosing span (0 = root).
    pub parent_span: u32,
    /// Bit flags; see [`Self::FLAG_SAMPLED`].
    pub flags: u8,
}

impl TraceContext {
    /// Flag bit: the origin elected this request for span collection.
    pub const FLAG_SAMPLED: u8 = 0x01;

    /// A root context for `trace_id`, sampled.
    #[must_use]
    pub fn sampled(trace_id: u64) -> Self {
        Self {
            trace_id,
            parent_span: 0,
            flags: Self::FLAG_SAMPLED,
        }
    }

    /// A root context for `trace_id`, carried but not sampled.
    #[must_use]
    pub fn unsampled(trace_id: u64) -> Self {
        Self {
            trace_id,
            parent_span: 0,
            flags: 0,
        }
    }

    /// Whether the sampling bit is set.
    #[must_use]
    pub fn is_sampled(&self) -> bool {
        self.flags & Self::FLAG_SAMPLED != 0
    }

    /// Packs the context into its wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; TRACE_CONTEXT_BYTES] {
        let mut out = [0u8; TRACE_CONTEXT_BYTES];
        out[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..12].copy_from_slice(&self.parent_span.to_le_bytes());
        out[12] = self.flags;
        out
    }

    /// Unpacks a wire-form context. Returns `None` unless `bytes` is
    /// exactly [`TRACE_CONTEXT_BYTES`] long. Reserved bytes are
    /// ignored so a later revision can use them without breaking us.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TRACE_CONTEXT_BYTES {
            return None;
        }
        Some(Self {
            trace_id: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
            parent_span: u32::from_le_bytes(bytes[8..12].try_into().ok()?),
            flags: bytes[12],
        })
    }
}

/// Returns a fresh process-unique trace id: a SplitMix64-mixed global
/// counter, so ids are well-spread for hashing/display but fully
/// deterministic within a run (no wall clock, no OS entropy — the
/// offline-build rule).
#[must_use]
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // SplitMix64 finalizer over a golden-ratio sequence; never yields 0
    // for n < 2^64-1 inputs shifted by the seed constant.
    let mut z = n
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z | 1 // keep 0 reserved for "no trace"
}

/// One recorded hop: a named `[start_ns, end_ns)` interval relative to
/// the collector's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Hop name (snake_case, e.g. `serve_match`).
    pub name: &'static str,
    /// Start offset from the request origin, nanoseconds.
    pub start_ns: u64,
    /// End offset from the request origin, nanoseconds.
    pub end_ns: u64,
}

impl Hop {
    /// Hop duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The per-request hop collector shared across threads via `Arc`.
///
/// Recording is one uncontended mutex lock plus a `Vec` push; only
/// sampled requests allocate one of these, so the unsampled hot path
/// never touches it.
#[derive(Debug)]
pub struct RequestTrace {
    ctx: TraceContext,
    t0: Instant,
    hops: Mutex<Vec<Hop>>,
}

impl RequestTrace {
    /// Starts a collector whose origin is "now".
    #[must_use]
    pub fn start(ctx: TraceContext) -> Arc<Self> {
        Self::start_at(ctx, Instant::now())
    }

    /// Starts a collector with an explicit origin (the frame-receipt
    /// instant, captured before decode so decode itself is covered).
    #[must_use]
    pub fn start_at(ctx: TraceContext, origin: Instant) -> Arc<Self> {
        Arc::new(Self {
            ctx,
            t0: origin,
            hops: Mutex::new(Vec::with_capacity(8)),
        })
    }

    /// The carried wire context.
    #[must_use]
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// The request origin instant every hop is measured against.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// Records the hop `name` over `[start, end)`.
    pub fn hop(&self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = saturating_offset_ns(self.t0, start);
        let end_ns = saturating_offset_ns(self.t0, end);
        let mut hops = self
            .hops
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        hops.push(Hop {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Freezes the collected hops into a [`TraceRecord`] ending at
    /// `end`, registers it with the global store, and returns it.
    pub fn finish(&self, status: &'static str, end: Instant) -> Arc<TraceRecord> {
        let total_ns = saturating_offset_ns(self.t0, end);
        let mut hops = {
            let guard = self
                .hops
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.clone()
        };
        // Containment order: outer intervals first, so render-time tree
        // assembly is a single stack pass.
        hops.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        let record = Arc::new(TraceRecord {
            trace_id: self.ctx.trace_id,
            parent_span: self.ctx.parent_span,
            status,
            total_ns,
            hops,
        });
        store_register(&record);
        record
    }
}

fn saturating_offset_ns(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// A finished, immutable trace: the span tree a `/trace?id=` query
/// renders and the exemplar the SLO endpoint links to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The wire trace id (hex in JSON, so 64-bit ids survive parsers
    /// that widen numbers to f64).
    pub trace_id: u64,
    /// The caller's enclosing span id (0 = root).
    pub parent_span: u32,
    /// Terminal status label (`ok`, `overloaded`, …).
    pub status: &'static str,
    /// Request wall time, origin to finish, nanoseconds.
    pub total_ns: u64,
    /// Hops in containment order (outer first).
    pub hops: Vec<Hop>,
}

impl TraceRecord {
    /// Indices of the top-level hops: the greedy left-to-right tiling of
    /// the request timeline. Because `hops` is containment-ordered, a
    /// hop is top-level iff it starts at or after the end of the last
    /// top-level hop; skipped hops do **not** advance the frontier, so a
    /// span that merely pokes out of its parent (opened during one stage
    /// and closed inside the next) cannot knock the real next-stage hop
    /// out of the tiling.
    #[must_use]
    pub fn top_level(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut frontier = 0u64;
        for (i, h) in self.hops.iter().enumerate() {
            if h.start_ns >= frontier {
                out.push(i);
                frontier = h.end_ns;
            }
        }
        out
    }

    /// Share of the request wall time attributed by the top-level hops,
    /// percent. Top-level hops of a well-instrumented path tile the
    /// request (decode → match → write), so this reads near 100; a hole
    /// means a hop is missing its recorder.
    #[must_use]
    pub fn cover_pct(&self) -> f64 {
        if self.total_ns == 0 {
            return 100.0;
        }
        let covered: u64 = self
            .top_level()
            .into_iter()
            .map(|i| self.hops[i].dur_ns())
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let pct = covered as f64 / self.total_ns as f64 * 100.0;
        pct
    }

    /// Renders the span tree as JSON (snake_case keys, nested
    /// `children` arrays, self-time per span).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"trace_id\":\"{:016x}\",\"parent_span\":{},\"status\":\"{}\",\"total_ns\":{},\"cover_pct\":{:.1},\"spans\":[",
            self.trace_id, self.parent_span, self.status, self.total_ns, self.cover_pct()
        ));
        let mut first = true;
        let mut i = 0usize;
        while i < self.hops.len() {
            if !first {
                out.push(',');
            }
            first = false;
            i = self.render_subtree(i, &mut out);
        }
        out.push_str("]}");
        out
    }

    /// Renders the subtree rooted at hop `i`; returns the index of the
    /// first hop past the subtree. Children are exactly the following
    /// hops whose interval is contained in hop `i`'s (containment
    /// order makes them contiguous).
    fn render_subtree(&self, i: usize, out: &mut String) -> usize {
        let h = &self.hops[i];
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}",
            h.name,
            h.start_ns,
            h.dur_ns()
        ));
        let mut child_ns = 0u64;
        let mut j = i + 1;
        let mut rendered_child = false;
        while j < self.hops.len()
            && self.hops[j].start_ns >= h.start_ns
            && self.hops[j].end_ns <= h.end_ns
        {
            if !rendered_child {
                out.push_str(",\"children\":[");
                rendered_child = true;
            } else {
                out.push(',');
            }
            child_ns += self.hops[j].dur_ns();
            j = self.render_subtree(j, out);
        }
        if rendered_child {
            out.push(']');
        }
        out.push_str(&format!(
            ",\"self_ns\":{}}}",
            h.dur_ns().saturating_sub(child_ns)
        ));
        j
    }
}

struct StoreInner {
    recent: VecDeque<Arc<TraceRecord>>,
    exemplars: BTreeMap<usize, Arc<TraceRecord>>,
}

fn store() -> &'static Mutex<StoreInner> {
    static STORE: OnceLock<Mutex<StoreInner>> = OnceLock::new();
    STORE.get_or_init(|| {
        Mutex::new(StoreInner {
            recent: VecDeque::with_capacity(RECENT_CAP),
            exemplars: BTreeMap::new(),
        })
    })
}

fn store_register(record: &Arc<TraceRecord>) {
    let mut inner = store()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if inner.recent.len() == RECENT_CAP {
        inner.recent.pop_front();
    }
    inner.recent.push_back(Arc::clone(record));
    // One exemplar per latency bucket of the shared histogram geometry,
    // latest wins — "show me a request that took ~that long".
    let bucket = crate::hist::bucket_of(record.total_ns);
    inner.exemplars.insert(bucket, Arc::clone(record));
}

/// Looks up a finished trace by id (the `/trace?id=` path).
#[must_use]
pub fn trace_lookup(trace_id: u64) -> Option<Arc<TraceRecord>> {
    let inner = store()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    inner
        .recent
        .iter()
        .rev()
        .find(|r| r.trace_id == trace_id)
        .cloned()
}

/// The most recent `n` finished traces, newest first.
#[must_use]
pub fn trace_recent(n: usize) -> Vec<Arc<TraceRecord>> {
    let inner = store()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    inner.recent.iter().rev().take(n).cloned().collect()
}

/// Current per-latency-bucket exemplars as `(bucket_floor_ns, record)`,
/// ascending by latency.
#[must_use]
pub fn trace_exemplars() -> Vec<(u64, Arc<TraceRecord>)> {
    let inner = store()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    inner
        .exemplars
        .iter()
        .map(|(&b, r)| (crate::hist::value_of(b), Arc::clone(r)))
        .collect()
}

/// Renders the exemplar list as a JSON array of compact summaries —
/// the fragment the `/slo` endpoint embeds next to burn rates.
#[must_use]
pub fn trace_exemplars_json() -> String {
    let mut out = String::from("[");
    for (i, (floor, r)) in trace_exemplars().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"bucket_floor_ns\":{floor},\"trace_id\":\"{:016x}\",\"total_ns\":{},\"status\":\"{}\"}}",
            r.trace_id, r.total_ns, r.status
        ));
    }
    out.push(']');
    out
}

/// Clears the global trace store (tests and bench windows).
pub fn trace_store_reset() {
    let mut inner = store()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    inner.recent.clear();
    inner.exemplars.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn context_roundtrips_and_ignores_reserved() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0123_4567,
            parent_span: 42,
            flags: TraceContext::FLAG_SAMPLED,
        };
        let mut bytes = ctx.encode();
        assert_eq!(TraceContext::decode(&bytes), Some(ctx));
        bytes[13] = 0xFF; // reserved byte: future revisions may use it
        assert_eq!(TraceContext::decode(&bytes), Some(ctx));
        assert_eq!(TraceContext::decode(&bytes[..15]), None);
        assert!(ctx.is_sampled());
        assert!(!TraceContext::unsampled(1).is_sampled());
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id");
        }
    }

    #[test]
    fn hops_assemble_into_a_containment_tree() {
        let _guard = crate::test_lock();
        trace_store_reset();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let trace = RequestTrace::start_at(TraceContext::sampled(7), t0);
        // Inner hops recorded out of order, nested inside the wait.
        trace.hop("serve_match", at(30), at(40));
        trace.hop("net_decode", at(0), at(10));
        trace.hop("wait", at(20), at(80));
        trace.hop("serve_queue", at(20), at(30));
        trace.hop("submit", at(10), at(20));
        trace.hop("net_write", at(80), at(100));
        let record = trace.finish("ok", at(100));

        assert_eq!(record.total_ns, 100_000_000);
        let top: Vec<_> = record
            .top_level()
            .into_iter()
            .map(|i| record.hops[i].name)
            .collect();
        assert_eq!(top, ["net_decode", "submit", "wait", "net_write"]);
        assert!((record.cover_pct() - 100.0).abs() < 1e-9);

        let json = record.to_json();
        // The inner hops render inside the wait span.
        let wait = json.find("\"wait\"").expect("wait rendered");
        let queue = json.find("serve_queue").expect("queue rendered");
        let write = json.find("net_write").expect("write rendered");
        assert!(wait < queue && queue < write, "nesting order: {json}");
        // Wait self-time excludes its children: 60ms - (10+10)ms.
        assert!(json.contains("\"self_ns\":40000000"), "{json}");
    }

    #[test]
    fn store_keeps_exemplars_per_bucket_and_lookup_by_id() {
        let _guard = crate::test_lock();
        trace_store_reset();
        let t0 = Instant::now();
        for (id, us) in [(1u64, 100u64), (2, 100), (3, 100_000)] {
            let trace = RequestTrace::start_at(TraceContext::sampled(id), t0);
            let _ = trace.finish("ok", t0 + Duration::from_micros(us));
        }
        assert_eq!(trace_lookup(3).expect("found").total_ns, 100_000_000);
        assert!(trace_lookup(99).is_none());
        let ex = trace_exemplars();
        assert_eq!(ex.len(), 2, "two distinct latency buckets");
        // Latest trace wins the shared ~100µs bucket.
        assert_eq!(ex[0].1.trace_id, 2);
        let recent = trace_recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].trace_id, 3, "newest first");
        let json = trace_exemplars_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"bucket_floor_ns\""));
        trace_store_reset();
        assert!(trace_recent(1).is_empty());
    }

    #[test]
    fn recent_ring_is_bounded() {
        let _guard = crate::test_lock();
        trace_store_reset();
        let t0 = Instant::now();
        for id in 0..600u64 {
            let trace = RequestTrace::start_at(TraceContext::sampled(id + 1), t0);
            let _ = trace.finish("ok", t0 + Duration::from_micros(50));
        }
        assert_eq!(trace_recent(usize::MAX).len(), RECENT_CAP);
        assert!(trace_lookup(1).is_none(), "oldest evicted");
        assert!(trace_lookup(600).is_some());
        trace_store_reset();
    }

    #[test]
    fn cover_pct_reports_holes() {
        let _guard = crate::test_lock();
        trace_store_reset();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let trace = RequestTrace::start_at(TraceContext::sampled(11), t0);
        trace.hop("net_decode", at(0), at(40));
        // 60µs hole: nothing recorded between decode and finish.
        let record = trace.finish("ok", at(100));
        assert!(
            (record.cover_pct() - 40.0).abs() < 1.0,
            "{}",
            record.cover_pct()
        );
        trace_store_reset();
    }
}
