//! The fault flight recorder: an always-on bounded ring of recent
//! structured events per thread, snapshotted into a self-describing
//! JSON dump when something goes wrong.
//!
//! Counters tell you *that* the WAL rolled back or a sweep trial failed
//! to converge; they cannot tell you what the process was doing in the
//! milliseconds before. The flight recorder fills that gap the way an
//! aircraft black box does: every thread that calls
//! [`flight_record`] gets its own fixed-capacity ring of
//! `(timestamp, kind, a, b)` events that silently overwrites its
//! oldest entry — recording never blocks on another thread, never
//! allocates after warm-up, and never grows. A **trigger** (WAL
//! rollback/poison, `NonConvergence`, a panic, or an explicit admin
//! request) calls [`flight_dump`], which
//! freezes every ring into one JSON artifact naming the trigger cause.
//!
//! Unlike the metrics registry, the recorder is **not** gated on
//! [`crate::registry::enabled`]: a black box that was switched off
//! during the crash is useless. The per-event cost is one
//! thread-local hit plus one uncontended mutex lock (the lock only
//! ever contends with a dump in flight).
//!
//! The dump is plain nested JSON with snake_case keys:
//!
//! ```json
//! {"cause":"wal_rollback","detail":"...","seq":1,"uptime_ns":...,
//!  "threads":[{"thread":"worker-0","dropped":0,
//!              "events":[{"ts_ns":...,"kind":"wal_fsync","a":...,"b":...}]}]}
//! ```

use crate::export::json_escape;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread before the ring overwrites itself.
const RING_CAP: usize = 128;
/// Registered rings retained before dead ones (threads that exited)
/// are evicted.
const MAX_RINGS: usize = 256;

/// One recorded event: a monotonic timestamp, a static kind tag, and
/// two free-form operands whose meaning the kind defines (bytes and
/// nanoseconds for `wal_fsync`, rung code and rejected-step count for
/// `rung_engaged`…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the recorder's first use in this process.
    pub ts_ns: u64,
    /// Static snake_case event tag.
    pub kind: &'static str,
    /// First operand (kind-defined).
    pub a: u64,
    /// Second operand (kind-defined).
    pub b: u64,
}

struct Ring {
    label: String,
    events: Vec<FlightEvent>,
    next: usize,
    total: u64,
}

impl Ring {
    /// Events in recording order (oldest first).
    fn ordered(&self) -> Vec<FlightEvent> {
        if self.events.len() < RING_CAP {
            self.events.clone()
        } else {
            let mut out = Vec::with_capacity(RING_CAP);
            out.extend_from_slice(&self.events[self.next..]);
            out.extend_from_slice(&self.events[..self.next]);
            out
        }
    }
}

type SharedRing = Arc<Mutex<Ring>>;

fn registry() -> &'static Mutex<Vec<SharedRing>> {
    static RINGS: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL_RING: RefCell<Option<SharedRing>> = const { RefCell::new(None) };
}

fn local_ring() -> SharedRing {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(ring) = slot.as_ref() {
            return Arc::clone(ring);
        }
        let label = std::thread::current()
            .name()
            .map_or_else(|| "unnamed".to_string(), str::to_string);
        let ring = Arc::new(Mutex::new(Ring {
            label,
            events: Vec::with_capacity(RING_CAP),
            next: 0,
            total: 0,
        }));
        let mut rings = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if rings.len() >= MAX_RINGS {
            // Evict rings whose thread has exited (only the registry
            // still holds them); live threads keep theirs.
            rings.retain(|r| Arc::strong_count(r) > 1);
        }
        rings.push(Arc::clone(&ring));
        *slot = Some(Arc::clone(&ring));
        ring
    })
}

/// Records one event into the calling thread's ring. Always on; never
/// blocks on other recording threads; O(1) after the ring is warm.
pub fn flight_record(kind: &'static str, a: u64, b: u64) {
    let ts_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let ring = local_ring();
    let mut ring = ring
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let event = FlightEvent { ts_ns, kind, a, b };
    if ring.events.len() < RING_CAP {
        ring.events.push(event);
    } else {
        let next = ring.next;
        ring.events[next] = event;
        ring.next = (next + 1) % RING_CAP;
    }
    ring.total += 1;
}

struct DumpSlot {
    cause: String,
    json: String,
}

fn last_dump_slot() -> &'static Mutex<Option<DumpSlot>> {
    static LAST: OnceLock<Mutex<Option<DumpSlot>>> = OnceLock::new();
    LAST.get_or_init(|| Mutex::new(None))
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Snapshots every registered ring into one JSON dump naming the
/// trigger `cause` (snake_case, e.g. `wal_rollback`), stores it as the
/// last dump (readable via [`flight_last_dump`] and the `/flightrec`
/// admin endpoint), and returns it.
pub fn flight_dump(cause: &str, detail: &str) -> String {
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let uptime_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"cause\":\"{}\",\"detail\":\"{}\",\"seq\":{seq},\"uptime_ns\":{uptime_ns},\"threads\":[",
        json_escape(cause),
        json_escape(detail)
    ));
    let rings: Vec<SharedRing> = {
        let rings = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rings.clone()
    };
    let mut first = true;
    for ring in &rings {
        let ring = ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.total == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let dropped = ring.total.saturating_sub(ring.events.len() as u64);
        out.push_str(&format!(
            "{{\"thread\":\"{}\",\"dropped\":{dropped},\"events\":[",
            json_escape(&ring.label)
        ));
        for (i, e) in ring.ordered().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ts_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.ts_ns, e.kind, e.a, e.b
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    let mut slot = last_dump_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Some(DumpSlot {
        cause: cause.to_string(),
        json: out.clone(),
    });
    out
}

/// The most recent dump as `(cause, json)`, if any trigger has fired.
#[must_use]
pub fn flight_last_dump() -> Option<(String, String)> {
    let slot = last_dump_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    slot.as_ref().map(|d| (d.cause.clone(), d.json.clone()))
}

/// Number of dumps taken since process start.
#[must_use]
pub fn flight_dump_count() -> u64 {
    DUMP_SEQ.load(Ordering::Relaxed)
}

/// Installs a panic hook (once) that takes a flight dump with cause
/// `panic` and writes it to stderr before delegating to the previous
/// hook — so even an uncaught panic leaves the black-box artifact.
pub fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let detail = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_string());
            let dump = flight_dump("panic", &detail);
            eprintln!("flight recorder dump (panic): {dump}");
            prev(info);
        }));
    });
}

/// Clears every ring and the last dump (tests and bench windows). The
/// dump sequence number keeps counting — it identifies dumps across a
/// process lifetime.
pub fn flight_reset() {
    let rings = {
        let rings = registry()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rings.clone()
    };
    for ring in rings {
        let mut ring = ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.events.clear();
        ring.next = 0;
        ring.total = 0;
    }
    let mut slot = last_dump_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events_in_order() {
        let _guard = crate::test_lock();
        flight_reset();
        for i in 0..(RING_CAP as u64 + 10) {
            flight_record("tick", i, 0);
        }
        let dump = flight_dump("admin_request", "ring order test");
        // The dump must contain the newest event and have evicted the
        // oldest ten.
        assert!(dump.contains(&format!("\"a\":{}", RING_CAP as u64 + 9)));
        assert!(!dump.contains("\"a\":3,"), "evicted event resurfaced");
        assert!(dump.contains("\"dropped\":10"));
        // Events appear oldest-first.
        let i10 = dump.find("\"a\":10,").expect("oldest retained");
        let i11 = dump.find("\"a\":11,").expect("next retained");
        assert!(i10 < i11);
        flight_reset();
    }

    #[test]
    fn dump_names_cause_and_escapes_detail() {
        let _guard = crate::test_lock();
        flight_reset();
        flight_record("wal_fsync", 512, 900);
        let dump = flight_dump("wal_rollback", "fsync failed: \"disk\\gone\"\n");
        assert!(dump.contains("\"cause\":\"wal_rollback\""));
        assert!(dump.contains("\\\"disk\\\\gone\\\"\\n"));
        assert!(dump.contains("\"kind\":\"wal_fsync\""));
        let (cause, json) = flight_last_dump().expect("dump stored");
        assert_eq!(cause, "wal_rollback");
        assert_eq!(json, dump);
        assert!(flight_dump_count() >= 1);
        flight_reset();
        assert!(flight_last_dump().is_none());
    }

    #[test]
    fn threads_record_into_separate_rings() {
        let _guard = crate::test_lock();
        flight_reset();
        flight_record("main_event", 1, 0);
        std::thread::Builder::new()
            .name("flight-worker".into())
            .spawn(|| flight_record("worker_event", 2, 0))
            .expect("spawns")
            .join()
            .expect("joins");
        let dump = flight_dump("admin_request", "");
        assert!(dump.contains("\"kind\":\"main_event\""));
        assert!(dump.contains("\"kind\":\"worker_event\""));
        assert!(dump.contains("\"thread\":\"flight-worker\""));
        flight_reset();
    }

    #[test]
    fn recording_is_always_on_even_when_metrics_are_disabled() {
        let _guard = crate::test_lock();
        flight_reset();
        let was = crate::registry::enabled();
        crate::registry::set_enabled(false);
        flight_record("while_disabled", 7, 7);
        crate::registry::set_enabled(was);
        let dump = flight_dump("admin_request", "");
        assert!(dump.contains("\"kind\":\"while_disabled\""));
        flight_reset();
    }
}
