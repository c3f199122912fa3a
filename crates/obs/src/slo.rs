//! The SLO engine: rolling multi-window latency-objective and
//! error-budget burn-rate tracking for the wire plane's one SLO.
//!
//! The SLO is [`NAME`]: "fraction [`TARGET`] of requests finish OK
//! within [`OBJECTIVE_NS`]". Every request is scored **good** (OK and
//! within the objective) or **bad** at record time into a 64-slot
//! one-second-per-slot ring, so the three reporting windows (1 s,
//! 10 s, 60 s) are pure sums over recent slots — no per-request
//! allocation, no timestamps stored. The **burn rate** per window is
//! `bad_fraction / (1 - target)`: 1.0 means the error budget is being
//! consumed exactly as fast as the SLO allows, 10× means the budget
//! for the whole compliance period burns in a tenth of it — the
//! standard multi-window multi-burn-rate alerting quantity, with the
//! short window confirming the long one so a stale burst can't page.
//!
//! The engine keeps its own global state instead of riding the
//! metrics registry: registry buffers are thread-local and only merge
//! on [`crate::registry::flush`], which long-lived connection threads
//! may never call — an SLO that updates only when a thread exits
//! would always read stale. Recording here is one mutex lock on a
//! small ring; callers record once per *request*, not per key, so the
//! lock is far off the per-key hot path.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Slots in the ring; also the longest expressible window in seconds
/// (the 60 s reporting window plus slack for slot reuse).
const SLOTS: usize = 64;

/// The reporting windows, seconds. Multi-window so a short burst and a
/// sustained burn are distinguishable.
pub const SLO_WINDOWS_SECS: [u64; 3] = [1, 10, 60];

/// The SLO's name in every export (`/slo`, `slo_<name>_*` flat keys,
/// `slo="<name>"` series).
pub const NAME: &str = "net_request";

/// Latency objective: a request is good when it finishes OK within
/// this many nanoseconds (1 ms).
pub const OBJECTIVE_NS: u64 = 1_000_000;

/// Target good fraction (three nines).
pub const TARGET: f64 = 0.999;

#[derive(Debug, Clone, Copy)]
struct Slot {
    tick: u64,
    total: u64,
    good: u64,
    errors: u64,
}

const EMPTY: Slot = Slot {
    tick: 0,
    total: 0,
    good: 0,
    errors: 0,
};

#[derive(Debug)]
struct Tracker {
    slots: [Slot; SLOTS],
}

impl Tracker {
    const fn new() -> Self {
        Self {
            slots: [EMPTY; SLOTS],
        }
    }

    fn record(&mut self, tick: u64, latency_ns: u64, ok: bool) {
        let slot = &mut self.slots[usize::try_from(tick).unwrap_or(0) % SLOTS];
        if slot.tick != tick {
            *slot = Slot { tick, ..EMPTY };
        }
        slot.total += 1;
        if ok && latency_ns <= OBJECTIVE_NS {
            slot.good += 1;
        }
        if !ok {
            slot.errors += 1;
        }
    }

    fn window(&self, now_tick: u64, secs: u64) -> SloWindow {
        let oldest = now_tick.saturating_sub(secs - 1);
        let (mut total, mut good, mut errors) = (0u64, 0u64, 0u64);
        for slot in &self.slots {
            if slot.tick >= oldest && slot.tick <= now_tick && slot.total > 0 {
                total += slot.total;
                good += slot.good;
                errors += slot.errors;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let bad_fraction = if total == 0 {
            0.0
        } else {
            (total - good) as f64 / total as f64
        };
        SloWindow {
            secs,
            total,
            good,
            errors,
            bad_fraction,
            burn_rate: bad_fraction / (1.0 - TARGET),
        }
    }
}

/// One reporting window's rollup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloWindow {
    /// Window length in seconds.
    pub secs: u64,
    /// Requests recorded in the window.
    pub total: u64,
    /// Requests that were OK and within the objective.
    pub good: u64,
    /// Requests that failed outright (regardless of latency).
    pub errors: u64,
    /// `1 - good/total` (0 when the window is empty).
    pub bad_fraction: f64,
    /// `bad_fraction / (1 - target)`; 1.0 = burning budget exactly at
    /// the allowed rate.
    pub burn_rate: f64,
}

static ENGINE: Mutex<Tracker> = Mutex::new(Tracker::new());

fn engine() -> std::sync::MutexGuard<'static, Tracker> {
    ENGINE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_tick() -> u64 {
    epoch().elapsed().as_secs()
}

/// Records one finished request against the SLO.
pub fn slo_record(latency_ns: u64, ok: bool) {
    let tick = now_tick();
    engine().record(tick, latency_ns, ok);
}

/// The SLO's current rollup, one window per entry of
/// [`SLO_WINDOWS_SECS`].
#[must_use]
pub fn slo_report() -> [SloWindow; SLO_WINDOWS_SECS.len()] {
    let tick = now_tick();
    let tracker = engine();
    SLO_WINDOWS_SECS.map(|secs| tracker.window(tick, secs))
}

/// Renders the SLO as a one-element JSON array (the `"slo"` value of
/// the `/slo` admin endpoint; nested, snake_case keys).
#[must_use]
pub fn slo_json_array() -> String {
    let windows = slo_report()
        .iter()
        .map(|w| {
            format!(
                "{{\"secs\":{},\"total\":{},\"good\":{},\"errors\":{},\"bad_fraction\":{:.6},\"burn_rate\":{:.4}}}",
                w.secs, w.total, w.good, w.errors, w.bad_fraction, w.burn_rate
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "[{{\"name\":\"{NAME}\",\"objective_ns\":{OBJECTIVE_NS},\"target\":{TARGET},\"windows\":[{windows}]}}]"
    )
}

/// Renders the SLO as flat-JSON fields
/// (`"slo_<name>_<secs>s_<field>":v` fragments, no braces) for the
/// `/stats` endpoint and bench records.
#[must_use]
pub fn slo_flat_fragment() -> String {
    let mut parts = Vec::new();
    for w in &slo_report() {
        let p = format!("slo_{NAME}_{}s", w.secs);
        parts.push(format!("\"{p}_total\":{}", w.total));
        parts.push(format!("\"{p}_good\":{}", w.good));
        parts.push(format!("\"{p}_errors\":{}", w.errors));
        parts.push(format!("\"{p}_bad_fraction\":{:.6}", w.bad_fraction));
        parts.push(format!("\"{p}_burn_rate\":{:.4}", w.burn_rate));
    }
    parts.join(",")
}

/// Appends the SLO families to a Prometheus text exposition, one
/// `# HELP`/`# TYPE` pair per family and `slo`/`window` labels per
/// series (no escaping needed: every label value is a constant
/// snake_case name or a digit string).
pub fn slo_prometheus(out: &mut String) {
    let windows = slo_report();
    type WindowValue = fn(&SloWindow) -> f64;
    let families: [(&str, &str, WindowValue); 4] = [
        ("slo_requests_total", "Requests scored in the window", |w| {
            #[allow(clippy::cast_precision_loss)]
            let v = w.total as f64;
            v
        }),
        (
            "slo_errors_total",
            "Requests that failed in the window",
            |w| {
                #[allow(clippy::cast_precision_loss)]
                let v = w.errors as f64;
                v
            },
        ),
        (
            "slo_bad_fraction",
            "Share of requests missing the objective in the window",
            |w| w.bad_fraction,
        ),
        (
            "slo_burn_rate",
            "Error-budget burn rate in the window (1.0 = at budget)",
            |w| w.burn_rate,
        ),
    ];
    for (family, help, value) in families {
        out.push_str(&format!("# HELP {family} {help}\n"));
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for w in &windows {
            out.push_str(&format!(
                "{family}{{slo=\"{NAME}\",window=\"{}s\"}} {}\n",
                w.secs,
                value(w)
            ));
        }
    }
}

/// Empties every window (tests and bench windows).
pub fn slo_reset() {
    *engine() = Tracker::new();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn good_bad_and_burn_rate_accounting() {
        let _guard = crate::test_lock();
        slo_reset();
        // 8 good, 1 slow, 1 failed -> bad_fraction 0.2, burn rate
        // 0.2 / (1 - TARGET).
        for _ in 0..8 {
            slo_record(OBJECTIVE_NS / 2, true);
        }
        slo_record(2 * OBJECTIVE_NS, true);
        slo_record(OBJECTIVE_NS / 2, false);
        let report = slo_report();
        // Assert on the >= 10 s windows only: recording can straddle a
        // one-second tick boundary, which legitimately splits the burst
        // out of the 1 s window.
        for w in report.iter().filter(|w| w.secs >= 10) {
            assert_eq!(w.total, 10, "window {}s", w.secs);
            assert_eq!(w.good, 8);
            assert_eq!(w.errors, 1);
            assert!((w.bad_fraction - 0.2).abs() < 1e-9);
            assert!((w.burn_rate - 0.2 / (1.0 - TARGET)).abs() < 1e-9);
        }
        slo_reset();
    }

    #[test]
    fn stale_slots_age_out_of_short_windows() {
        let mut t = Tracker::new();
        // A burst at tick 5 is visible at tick 5 in every window, gone
        // from the 1s window by tick 7, and gone from the 10s window by
        // tick 20.
        for _ in 0..4 {
            t.record(5, 100, true);
        }
        assert_eq!(t.window(5, 1).total, 4);
        assert_eq!(t.window(7, 1).total, 0);
        assert_eq!(t.window(7, 10).total, 4);
        assert_eq!(t.window(20, 10).total, 0);
        assert_eq!(t.window(20, 60).total, 4);
        // Slot reuse: tick 5+64 lands in slot 5 and resets it.
        t.record(5 + SLOTS as u64, 100, true);
        assert_eq!(t.window(5 + SLOTS as u64, 60).total, 1);
    }

    #[test]
    fn renderers_emit_snake_case_families() {
        let _guard = crate::test_lock();
        slo_reset();
        slo_record(100, true);
        let json = slo_json_array();
        assert!(json.contains("\"name\":\"net_request\""));
        assert!(
            json.contains("\"objective_ns\":1000000,\"target\":0.999"),
            "{json}"
        );
        assert!(json.contains("\"burn_rate\""));
        let flat = slo_flat_fragment();
        assert!(flat.contains("\"slo_net_request_10s_total\":"));
        let mut prom = String::new();
        slo_prometheus(&mut prom);
        assert!(prom.contains("# HELP slo_burn_rate "));
        assert!(prom.contains("# TYPE slo_requests_total gauge"));
        // The 60 s window is immune to a one-second tick straddle
        // between record and report.
        assert!(prom.contains("slo_requests_total{slo=\"net_request\",window=\"60s\"} 1"));
        slo_reset();
    }

    #[test]
    fn empty_window_is_zero_not_nan() {
        let _guard = crate::test_lock();
        slo_reset();
        for w in &slo_report() {
            assert_eq!(w.total, 0);
            assert!(w.bad_fraction == 0.0 && w.burn_rate == 0.0);
        }
    }
}
