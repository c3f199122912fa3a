//! Global metrics registry: named counters, gauges, and histograms with
//! thread-local unsynchronized recording buffers.
//!
//! # Hot path
//!
//! Every recording call (`counter_add`, `gauge_set`, `hist_record`,
//! `phase_add`) touches only this thread's buffer — no atomics, no locks,
//! no allocation after the first use of a key. The one shared thing a
//! recording call reads is the global [`enabled`] flag (a single relaxed
//! atomic load); when it is off, every entry point returns immediately.
//! Buffers merge into the global state on [`flush`] — call it at natural
//! boundaries (a thread at exit, a bench after a run) — and [`snapshot`]
//! flushes the calling thread before reading.
//!
//! # Keys
//!
//! A metric is its name: a `&'static str` in the unified `snake_case`
//! scheme (see DESIGN.md §10), one series per name in every exporter.
//!
//! Gauges are last-write-wins: two threads setting the same gauge race
//! on flush order, so a gauge has one writer.

use crate::hist::LatencyHistogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// A metric key: its static name.
pub type Key = &'static str;

/// Accumulated self-time of one span name on one or more threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total self-time (time inside the span minus time inside child
    /// spans), in nanoseconds.
    pub ns: u64,
    /// Number of times the span closed.
    pub count: u64,
}

impl PhaseStat {
    pub(crate) fn add(&mut self, other: PhaseStat) {
        self.ns += other.ns;
        self.count += other.count;
    }
}

#[derive(Default)]
struct Buffers {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, LatencyHistogram>,
    /// Small linear table, not a map: [`phase_add`] runs on every span
    /// close, a handful of distinct names per thread, and the `&'static`
    /// names let a pointer compare hit before any string compare.
    phases: Vec<(&'static str, PhaseStat)>,
}

/// Finds `name` in a phase table, pointer-compare first (static span
/// names are usually the same literal, so this is one comparison).
fn phase_slot<'a>(
    phases: &'a mut Vec<(&'static str, PhaseStat)>,
    name: &'static str,
) -> &'a mut PhaseStat {
    let idx = phases
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        .unwrap_or_else(|| {
            phases.push((name, PhaseStat::default()));
            phases.len() - 1
        });
    &mut phases[idx].1
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Every flushed thread's buffers, merged.
fn global() -> &'static Mutex<Buffers> {
    static GLOBAL: OnceLock<Mutex<Buffers>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Buffers::default()))
}

thread_local! {
    static LOCAL: RefCell<Buffers> = RefCell::new(Buffers::default());
}

/// Whether recording is on. One relaxed load; the hot-path gate.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off globally. Off makes every recording entry
/// point (registry and spans) return after one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
fn with_local<R>(f: impl FnOnce(&mut Buffers) -> R) -> Option<R> {
    LOCAL.try_with(|local| f(&mut local.borrow_mut())).ok()
}

/// Adds `delta` to the named counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_local(|buf| *buf.counters.entry(name).or_insert(0) += delta);
}

/// Sets the named gauge (last flush wins across threads).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|buf| {
        buf.gauges.insert(name, value);
    });
}

/// Records `v` (nanoseconds by convention) into the named histogram.
#[inline]
pub fn hist_record(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with_local(|buf| buf.hists.entry(name).or_default().record(v));
}

/// Merges an already-built histogram into the named slot — the path for
/// components (e.g. a serving table) that keep their own histogram and
/// publish it wholesale rather than per-value.
pub fn hist_merge(name: &'static str, hist: &LatencyHistogram) {
    if !enabled() {
        return;
    }
    with_local(|buf| buf.hists.entry(name).or_default().merge(hist));
}

/// Adds one closed span's self-time to the named phase. Normally called
/// by the span machinery, not directly.
#[inline]
pub(crate) fn phase_add(name: &'static str, self_ns: u64) {
    with_local(|buf| {
        let stat = phase_slot(&mut buf.phases, name);
        stat.ns += self_ns;
        stat.count += 1;
    });
}

/// A point-in-time copy of this thread's phase totals; see
/// [`phases_since`].
#[derive(Debug, Clone, Default)]
pub struct PhaseMark(Vec<(&'static str, PhaseStat)>);

/// Captures this thread's current (unflushed) phase totals.
#[must_use]
pub fn phase_mark() -> PhaseMark {
    with_local(|buf| PhaseMark(buf.phases.clone())).unwrap_or_default()
}

/// Phase deltas on this thread since `mark` — how a single run (one
/// transient, one request) attributes its own wall time without touching
/// the global state. Phases with no new time are omitted.
#[must_use]
pub fn phases_since(mark: &PhaseMark) -> Vec<(&'static str, PhaseStat)> {
    with_local(|buf| {
        buf.phases
            .iter()
            .filter_map(|&(name, stat)| {
                let prev = mark
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| *s)
                    .unwrap_or_default();
                let delta = PhaseStat {
                    ns: stat.ns.saturating_sub(prev.ns),
                    count: stat.count.saturating_sub(prev.count),
                };
                (delta.count > 0 || delta.ns > 0).then_some((name, delta))
            })
            .collect()
    })
    .unwrap_or_default()
}

/// Merges this thread's buffers into the global state.
pub fn flush() {
    let Ok(buf) = LOCAL.try_with(|local| std::mem::take(&mut *local.borrow_mut())) else {
        return;
    };
    let mut merged = global().lock().unwrap();
    for (key, v) in buf.counters {
        *merged.counters.entry(key).or_insert(0) += v;
    }
    for (key, v) in buf.gauges {
        merged.gauges.insert(key, v);
    }
    for (key, h) in buf.hists {
        merged.hists.entry(key).or_default().merge(&h);
    }
    for (name, stat) in buf.phases {
        phase_slot(&mut merged.phases, name).add(stat);
    }
}

/// A point-in-time copy of the merged global state.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counters, sorted by key.
    pub counters: Vec<(Key, u64)>,
    /// Last-set gauges, sorted by key.
    pub gauges: Vec<(Key, f64)>,
    /// Merged histograms, sorted by key.
    pub hists: Vec<(Key, LatencyHistogram)>,
    /// Span self-time totals, sorted by name.
    pub phases: Vec<(&'static str, PhaseStat)>,
}

impl Snapshot {
    /// The named counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).copied().unwrap_or(0)
    }

    /// The named gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lookup(&self.gauges, name).copied()
    }

    /// The named histogram, if recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<LatencyHistogram> {
        lookup(&self.hists, name).cloned()
    }

    /// The named phase's accumulated self-time.
    #[must_use]
    pub fn phase(&self, name: &str) -> PhaseStat {
        lookup(&self.phases, name).copied().unwrap_or_default()
    }
}

fn lookup<'a, T>(entries: &'a [(Key, T)], name: &str) -> Option<&'a T> {
    entries.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
}

/// Flushes the calling thread, then copies the merged global state.
/// Other threads' unflushed buffers are not included — flush them first
/// (a serving pool's refresh clock flushes when it exits).
#[must_use]
pub fn snapshot() -> Snapshot {
    flush();
    let merged = global().lock().unwrap();
    Snapshot {
        counters: merged.counters.iter().map(|(&k, &v)| (k, v)).collect(),
        gauges: merged.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
        hists: merged.hists.iter().map(|(&k, h)| (k, h.clone())).collect(),
        phases: {
            let mut phases = merged.phases.clone();
            phases.sort_unstable_by_key(|&(n, _)| n);
            phases
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is global state: tests share it, so each test uses its
    // own key names. Tests in this module run under cargo's default
    // parallelism, so cross-test interference on *different* keys is
    // harmless by construction.

    #[test]
    fn counters_accumulate_across_flushes() {
        let _g = crate::test_lock();
        counter_add("test_reg_hits", 2);
        flush();
        counter_add("test_reg_hits", 3);
        let snap = snapshot();
        assert_eq!(snap.counter("test_reg_hits"), 5);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let _g = crate::test_lock();
        gauge_set("test_reg_depth", 4.0);
        flush();
        gauge_set("test_reg_depth", 9.0);
        let snap = snapshot();
        assert_eq!(snap.gauge("test_reg_depth"), Some(9.0));
    }

    #[test]
    fn histograms_merge_across_threads() {
        let _g = crate::test_lock();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        hist_record("test_reg_lat", t * 1000 + i);
                    }
                    flush();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = snapshot();
        let h = snap.hist("test_reg_lat").expect("histogram present");
        assert_eq!(h.count(), 400);
        assert_eq!(h.max(), 3099);
    }

    #[test]
    fn disabled_recording_is_dropped() {
        let _g = crate::test_lock();
        set_enabled(false);
        counter_add("test_reg_off", 1);
        hist_record("test_reg_off_h", 5);
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter("test_reg_off"), 0);
        assert!(snap.hist("test_reg_off_h").is_none());
    }

    #[test]
    fn phases_since_reports_thread_local_deltas() {
        let _g = crate::test_lock();
        let mark = phase_mark();
        phase_add("test_reg_phase", 100);
        phase_add("test_reg_phase", 50);
        let deltas = phases_since(&mark);
        let stat = deltas
            .iter()
            .find(|(n, _)| *n == "test_reg_phase")
            .map(|(_, s)| *s)
            .expect("phase delta present");
        assert_eq!(stat, PhaseStat { ns: 150, count: 2 });
        // A second mark sees nothing new.
        let mark2 = phase_mark();
        assert!(phases_since(&mark2)
            .iter()
            .all(|(n, _)| *n != "test_reg_phase"));
        flush();
    }
}
