//! Span tracing: a thread-local span stack and RAII guards.
//!
//! A span measures one phase of work. Opening is a push onto this
//! thread's stack; closing (guard drop) pops it, computes the duration,
//! and accounts **self-time** — the span's duration minus the time spent
//! in child spans — to the span's phase in the registry. Self-times of
//! live spans therefore partition wall time: summing every phase never
//! double-counts nesting, which is what lets a test check that the phase
//! breakdown covers ≥ 90 % of measured wall time.
//!
//! ```
//! # use tcam_obs::span;
//! {
//!     let _step = span!("step");
//!     {
//!         let _lu = span!("lu_factorize");
//!         // ... factorize ...
//!     } // accounts its duration to phase "lu_factorize"
//! } // accounts (step duration - lu duration) to phase "step"
//! ```
//!
//! The phase totals carry the accounting; recent history is the flight
//! recorder's job ([`crate::flight`]).
//!
//! # Cost
//!
//! Enter + drop is two `Instant` reads, a `Vec` push/pop, and one
//! thread-local map update — tens of nanoseconds, no atomics, no locks.
//! Disabled ([`crate::registry::set_enabled`]) it is one relaxed atomic
//! load.

use crate::registry::{enabled, phase_add};
use std::cell::RefCell;
use std::time::Instant;

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static SPANS: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span; created by [`SpanGuard::enter`] (usually via
/// the [`span!`](crate::span!) macro). Dropping it closes the span.
#[must_use = "a span guard measures until dropped; binding it to _ closes it immediately"]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// Opens a span named `name` on this thread. When observability is
    /// disabled the guard is inert.
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !enabled() {
            return Self { active: false };
        }
        let active = SPANS
            .try_with(|spans| {
                spans.borrow_mut().push(Frame {
                    name,
                    start: Instant::now(),
                    child_ns: 0,
                });
            })
            .is_ok();
        Self { active }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let _ = SPANS.try_with(|spans| {
            let mut stack = spans.borrow_mut();
            // Guards are strictly nested by construction (RAII on one
            // thread), so the top of the stack is this guard's frame —
            // unless a disable raced in between enter and drop and a
            // nested enter returned inert; popping is still correct
            // because inert guards never pushed.
            let Some(frame) = stack.pop() else {
                return;
            };
            let dur_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = dur_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur_ns;
            }
            drop(stack);
            phase_add(frame.name, self_ns);
        });
    }
}

/// Opens a span measuring until the returned guard drops:
/// `let _g = span!("lu_factorize");`. Always bind the guard — the bare
/// statement form drops it immediately (and trips the `must_use` lint).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use crate::registry::{phase_mark, phases_since};
    use std::time::Duration;

    fn phase_ns(name: &str, deltas: &[(&'static str, crate::registry::PhaseStat)]) -> u64 {
        deltas
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.ns)
            .unwrap_or(0)
    }

    #[test]
    fn nested_spans_account_self_time() {
        let _g = crate::test_lock();
        let mark = phase_mark();
        {
            let _outer = span!("test_span_outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = span!("test_span_inner");
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let deltas = phases_since(&mark);
        let outer = phase_ns("test_span_outer", &deltas);
        let inner = phase_ns("test_span_inner", &deltas);
        assert!(inner >= 3_000_000, "inner self-time {inner}ns too small");
        assert!(outer >= 3_000_000, "outer self-time {outer}ns too small");
        // Self-time excludes the child: outer slept ~4ms itself while the
        // whole block took ~8ms. Allow generous scheduler slack.
        assert!(
            outer < 7_000_000,
            "outer self-time {outer}ns includes child time"
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_lock();
        let mark = phase_mark();
        crate::registry::set_enabled(false);
        {
            let _s = span!("test_span_off");
        }
        crate::registry::set_enabled(true);
        assert_eq!(phase_ns("test_span_off", &phases_since(&mark)), 0);
    }
}
