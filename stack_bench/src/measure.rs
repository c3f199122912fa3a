//! Windowed measurement with a noise canary.
//!
//! A fixed integer spin runs before and after every window. It never
//! touches the code under test, so it cannot favour one commit over
//! another; it only tells whether the box was quiet. A window whose
//! neighbouring canary ran slower than [`NOISY_FACTOR`] × the fastest
//! canary seen so far is dropped and measured again, within a bounded
//! budget of extra windows so a noisy box costs bounded time.

use crate::report::Record;
use std::time::Instant;

/// SplitMix64 rounds per canary: about 20 ms on the reference box.
const CANARY_ROUNDS: u64 = 4_500_000;

/// A canary this much slower than the run's fastest marks its windows noisy.
const NOISY_FACTOR: f64 = 1.25;

/// One canary spin; returns its wall time in milliseconds.
pub fn canary_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..CANARY_ROUNDS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= z >> 31;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `call` inside the harness span `span` — the spans of the traced
/// run live in the benchmark's own files, around the calls into each layer
/// — and returns its result with the wall time it took, nanoseconds.
pub fn spanned<T>(span: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = {
        let _span = tcam_obs::span::SpanGuard::enter(span);
        call()
    };
    (out, t0.elapsed().as_nanos() as u64)
}

/// Canary bookkeeping for one workload run.
pub struct Quiet {
    pub canary_ms_min: f64,
    pub canary_ms_max: f64,
    pub noisy_windows: u64,
    spin: fn() -> f64,
}

impl Quiet {
    pub fn new() -> Self {
        Self::with_spin(canary_ms)
    }

    /// A `Quiet` whose canary is `spin` (tests script the canary times).
    pub fn with_spin(spin: fn() -> f64) -> Self {
        Self {
            canary_ms_min: f64::INFINITY,
            canary_ms_max: 0.0,
            noisy_windows: 0,
            spin,
        }
    }

    pub fn note(&self, rec: &mut Record) {
        rec.note("canary_ms_min", self.canary_ms_min);
        rec.note("canary_ms_max", self.canary_ms_max);
        rec.note("noisy_windows", self.noisy_windows as f64);
    }

    fn canary(&mut self) -> f64 {
        let ms = (self.spin)();
        self.canary_ms_min = self.canary_ms_min.min(ms);
        self.canary_ms_max = self.canary_ms_max.max(ms);
        ms
    }

    /// Measures `planned` windows with `window`, re-measuring noisy ones
    /// with at most `planned / 4` extra windows. Once that budget is spent
    /// noisy windows are kept (and still counted), so the result always
    /// holds exactly `planned` values.
    pub fn windows(&mut self, planned: usize, mut window: impl FnMut() -> f64) -> Vec<f64> {
        let mut extra = planned / 4;
        let mut kept = Vec::with_capacity(planned);
        let mut before = self.canary();
        while kept.len() < planned {
            let value = window();
            let after = self.canary();
            let noisy = before.max(after) > NOISY_FACTOR * self.canary_ms_min;
            before = after;
            if noisy {
                self.noisy_windows += 1;
                if extra > 0 {
                    extra -= 1;
                    continue;
                }
            }
            kept.push(value);
        }
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        static TICK: Cell<usize> = const { Cell::new(0) };
    }

    /// Canary script: quiet (20 ms) except the 3rd and 4th spins.
    fn scripted() -> f64 {
        let i = TICK.with(|t| t.replace(t.get() + 1));
        if i == 2 || i == 3 {
            31.0
        } else {
            20.0
        }
    }

    #[test]
    fn noisy_windows_are_dropped_and_measured_again() {
        TICK.with(|t| t.set(0));
        let mut quiet = Quiet::with_spin(scripted);
        let mut n = 0.0;
        let values = quiet.windows(8, || {
            n += 1.0;
            n
        });
        // Spins 2 and 3 are slow, so windows 2, 3 and 4 each have a slow
        // neighbour; the budget (8 / 4) re-measures two of them and the
        // third is kept and counted.
        assert_eq!(quiet.noisy_windows, 3);
        assert_eq!(values, vec![1.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((quiet.canary_ms_max - 31.0).abs() < 1e-12);
        assert!((quiet.canary_ms_min - 20.0).abs() < 1e-12);
    }

    #[test]
    fn canary_takes_measurable_time() {
        assert!(canary_ms() > 0.5);
    }
}
