//! Share-nothing parallel mapping over scoped threads.
//!
//! The Monte-Carlo and corner sweeps are embarrassingly parallel: every
//! trial builds its own circuit from a handful of sampled parameters and
//! runs an independent simulation. [`parallel_map`] fans such work out over
//! `std::thread::scope` — no external thread-pool dependency, no shared
//! mutable state, and results come back in input order so parallel runs are
//! bit-identical to serial ones.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Number of worker threads to use for `n_items` independent tasks:
/// the available parallelism, capped by the item count.
#[must_use]
fn worker_count(n_items: usize) -> usize {
    let cores = thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(n_items).max(1)
}

/// Maps `f` over `items` on a scoped-thread work pool and returns results
/// in input order.
///
/// Work is handed out one item at a time through a shared atomic cursor
/// (self-scheduling): a worker that draws a cheap trial immediately claims
/// the next one, so heterogeneous costs — a recovery-ladder rescue taking
/// 10×+ a clean trial — no longer idle the rest of the pool the way static
/// contiguous chunking did. Each item and result lives in its own slot,
/// claimed by exactly one worker, so results land in input order and the
/// output stays bit-identical to the serial map regardless of scheduling.
/// With one item (or one core) the map runs inline on the calling thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Per-slot mutexes are locked exactly once per slot by the single
    // worker that wins the cursor race for that index — uncontended in
    // practice, and they keep the claim/write protocol entirely safe.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    {
        let (slots, results, cursor, f) = (&slots, &results, &cursor, &f);
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("item slot lock")
                        .take()
                        .expect("each slot claimed exactly once");
                    let out = f(item);
                    *results[i].lock().expect("result slot lock") = Some(out);
                });
            }
        });
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker did not panic")
                .expect("every claimed slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(items, |i| i * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, |x| x).is_empty());
        assert_eq!(parallel_map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&i| i * i + 1).collect();
        let parallel = parallel_map(items, |i| i * i + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_count_is_bounded() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(10_000) >= 1);
    }

    /// Heterogeneous trial costs (the first few items 100×+ the rest,
    /// mimicking recovery-ladder rescues landing in one contiguous chunk)
    /// must still produce bit-identical, in-order output. Under the old
    /// static chunking this shape parked all the expensive work on one
    /// worker; self-scheduling spreads it but must not reorder results.
    #[test]
    fn skewed_costs_stay_in_order_and_bit_identical() {
        fn cost(i: usize) -> u64 {
            if i < 4 {
                200_000
            } else {
                50
            }
        }
        fn burn(i: usize) -> f64 {
            let mut acc = i as f64;
            for k in 0..cost(i) {
                acc = (acc + k as f64).sin().mul_add(0.5, acc * 0.999);
            }
            acc
        }
        let items: Vec<usize> = (0..64).collect();
        let serial: Vec<f64> = items.iter().map(|&i| burn(i)).collect();
        let parallel = parallel_map(items, burn);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(s.to_bits(), p.to_bits(), "slot {i} differs");
        }
    }

    #[test]
    fn every_item_claimed_exactly_once() {
        use std::sync::atomic::AtomicUsize as Counter;
        let calls = Counter::new(0);
        let items: Vec<usize> = (0..503).collect();
        let out = parallel_map(items, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 503);
        assert_eq!(out, (0..503).collect::<Vec<_>>());
    }

    #[test]
    fn results_can_be_fallible() {
        let out = parallel_map(vec![1i32, -2, 3], |i| {
            if i > 0 {
                Ok(i)
            } else {
                Err("negative")
            }
        });
        assert_eq!(out, vec![Ok(1), Err("negative"), Ok(3)]);
    }
}
