//! Deterministic open-loop load generator for the lookup service.
//!
//! [`open_loop`] offers keys on a fixed schedule (or flat-out when `rate`
//! is 0) regardless of how fast the service drains them, the shape that
//! exposes queueing delay: if a refresh event stalls a shard, the offered
//! keys pile up and the latency histogram records the damage. Keys are
//! pre-routed and pre-packed so generation is one RNG draw + one copy per
//! key.
//!
//! Every random choice derives from the caller's seed through one
//! [`SplitMix64`], so identical seeds offer identical key sequences.

use crate::error::Result;
use crate::service::{SearchBatch, TcamService};
use std::time::{Duration, Instant};
use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_numeric::rng::SplitMix64;

/// Open-loop generator settings.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Keys per submitted batch.
    pub batch: usize,
    /// Offered load in lookups/second; `0.0` = saturation (submit as fast
    /// as backpressure allows).
    pub rate: f64,
    /// How long to keep offering load.
    pub duration: Duration,
}

impl Default for OpenLoop {
    fn default() -> Self {
        Self {
            batch: 256,
            rate: 0.0,
            duration: Duration::from_millis(200),
        }
    }
}

/// Routes and packs a key pool once, so the offering loop never touches
/// ternary vectors.
///
/// # Errors
///
/// Propagates routing errors (short or ambiguous keys).
fn prepare(service: &TcamService, keys: &[Vec<TernaryBit>]) -> Result<Vec<(usize, PackedWord)>> {
    keys.iter()
        .map(|k| {
            if k.len() != service.rules().width() {
                return Err(crate::error::ServeError::WidthMismatch {
                    expected: service.rules().width(),
                    found: k.len(),
                });
            }
            // Pack once; routing is a shift/mask on the packed limbs.
            let packed = PackedWord::pack(k);
            Ok((service.rules().route_packed(&packed)?, packed))
        })
        .collect()
}

/// Offers `cfg.duration` of open-loop load drawn from `keys`, returning
/// the number of lookups offered.
///
/// Keys are drawn uniformly from the pool by a [`SplitMix64`] seeded with
/// `seed` and accumulated into per-shard batches; a batch is submitted
/// when full (blocking on backpressure) and partial batches are flushed at
/// the end, so every offered key is eventually served.
///
/// # Errors
///
/// Routing errors from the key pool, or
/// [`ServeError::ServiceClosed`](crate::error::ServeError::ServiceClosed)
/// if the service shuts down mid-run.
///
/// # Panics
///
/// Panics when `keys` is empty or `cfg.batch` is 0.
pub fn open_loop(
    service: &TcamService,
    keys: &[Vec<TernaryBit>],
    seed: u64,
    cfg: &OpenLoop,
) -> Result<u64> {
    assert!(!keys.is_empty() && cfg.batch > 0, "degenerate open loop");
    let pool = prepare(service, keys)?;
    let mut rng = SplitMix64::new(seed);
    let mut buffers: Vec<Vec<PackedWord>> = vec![Vec::with_capacity(cfg.batch); service.shards()];
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut offered = 0u64;

    'offer: while Instant::now() < deadline {
        // Draw a block of keys between deadline checks.
        for _ in 0..cfg.batch {
            let (shard, word) = pool[rng.below(pool.len() as u64) as usize];
            let buffer = &mut buffers[shard];
            buffer.push(word);
            if buffer.len() == cfg.batch {
                let batch = std::mem::replace(buffer, Vec::with_capacity(cfg.batch));
                offered += flush(service, shard, batch, cfg.rate, start, offered)?;
                if Instant::now() >= deadline {
                    break 'offer;
                }
            }
        }
    }
    for (shard, buffer) in buffers.into_iter().enumerate() {
        if !buffer.is_empty() {
            offered += flush(service, shard, buffer, 0.0, start, offered)?;
        }
    }
    Ok(offered)
}

/// Submits one batch, pacing against the absolute schedule when `rate` is
/// positive: key `offered` is due at `start + offered / rate`, so pacing
/// never drifts even if individual submits run long.
fn flush(
    service: &TcamService,
    shard: usize,
    batch: Vec<PackedWord>,
    rate: f64,
    start: Instant,
    offered: u64,
) -> Result<u64> {
    if rate > 0.0 {
        let due = start + Duration::from_secs_f64(offered as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
    let n = batch.len() as u64;
    service.submit(
        shard,
        SearchBatch {
            keys: batch,
            submitted: Instant::now(),
            reply: None,
            trace: None,
        },
    )?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::shard::ShardedRuleSet;
    use crate::workload::Workload;
    use tcam_arch::bank::BankRefresh;

    fn service(refresh: BankRefresh) -> (Workload, TcamService) {
        let w = Workload::router_lpm(64, 256, 7);
        let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
        let config = ServiceConfig {
            refresh,
            refresh_interval: Duration::from_millis(2),
            ..ServiceConfig::default()
        };
        (w, TcamService::start(rules, &config).unwrap())
    }

    #[test]
    fn open_loop_serves_every_offered_key() {
        let (w, svc) = service(BankRefresh::None);
        let cfg = OpenLoop {
            batch: 64,
            rate: 0.0,
            duration: Duration::from_millis(20),
        };
        let offered = open_loop(&svc, &w.keys, 11, &cfg).unwrap();
        let report = svc.shutdown();
        assert!(offered > 0);
        assert_eq!(report.searches(), offered, "shutdown must drain the queues");
        assert_eq!(report.latency.count(), offered);
    }

    #[test]
    fn paced_open_loop_respects_the_schedule() {
        let (w, svc) = service(BankRefresh::None);
        let cfg = OpenLoop {
            batch: 32,
            rate: 50_000.0,
            duration: Duration::from_millis(40),
        };
        let t0 = Instant::now();
        let offered = open_loop(&svc, &w.keys, 11, &cfg).unwrap();
        let elapsed = t0.elapsed();
        let report = svc.shutdown();
        assert_eq!(report.searches(), offered);
        // 50k/s for 40ms ≈ 2000 keys; allow generous slack for scheduling.
        let expected = cfg.rate * elapsed.as_secs_f64();
        assert!(
            (offered as f64) < expected * 1.5 + 2.0 * cfg.batch as f64,
            "offered {offered} vs schedule {expected}"
        );
    }
}
