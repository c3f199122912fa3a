//! The serving pool: one table, a bounded queue in front of one worker
//! thread, refresh competing with traffic on the worker's clock, and one
//! published-snapshot cell that rule updates swap whole tables through.
//! The table is a bit-packed ternary array ([`PackedTcamArray`]), and
//! [`TcamService`](crate::service::TcamService) is this pool plus the
//! table's word width.
//!
//! # Execution model
//!
//! Searches arrive as [`SearchBatch`]es on the [`BoundedQueue`] (blocking
//! [`ShardPool::submit`] = backpressure, [`ShardPool::try_submit`] = load
//! shedding). The worker drains the queue and matches each batch in one
//! kernel call ([`PackedTcamArray::first_match_batch_into`]); telemetry
//! is settled per batch
//! ([`LatencyHistogram::record_n`](crate::telemetry::LatencyHistogram)),
//! so no per-key clock read or metric update is on the hot path.
//!
//! A caller that will wait for the answer anyway can skip the queue:
//! [`ShardPool::answer_here`] matches its keys **on the calling thread**
//! against the published snapshot — no hand-off, no wake-up, no reply
//! channel. This is how the wire front-end serves every lookup: its
//! connection readers are the cores a table is spread across. A
//! caller-run query is accounted into the pool's own counter block
//! (searches, matches, latency, energy), which the worker folds into its
//! [`ShardStats`] at shutdown, so the report counts every key served
//! either way.
//!
//! # Refresh under load
//!
//! A dynamic TCAM must refresh within every retention interval, and the
//! paper's one-shot scheme exists so that doing so barely interrupts
//! traffic. Here refresh is a *scheduled event on the worker's wall clock*
//! — while it runs the queue keeps filling, and the telemetry records the
//! stall and the searches caught behind it. The worker holds the table's
//! refresh lock for the event, so a caller-run query waits it out (and
//! counts its keys in [`ServeReport::stalled_searches`]), and an event
//! never overlaps a caller-run match. An event is sized by the
//! [`BankRefresh`] policy (1 op one-shot, `rows` ops row-by-row), each op
//! `refresh_op_work` units of real work and metered through
//! [`WorkloadMeter`](tcam_arch::energy_model::WorkloadMeter): a row-by-row
//! event stalls the table ~`rows`× longer — the paper's argument,
//! measured.
//!
//! # Online updates: the published-snapshot cell
//!
//! Rule updates never mutate a table a reader is using. A publisher (the
//! `tcam-update` crate's `Updater`) builds a complete replacement table
//! and [`publishes`](ShardPool::publish) it under a monotonically
//! increasing **epoch**: one store into the cell, which holds exactly one
//! `(epoch, Arc<table>, published_at)` — the newest. As with one-shot
//! refresh, one whole-table operation supersedes any number of earlier
//! ones, so nothing queues: a stale or repeated epoch is refused at the
//! cell, and a worker that saw no traffic between two publications jumps
//! straight to the newer one. The worker and caller-run queries share the
//! cell's `Arc`; none owns a copy.
//!
//! The worker loads the cell **after it has dequeued work and before it
//! matches the first batch of that drain — never inside a batch**; a
//! caller-run query loads it once, before its match. That one rule gives
//! three guarantees on both paths:
//!
//! * **no torn table**: a batch is served entirely from one immutable
//!   snapshot whose epoch the reply reports ([`BatchReply::epoch`]), so the
//!   result is what a single-threaded search of that epoch's rules returns;
//! * **read-your-writes**: a lookup submitted after `publish(v)` returned
//!   is served at an epoch ≥ v — the submit → dequeue hand-off orders the
//!   worker's load after the publisher's store (a caller-run load takes
//!   the cell's lock after it);
//! * **per-caller monotonic epochs**: a caller's consecutive replies never
//!   go back in epoch, whether the worker or the caller itself serves
//!   them.
//!
//! `tcam-update`'s `concurrent_churn` test holds all three under a live
//! updater. Publish → swap is recorded by the worker as the snapshot's
//! staleness window (`update_latency`), the epoch jump as `max_epoch_lag`.

use crate::error::{Result, ServeError};
use crate::queue::{BoundedQueue, TryPushError};
use crate::telemetry::{ServeReport, ShardStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcam_arch::bank::BankRefresh;
use tcam_arch::energy_model::OperationCosts;
use tcam_arch::packed::{PackedTcamArray, PackedWord};
use tcam_obs::RequestTrace;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Batches the search queue can hold before producers block.
    pub queue_capacity: usize,
    /// Refresh policy (event sizing; `None` disables refresh).
    pub refresh: BankRefresh,
    /// Wall-clock interval between refresh events. The physical
    /// retention (26.5 µs for the paper's 3T2N) is far below what software
    /// can schedule, so benches run a scaled-up interval; the *ratio*
    /// between policies is what the model preserves.
    pub refresh_interval: Duration,
    /// Units of work per refresh operation (SplitMix64 rounds); scales how
    /// long one op occupies the table.
    pub refresh_op_work: u32,
    /// Per-operation cost model for energy accounting.
    pub costs: OperationCosts,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            refresh: BankRefresh::OneShot { op_time: 10e-9 },
            refresh_interval: Duration::from_millis(5),
            refresh_op_work: 512,
            costs: OperationCosts::paper_3t2n(),
        }
    }
}

/// A batch of packed search keys.
pub struct SearchBatch {
    /// The keys.
    pub keys: Vec<PackedWord>,
    /// When the batch was submitted (queue-wait measurement starts here).
    pub submitted: Instant,
    /// Reply channel for closed-loop callers; `None` discards results
    /// (open-loop load generation counts completions instead).
    pub reply: Option<SyncSender<BatchReply>>,
    /// The sampled request's hop collector, when the submitter carries
    /// one: the worker records its queue-wait and match hops into it.
    /// `None` (the common case) costs nothing on the match path.
    pub trace: Option<Arc<tcam_obs::RequestTrace>>,
}

/// A worker's reply to a [`SearchBatch`]: the serving epoch and the
/// winning rule id per key.
#[derive(Debug)]
pub struct BatchReply {
    /// The epoch of the table snapshot that served every key in the batch
    /// (0 = the initial table). Exactly one epoch serves a whole batch —
    /// the no-torn-snapshot guarantee, exposed so callers can verify it.
    pub epoch: u64,
    /// One result per key, in submission order.
    pub results: Vec<Option<u32>>,
}

/// One published table snapshot.
struct Published {
    epoch: u64,
    table: Arc<PackedTcamArray>,
    published_at: Instant,
}

/// The published-snapshot cell: the newest snapshot behind a lock,
/// and its epoch beside it so "anything new?" is one atomic load.
///
/// `epoch` is stored with `Release` while the slot lock is held, after the
/// slot was replaced; a worker that `Acquire`-loads epoch `v` and then
/// locks the slot therefore finds a snapshot of epoch ≥ `v`.
struct Cell {
    epoch: AtomicU64,
    slot: Mutex<Published>,
}

impl Cell {
    fn new(epoch: u64, table: Arc<PackedTcamArray>) -> Self {
        Self {
            epoch: AtomicU64::new(epoch),
            slot: Mutex::new(Published {
                epoch,
                table,
                published_at: Instant::now(),
            }),
        }
    }

    /// Replaces the snapshot if `epoch` is newer than the one held;
    /// returns whether it did. Republication is idempotent, and an older
    /// epoch can never overwrite a newer one.
    fn publish(&self, epoch: u64, table: Arc<PackedTcamArray>) -> bool {
        let mut slot = self
            .slot
            .lock()
            .expect("cell lock is never held across a panic");
        if epoch <= slot.epoch {
            return false;
        }
        *slot = Published {
            epoch,
            table,
            published_at: Instant::now(),
        };
        self.epoch.store(epoch, Ordering::Release);
        true
    }

    fn load(&self) -> Published {
        let slot = self
            .slot
            .lock()
            .expect("cell lock is never held across a panic");
        Published {
            table: Arc::clone(&slot.table),
            ..*slot
        }
    }

    /// The worker's swap point. An unchanged cell costs one `Acquire`
    /// load; a newer snapshot replaces `current`, is accounted in `stats`,
    /// and the retired table is handed back so the caller decides when its
    /// memory is freed.
    fn adopt(
        &self,
        current: &mut Published,
        stats: &mut ShardStats,
    ) -> Option<Arc<PackedTcamArray>> {
        if self.epoch.load(Ordering::Acquire) <= current.epoch {
            return None;
        }
        let _obs = tcam_obs::span!("serve_swap");
        let next = self.load();
        stats.updates_applied += 1;
        // 1 = caught the very next publication; larger = publications
        // superseded each other between this worker's swap points.
        stats.max_epoch_lag = stats.max_epoch_lag.max(next.epoch - current.epoch);
        stats.epoch = next.epoch;
        stats
            .update_latency
            .record(nanos(next.published_at, Instant::now()));
        Some(std::mem::replace(current, next).table)
    }
}

/// What the worker and the submitting side share.
pub(crate) struct Shard {
    pub(crate) queue: BoundedQueue<SearchBatch>,
    cell: Cell,
    /// Keys currently waiting in the queue (batch contents included);
    /// updated outside the match loop.
    queued_keys: AtomicU64,
    /// Written by the worker for the length of a refresh event, read by a
    /// caller-run query for the length of its match.
    refreshing: RwLock<()>,
    /// What caller-run queries accounted; the worker takes it at exit.
    caller_run: Mutex<ShardStats>,
}

/// The running pool. Dropping without [`ShardPool::shutdown`] closes the
/// queue and joins the worker (discarding its telemetry); shutdown and
/// drop are both idempotent, in any order.
pub struct ShardPool {
    pub(crate) shard: Arc<Shard>,
    worker: Option<JoinHandle<ShardStats>>,
    /// Prices the searches caller-run queries account.
    costs: OperationCosts,
}

impl ShardPool {
    /// Starts the worker thread on `table`, published at `epoch`. A queue
    /// capacity of 0 is clamped to 1.
    ///
    /// # Panics
    ///
    /// Panics when the OS refuses to spawn a thread.
    #[must_use]
    pub fn start(table: Arc<PackedTcamArray>, epoch: u64, config: &ServiceConfig) -> Self {
        let shard = Arc::new(Shard {
            queue: BoundedQueue::new(config.queue_capacity.max(1)),
            cell: Cell::new(epoch, table),
            queued_keys: AtomicU64::new(0),
            refreshing: RwLock::new(()),
            caller_run: Mutex::default(),
        });
        let (worker_shard, config_copy) = (Arc::clone(&shard), *config);
        let worker = std::thread::Builder::new()
            .name("tcam-serve".into())
            .spawn(move || run_worker(&worker_shard, &config_copy))
            .expect("spawn serving worker");
        Self {
            shard,
            worker: Some(worker),
            costs: config.costs,
        }
    }

    /// Submits a batch, blocking while the queue is full. `shard` is the
    /// index the sharded pool took; the one table is shard 0.
    ///
    /// # Errors
    ///
    /// [`ServeError::ServiceClosed`] after shutdown began.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not 0.
    pub fn submit(&self, shard: usize, batch: SearchBatch) -> Result<()> {
        assert_eq!(
            shard, 0,
            "a pool serves one table: shard {shard} does not exist"
        );
        let target = &self.shard;
        let keys = batch.keys.len() as u64;
        target.queued_keys.fetch_add(keys, Ordering::Relaxed);
        target.queue.push(batch).map_err(|_rejected| {
            target.queued_keys.fetch_sub(keys, Ordering::Relaxed);
            ServeError::ServiceClosed
        })
    }

    /// Submits a batch **only if the queue has room right now** — load
    /// shedding instead of blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity,
    /// [`ServeError::ServiceClosed`] after shutdown began.
    pub fn try_submit(&self, batch: SearchBatch) -> Result<()> {
        let target = &self.shard;
        let keys = batch.keys.len() as u64;
        target.queued_keys.fetch_add(keys, Ordering::Relaxed);
        target.queue.try_push(batch).map_err(|rejected| {
            target.queued_keys.fetch_sub(keys, Ordering::Relaxed);
            match rejected {
                TryPushError::Full(_) => ServeError::Overloaded,
                TryPushError::Closed(_) => ServeError::ServiceClosed,
            }
        })
    }

    /// Answers `keys` **on the calling thread** from the published
    /// snapshot: no queue, no worker, no reply channel. The cell is loaded
    /// once, before the match, so the reply keeps every epoch guarantee of
    /// the worker path (module docs). A refresh event in progress is
    /// waited out, and the keys are then counted in
    /// [`ServeReport::stalled_searches`]. Searches, matches, latency and
    /// energy go to the pool's counters and reach the shutdown report
    /// through the worker. A sampled request's `trace` gets a
    /// `serve_match` hop spanning the call.
    pub fn answer_here(&self, keys: &[PackedWord], trace: Option<&RequestTrace>) -> BatchReply {
        let start = Instant::now();
        let target = &self.shard;
        let (event_over, stalled) = match target.refreshing.try_read() {
            Ok(guard) => (guard, false),
            Err(_) => (
                target
                    .refreshing
                    .read()
                    .expect("refresh lock is never held across a panic"),
                true,
            ),
        };
        let published = target.cell.load();
        let mut results = Vec::new();
        let matched = answer(&published.table, keys, &mut results);
        drop(event_over);
        let done = Instant::now();
        let n = keys.len() as u64;
        {
            let mut stats = target
                .caller_run
                .lock()
                .expect("caller-run stats lock is never held across a panic");
            stats.batches += 1;
            stats.searches += n;
            stats.matched += matched;
            if stalled {
                stats.stalled_searches += n;
            }
            stats.meter.search_n(&self.costs, n);
            stats.latency.record_n(nanos(start, done), n);
        }
        if let Some(trace) = trace {
            trace.hop("serve_match", start, done);
        }
        BatchReply {
            epoch: published.epoch,
            results,
        }
    }

    /// Publishes `table` as the snapshot of epoch `epoch`: one store into
    /// the cell, never blocking. Returns `false` — and changes nothing —
    /// when the cell already holds that epoch or a newer one. Once this
    /// returns, every lookup submitted afterwards is served at `epoch` or
    /// later.
    pub fn publish(&self, epoch: u64, table: Arc<PackedTcamArray>) -> bool {
        self.shard.cell.publish(epoch, table)
    }

    /// Stops accepting work, drains the search queue, joins the worker and
    /// returns its telemetry. The worker loads the cell once more on the
    /// way out, so [`ServeReport::last_epoch`] is the last published
    /// epoch.
    ///
    /// Shutdown is **idempotent and panic-free**: closing the queue twice
    /// is a no-op, and a worker that panicked (or already exited) is
    /// counted in [`ServeReport::workers_panicked`] instead of poisoning
    /// the caller — the lifecycle contract the network front-end's accept
    /// loops rely on, where `Drop` may race an explicit shutdown.
    #[must_use]
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown_in_place()
    }

    /// The idempotent core of [`Self::shutdown`], shared with `Drop`:
    /// closes the queue (a second close is a no-op), joins the worker if
    /// it is still owned, and reports its stats. After the first call no
    /// worker is owned, so later calls return an empty report instead of
    /// blocking or panicking.
    fn shutdown_in_place(&mut self) -> ServeReport {
        self.shard.queue.close();
        let mut panicked = 0u64;
        let stats = self
            .worker
            .take()
            .and_then(|w| match w.join() {
                Ok(stats) => Some(stats),
                Err(_) => {
                    panicked += 1;
                    None
                }
            })
            .into_iter()
            .collect();
        let mut report = ServeReport::from_shards(stats);
        report.workers_panicked = panicked;
        report
    }
}

impl Drop for ShardPool {
    /// Dropping without [`ShardPool::shutdown`] still closes the queue
    /// and joins the worker (so no thread outlives the pool), it just
    /// discards the telemetry. After an explicit shutdown this is a no-op.
    fn drop(&mut self) {
        let _ = self.shutdown_in_place();
    }
}

/// One refresh operation's worth of work: `work` SplitMix64 rounds over
/// the op counter, kept live via `black_box` so the optimizer cannot
/// elide the stall being measured.
fn refresh_op(state: u64, work: u32) -> u64 {
    let mut acc = state;
    for _ in 0..work {
        acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = acc;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        acc ^= z >> 27;
    }
    std::hint::black_box(acc)
}

/// Matches every key of `keys` into `out` (cleared first) in one kernel
/// call and returns how many found a match.
fn answer(table: &PackedTcamArray, keys: &[PackedWord], out: &mut Vec<Option<u32>>) -> u64 {
    table.first_match_batch_into(keys, out);
    out.iter().flatten().count() as u64
}

/// `from → to` in nanoseconds (0 when `to` is earlier).
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Mirrors the worker's coarse state into the global `tcam-obs` registry
/// as gauges labeled with the table's index (0). Called at flush
/// boundaries only — never per key — so the registry costs nothing on the
/// match path.
fn publish_gauges(shard: &Shard, stats: &ShardStats, worker_start: Instant) {
    const LABEL: u32 = 0;
    #[allow(clippy::cast_precision_loss)]
    {
        tcam_obs::gauge_set_at(
            "serve_queue_depth",
            LABEL,
            shard.queued_keys.load(Ordering::Relaxed) as f64,
        );
        tcam_obs::gauge_set_at("serve_epoch", LABEL, stats.epoch as f64);
        tcam_obs::gauge_set_at("serve_epoch_lag", LABEL, stats.max_epoch_lag as f64);
        // Utilization: fraction of this worker's wall clock spent matching
        // batches (refresh/swap/idle excluded).
        let elapsed = worker_start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            tcam_obs::gauge_set_at(
                "serve_worker_busy_pct",
                LABEL,
                100.0 * stats.busy.as_secs_f64() / elapsed,
            );
        }
    }
}

/// Max batches a worker drains per queue visit.
const DRAIN_BATCHES: usize = 4;

/// How long a worker with refresh off blocks on an empty queue before it
/// looks at the cell again.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How many processed batches between registry flushes. Flushing takes the
/// global mutex, so workers amortize it well past the per-batch path.
const FLUSH_EVERY_BATCHES: u64 = 64;

fn run_worker(shard: &Shard, config: &ServiceConfig) -> ShardStats {
    let worker_start = Instant::now();
    let (queue, cell) = (&shard.queue, &shard.cell);
    let mut current = cell.load();
    let mut stats = ShardStats::new(0, current.table.len());
    stats.epoch = current.epoch;
    let refresh_on = !matches!(config.refresh, BankRefresh::None);
    let refresh_interval = config.refresh_interval.max(Duration::from_micros(10));
    let mut next_refresh = Instant::now() + refresh_interval;
    let mut refresh_state = 0u64;
    let mut batches_at_last_flush = 0u64;
    // Reused kernel output buffer: the no-reply (open-loop) path never
    // allocates; the reply path takes the buffer and leaves a fresh one.
    let mut kernel_out = Vec::new();

    loop {
        let now = Instant::now();
        if refresh_on && now >= next_refresh {
            // A refresh event competes with traffic: the table serves
            // nothing until its ops complete — caller-run queries wait on
            // the lock.
            let _obs = tcam_obs::span!("serve_refresh");
            let _event = shard
                .refreshing
                .write()
                .expect("refresh lock is never held across a panic");
            let ops = config.refresh.ops_per_event(current.table.len());
            for _ in 0..ops {
                refresh_state = refresh_op(refresh_state, config.refresh_op_work);
                stats.meter.refresh(&config.costs, config.refresh.op_time());
            }
            let end = Instant::now();
            stats.refresh_events += 1;
            stats.refresh_ops += ops;
            stats.refresh_stall += end - now;
            // Everything queued right now sat through the stall.
            stats.stalled_searches += shard.queued_keys.load(Ordering::Relaxed);
            next_refresh += refresh_interval;
            if next_refresh <= end {
                next_refresh = end + refresh_interval;
            }
            continue;
        }

        let timeout = if refresh_on {
            next_refresh.saturating_duration_since(now)
        } else {
            IDLE_POLL
        };
        let (batches, closed) = {
            // Idle time (blocking on the queue) is a phase of its own so
            // the span breakdown partitions the worker's whole wall clock.
            let _obs = tcam_obs::span!("serve_idle");
            queue.pop_batch(DRAIN_BATCHES, timeout)
        };
        // The swap point: after the dequeue, so whatever was published
        // before these batches were submitted is what serves them, and
        // before the first match, so the whole drain sees one snapshot.
        // On the closed-and-drained visit this is the exit-time load. The
        // retired table is held until the drain's replies are out: freeing
        // it is not on any request's critical path.
        let retired = cell.adopt(&mut current, &mut stats);
        if batches.is_empty() {
            if closed {
                stats.rows = current.table.len();
                let caller_run = std::mem::take(
                    &mut *shard
                        .caller_run
                        .lock()
                        .expect("caller-run stats lock is never held across a panic"),
                );
                stats.absorb(&caller_run);
                if tcam_obs::enabled() {
                    // Publish the exact histograms wholesale and
                    // mirror the counters once — the registry view matches
                    // the final `ServeReport` without per-key recording.
                    tcam_obs::hist_merge("serve_latency", &stats.latency);
                    tcam_obs::hist_merge("serve_queue_wait", &stats.queue_wait);
                    tcam_obs::hist_merge("serve_update_latency", &stats.update_latency);
                    tcam_obs::counter_add("serve_searches", stats.searches);
                    tcam_obs::counter_add("serve_batches", stats.batches);
                    tcam_obs::counter_add("serve_refresh_events", stats.refresh_events);
                    tcam_obs::counter_add("serve_updates_applied", stats.updates_applied);
                    publish_gauges(shard, &stats, worker_start);
                    tcam_obs::flush();
                }
                return stats;
            }
            continue;
        }

        let t0 = Instant::now();
        let obs_match = tcam_obs::span!("serve_match");
        for batch in batches {
            let n = batch.keys.len() as u64;
            shard.queued_keys.fetch_sub(n, Ordering::Relaxed);
            let dequeued = Instant::now();
            stats.queue_wait.record(nanos(batch.submitted, dequeued));
            stats.batches += 1;

            // The whole batch goes through the kernel in one call;
            // telemetry is settled per batch (one clock read, O(1)
            // histogram/meter updates), never per key.
            stats.matched += answer(&current.table, &batch.keys, &mut kernel_out);
            stats.searches += n;
            stats.meter.search_n(&config.costs, n);
            let done = Instant::now();
            if let Some(trace) = &batch.trace {
                // Worker hops for the sampled request: its queue wait and
                // the kernel-match interval.
                trace.hop("serve_queue", batch.submitted, dequeued);
                trace.hop("serve_match", dequeued, done);
            }
            stats.latency.record_n(nanos(batch.submitted, done), n);
            if let Some(reply) = batch.reply {
                // A departed closed-loop caller is not an error.
                let _ = reply.send(BatchReply {
                    epoch: current.epoch,
                    results: std::mem::take(&mut kernel_out),
                });
            }
        }
        drop(obs_match);
        stats.busy += t0.elapsed();
        drop(retired);
        if tcam_obs::enabled() && stats.batches - batches_at_last_flush >= FLUSH_EVERY_BATCHES {
            // Periodic visibility for long-running services: gauges plus
            // accumulated span phases, amortized far past the batch path.
            batches_at_last_flush = stats.batches;
            publish_gauges(shard, &stats, worker_start);
            tcam_obs::flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_arch::packed::PackedTcamArray;

    fn table() -> Arc<PackedTcamArray> {
        Arc::new(PackedTcamArray::new(8))
    }

    #[test]
    fn cell_refuses_stale_epochs_and_adopt_tracks_the_jump() {
        let cell = Cell::new(0, table());
        let mut current = cell.load();
        let mut stats = ShardStats::new(0, 0);

        // An unchanged cell costs no swap: nothing retired, nothing counted.
        assert!(cell.adopt(&mut current, &mut stats).is_none());
        assert_eq!(
            (stats.updates_applied, stats.update_latency.count()),
            (0, 0)
        );

        // Epochs 1 and 3 supersede each other in the cell; the worker
        // jumps 0 -> 3 in one swap and is handed the epoch-0 table back.
        let boot = Arc::clone(&current.table);
        let third = table();
        assert!(cell.publish(1, table()));
        assert!(cell.publish(3, Arc::clone(&third)));
        let retired = cell.adopt(&mut current, &mut stats).expect("a newer epoch");
        assert!(Arc::ptr_eq(&retired, &boot));
        assert!(Arc::ptr_eq(&current.table, &third));
        assert_eq!((current.epoch, stats.epoch), (3, 3));
        assert_eq!(
            stats.updates_applied, 1,
            "one swap, not one per publication"
        );
        assert_eq!(stats.max_epoch_lag, 3);
        assert_eq!(stats.update_latency.count(), 1);

        // A repeated or older epoch is refused at the cell and the table
        // offered with it never becomes visible.
        assert!(!cell.publish(3, table()));
        assert!(!cell.publish(2, table()));
        assert!(cell.adopt(&mut current, &mut stats).is_none());
        assert!(Arc::ptr_eq(&cell.load().table, &third));

        // Catching the very next epoch keeps the max at the worst case.
        assert!(cell.publish(4, table()));
        assert!(cell.adopt(&mut current, &mut stats).is_some());
        assert_eq!((current.epoch, stats.max_epoch_lag), (4, 3));
    }
}
