//! The concurrent lookup service: a pool of worker threads per shard,
//! bounded queues in front, refresh competing with traffic on the
//! worker's clock.
//!
//! # Execution model
//!
//! Searches arrive as [`SearchBatch`]es on a shard's [`BoundedQueue`]
//! (blocking `push` = backpressure). Each shard owns
//! [`ServiceConfig::workers_per_shard`] worker threads (the multi-core
//! scaling knob; `0` = spread the machine's available parallelism across
//! shards) that drain batches from the shared shard queue and push every
//! drained batch through the bit-sliced match-line kernel
//! ([`PackedTcamArray::first_match_batch_into`]) — the whole batch is
//! matched in one call, telemetry is recorded per batch
//! ([`LatencyHistogram::record_n`](crate::telemetry::LatencyHistogram)),
//! and no per-key clock reads or per-key metric updates survive on the
//! hot path. Batching amortizes queue synchronization over hundreds of
//! lookups, and the kernel resolves 64 rows per AND.
//!
//! # Refresh under load
//!
//! A dynamic TCAM must refresh within every retention interval, and the
//! whole point of the paper's one-shot scheme is that doing so barely
//! interrupts traffic. Here refresh is a *scheduled event on the worker's
//! wall clock* — not an entry in a replayed trace — so interference is
//! observed under real concurrency: while a worker executes a refresh
//! event, its queue keeps filling, and the telemetry records both the
//! stall time and the searches caught waiting. A physical shard refreshes
//! once per interval regardless of how many threads serve it, so worker 0
//! of each shard owns the refresh schedule; sibling workers keep serving
//! through the stall (on a multi-core box this shrinks observed
//! refresh-induced delay, which is the correct physical reading: the
//! array is busy refreshing, the other match ports are not). Event sizing comes from the
//! same [`BankRefresh`] policy hooks the timed bank uses (1 op for
//! one-shot, `rows` ops for row-by-row); each op performs
//! `refresh_op_work` units of real work, so a row-by-row event stalls the
//! shard ~`rows`× longer than a one-shot event — the paper's argument,
//! measured instead of assumed. Energy is metered per op through
//! [`WorkloadMeter`](tcam_arch::energy_model::WorkloadMeter) exactly as
//! the trace-replay bank does.
//!
//! # Online updates: epoch-snapshot publication
//!
//! Rule updates never mutate a table a worker is reading. A publisher
//! (the `tcam-update` crate's `Updater`) builds a complete replacement
//! [`PackedTcamArray`] for a shard and [`publishes`](TcamService::publish)
//! it as a [`TableUpdate`] tagged with a monotonically increasing
//! **epoch**. Each shard worker holds its table as an `Arc` and swaps to
//! the newest published snapshot only **between batches** — never
//! mid-batch — so:
//!
//! * a reader can never observe a torn table (every batch is served
//!   entirely from one immutable snapshot), and
//! * searches are linearizable against rule versions: every reply reports
//!   the epoch that served it ([`BatchReply::epoch`]), and the result is
//!   exactly what a single-threaded search against that epoch's rule set
//!   would return — the property `tcam-update`'s `concurrent_churn` test
//!   checks under a live updater.
//!
//! Update application competes with refresh and traffic on the worker's
//! wall clock exactly like refresh events do; publication latency
//! (publish → swap) is recorded per shard as the snapshot's staleness
//! window.

use crate::error::{Result, ServeError};
use crate::queue::{BoundedQueue, TryPushError};
use crate::shard::ShardedRuleSet;
use crate::telemetry::{ServeReport, ShardStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcam_arch::bank::BankRefresh;
use tcam_arch::energy_model::OperationCosts;
use tcam_arch::packed::{PackedTcamArray, PackedWord};

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Batches each shard queue can hold before producers block.
    pub queue_capacity: usize,
    /// Max batches a worker drains per queue visit.
    pub drain_batches: usize,
    /// Refresh policy (event sizing; `None` disables refresh).
    pub refresh: BankRefresh,
    /// Wall-clock interval between refresh events per shard. The physical
    /// retention (26.5 µs for the paper's 3T2N) is far below what software
    /// can schedule, so benches run a scaled-up interval; the *ratio*
    /// between policies is what the model preserves.
    pub refresh_interval: Duration,
    /// Units of work per refresh operation (SplitMix64 rounds); scales how
    /// long one op occupies the shard.
    pub refresh_op_work: u32,
    /// A search counts as *delayed* when its batch waited longer than this
    /// in the queue.
    pub delayed_threshold: Duration,
    /// Table updates a worker's update mailbox can hold before publishers
    /// block (update backpressure).
    pub update_queue_capacity: usize,
    /// Worker threads per shard — the multi-core scaling knob. All of a
    /// shard's workers pop from the same bounded queue and serve from
    /// their own epoch-snapshot `Arc`, so scaling needs no sharding
    /// change. `0` = auto: spread [`std::thread::available_parallelism`]
    /// evenly across shards (at least one worker each).
    pub workers_per_shard: usize,
    /// Epoch workers boot tagged with. A fresh service starts at `0`; a
    /// service recovered from a durable store starts at the store's
    /// version, so the very first reply after a restart already carries
    /// the exact pre-crash epoch (no race against a boot republication).
    pub initial_epoch: u64,
    /// Per-operation cost model for energy accounting.
    pub costs: OperationCosts,
}

impl ServiceConfig {
    /// The worker count per shard this config resolves to for `shards`
    /// shards (`0` = auto = available parallelism spread across shards).
    #[must_use]
    pub fn resolved_workers_per_shard(&self, shards: usize) -> usize {
        if self.workers_per_shard > 0 {
            return self.workers_per_shard;
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        (cores / shards.max(1)).max(1)
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            drain_batches: 4,
            refresh: BankRefresh::OneShot { op_time: 10e-9 },
            refresh_interval: Duration::from_millis(5),
            refresh_op_work: 512,
            delayed_threshold: Duration::from_micros(300),
            update_queue_capacity: 16,
            workers_per_shard: 1,
            initial_epoch: 0,
            costs: OperationCosts::paper_3t2n(),
        }
    }
}

/// A batch of pre-routed, packed search keys.
#[derive(Debug)]
pub struct SearchBatch {
    /// Packed keys, all belonging to the destination shard.
    pub keys: Vec<PackedWord>,
    /// When the batch was submitted (queue-wait measurement starts here).
    pub submitted: Instant,
    /// Reply channel for closed-loop callers; `None` discards results
    /// (open-loop load generation counts completions instead).
    pub reply: Option<SyncSender<BatchReply>>,
    /// The sampled request's hop collector, when the submitter carries
    /// one: the worker records its shard-labeled queue-wait and match
    /// hops into it. `None` (the common case) costs nothing on the
    /// match path.
    pub trace: Option<Arc<tcam_obs::RequestTrace>>,
}

/// A worker's reply to a [`SearchBatch`].
#[derive(Debug)]
pub struct BatchReply {
    /// The epoch of the table snapshot that served every key in the batch
    /// (0 = the initial table). Exactly one epoch serves a whole batch —
    /// the no-torn-snapshot guarantee, exposed so callers can verify it.
    pub epoch: u64,
    /// Winning rule id per key, in submission order.
    pub results: Vec<Option<u32>>,
}

/// A full-table snapshot published to one shard worker. Publication
/// clones the `TableUpdate` (an `Arc` bump) into every worker mailbox of
/// the shard, so sibling workers converge on the same epoch without
/// sharing mutable state.
#[derive(Debug, Clone)]
pub struct TableUpdate {
    /// Monotonically increasing version tag (per shard).
    pub epoch: u64,
    /// The complete replacement rule table for the shard.
    pub table: Arc<PackedTcamArray>,
    /// When the update was published (publication-latency measurement
    /// starts here).
    pub submitted: Instant,
}

/// Shared per-shard gauges (updated outside the match loop).
struct ShardGauges {
    /// Keys currently waiting in the queue (batch contents included).
    queued_keys: AtomicU64,
}

/// The running service. Dropping without [`TcamService::shutdown`] closes
/// the queues and joins the workers (discarding their telemetry);
/// shutdown and drop are both idempotent, in any order.
pub struct TcamService {
    rules: Arc<ShardedRuleSet>,
    queues: Vec<Arc<BoundedQueue<SearchBatch>>>,
    /// Update mailboxes, indexed `[shard][worker]` — every worker of a
    /// shard gets its own copy of each published epoch.
    updates: Vec<Vec<Arc<BoundedQueue<TableUpdate>>>>,
    gauges: Vec<Arc<ShardGauges>>,
    completed: Arc<AtomicU64>,
    updates_dropped: AtomicU64,
    workers_per_shard: usize,
    workers: Vec<JoinHandle<ShardStats>>,
    started: Instant,
}

impl TcamService {
    /// Starts `workers_per_shard` worker threads per shard of `rules`
    /// (see [`ServiceConfig::workers_per_shard`]).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (signature reserved for future
    /// validation); config values of 0 are clamped to 1.
    pub fn start(rules: ShardedRuleSet, config: &ServiceConfig) -> Result<Self> {
        let rules = Arc::new(rules);
        let completed = Arc::new(AtomicU64::new(0));
        let per_shard = config.resolved_workers_per_shard(rules.shards());
        let mut queues = Vec::with_capacity(rules.shards());
        let mut updates = Vec::with_capacity(rules.shards());
        let mut gauges = Vec::with_capacity(rules.shards());
        let mut workers = Vec::with_capacity(rules.shards() * per_shard);
        for shard in 0..rules.shards() {
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity.max(1)));
            let gauge = Arc::new(ShardGauges {
                queued_keys: AtomicU64::new(0),
            });
            let mut mailboxes = Vec::with_capacity(per_shard);
            for worker in 0..per_shard {
                let update_queue =
                    Arc::new(BoundedQueue::new(config.update_queue_capacity.max(1)));
                let ctx = WorkerCtx {
                    shard,
                    worker,
                    worker_label: u32::try_from(shard * per_shard + worker)
                        .unwrap_or(u32::MAX),
                    rules: Arc::clone(&rules),
                    queue: Arc::clone(&queue),
                    updates: Arc::clone(&update_queue),
                    gauge: Arc::clone(&gauge),
                    completed: Arc::clone(&completed),
                    config: *config,
                };
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("tcam-s{shard}w{worker}"))
                        .spawn(move || run_worker(&ctx))
                        .expect("spawn shard worker"),
                );
                mailboxes.push(update_queue);
            }
            queues.push(queue);
            updates.push(mailboxes);
            gauges.push(gauge);
        }
        Ok(Self {
            rules,
            queues,
            updates,
            gauges,
            completed,
            updates_dropped: AtomicU64::new(0),
            workers_per_shard: per_shard,
            workers,
            started: Instant::now(),
        })
    }

    /// The sharded rule set being served.
    #[must_use]
    pub fn rules(&self) -> &ShardedRuleSet {
        &self.rules
    }

    /// Number of shards (each served by
    /// [`Self::workers_per_shard`] worker threads).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Resolved worker threads per shard.
    #[must_use]
    pub fn workers_per_shard(&self) -> usize {
        self.workers_per_shard
    }

    /// Lookups completed so far (all shards).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Current depth of shard `s`'s queue, in batches.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn queue_depth(&self, s: usize) -> usize {
        self.queues[s].len()
    }

    /// Submits a batch to shard `shard`, blocking while its queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::ServiceClosed`] after shutdown began.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn submit(&self, shard: usize, batch: SearchBatch) -> Result<()> {
        self.gauges[shard]
            .queued_keys
            .fetch_add(batch.keys.len() as u64, Ordering::Relaxed);
        self.queues[shard].push(batch).map_err(|rejected| {
            self.gauges[shard]
                .queued_keys
                .fetch_sub(rejected.keys.len() as u64, Ordering::Relaxed);
            ServeError::ServiceClosed
        })
    }

    /// Submits a batch to shard `shard` **only if its queue has room right
    /// now** — the admission-control path a network front-end uses so that
    /// overload becomes an explicit error on the wire instead of unbounded
    /// queueing (or a blocked accept loop).
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the shard queue is at capacity,
    /// [`ServeError::ServiceClosed`] after shutdown began.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn try_submit(&self, shard: usize, batch: SearchBatch) -> Result<()> {
        self.gauges[shard]
            .queued_keys
            .fetch_add(batch.keys.len() as u64, Ordering::Relaxed);
        self.queues[shard].try_push(batch).map_err(|rejected| {
            let (keys, err) = match rejected {
                TryPushError::Full(b) => (b.keys.len(), ServeError::Overloaded { shard }),
                TryPushError::Closed(b) => (b.keys.len(), ServeError::ServiceClosed),
            };
            self.gauges[shard]
                .queued_keys
                .fetch_sub(keys as u64, Ordering::Relaxed);
            err
        })
    }

    /// Publishes a table snapshot to every worker of shard `shard`,
    /// blocking while a worker's update mailbox is full (update
    /// backpressure). Each worker swaps to it at its next batch boundary,
    /// so the shard's workers converge on the epoch without coordinating.
    ///
    /// # Errors
    ///
    /// [`ServeError::ServiceClosed`] after shutdown began (the update is
    /// counted as dropped once in the final report).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn publish(&self, shard: usize, epoch: u64, table: Arc<PackedTcamArray>) -> Result<()> {
        let update = TableUpdate {
            epoch,
            table,
            submitted: Instant::now(),
        };
        for mailbox in &self.updates[shard] {
            if mailbox.push(update.clone()).is_err() {
                self.updates_dropped.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::ServiceClosed);
            }
        }
        Ok(())
    }

    /// One closed-loop lookup: routes `key`, waits for the worker's reply,
    /// returns the winning rule's global id.
    ///
    /// # Errors
    ///
    /// Routing errors, or [`ServeError::ServiceClosed`].
    pub fn search_blocking(&self, key: &[tcam_core::bit::TernaryBit]) -> Result<Option<u32>> {
        Ok(self.search_with_epoch(key)?.1)
    }

    /// One closed-loop lookup that also reports the epoch of the table
    /// snapshot that served it — the hook the epoch-verified churn tests
    /// use to check that every result is consistent with exactly one
    /// published epoch.
    ///
    /// # Errors
    ///
    /// Routing errors, or [`ServeError::ServiceClosed`].
    pub fn search_with_epoch(
        &self,
        key: &[tcam_core::bit::TernaryBit],
    ) -> Result<(u64, Option<u32>)> {
        if key.len() != self.rules.width() {
            return Err(ServeError::WidthMismatch {
                expected: self.rules.width(),
                found: key.len(),
            });
        }
        // Pack once; routing reads the selector off the packed limbs.
        let packed = PackedWord::pack(key);
        let shard = self.rules.route_packed(&packed)?;
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit(
            shard,
            SearchBatch {
                keys: vec![packed],
                submitted: Instant::now(),
                reply: Some(tx),
                trace: None,
            },
        )?;
        let mut reply = rx.recv().map_err(|_| ServeError::ServiceClosed)?;
        Ok((reply.epoch, reply.results.pop().flatten()))
    }

    /// Stops accepting work, drains the search queues **and any pending
    /// table updates** (a published epoch is applied, never silently
    /// discarded), joins every worker and returns the merged telemetry —
    /// including applied/dropped update counts.
    ///
    /// Shutdown is **idempotent and panic-free**: closing the queues twice
    /// is a no-op, and a worker that panicked (or already exited) is
    /// counted in [`ServeReport::workers_panicked`] instead of poisoning
    /// the caller — the lifecycle contract the network front-end's accept
    /// loops rely on, where `Drop` may race an explicit shutdown.
    #[must_use]
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown_in_place()
    }

    /// The idempotent core of [`Self::shutdown`], shared with `Drop`:
    /// closes every queue (a second close is a no-op), joins whatever
    /// workers are still owned, and merges their stats. After the first
    /// call the worker list is empty, so later calls return an empty
    /// report instead of blocking or panicking.
    fn shutdown_in_place(&mut self) -> ServeReport {
        for queue in &self.queues {
            queue.close();
        }
        for mailbox in self.updates.iter().flatten() {
            mailbox.close();
        }
        let mut panicked = 0u64;
        let stats = self
            .workers
            .drain(..)
            .filter_map(|w| match w.join() {
                Ok(stats) => Some(stats),
                Err(_) => {
                    panicked += 1;
                    None
                }
            })
            .collect();
        let mut report = ServeReport::from_shards(
            stats,
            self.started.elapsed(),
            self.updates_dropped.load(Ordering::Relaxed),
        );
        report.workers_panicked = panicked;
        report
    }
}

impl Drop for TcamService {
    /// Dropping without [`TcamService::shutdown`] still closes the queues
    /// and joins the workers (so no thread outlives the service), it just
    /// discards the telemetry. After an explicit shutdown this is a no-op.
    fn drop(&mut self) {
        let _ = self.shutdown_in_place();
    }
}

struct WorkerCtx {
    shard: usize,
    /// Worker index within the shard (worker 0 owns the refresh clock).
    worker: usize,
    /// Global worker index (`shard * workers_per_shard + worker`), the
    /// label for per-worker registry gauges.
    worker_label: u32,
    rules: Arc<ShardedRuleSet>,
    queue: Arc<BoundedQueue<SearchBatch>>,
    updates: Arc<BoundedQueue<TableUpdate>>,
    gauge: Arc<ShardGauges>,
    completed: Arc<AtomicU64>,
    config: ServiceConfig,
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

/// Applies every pending table update (newest last, in publication
/// order), returning the current snapshot. Called only between batches,
/// so a batch is always served from exactly one epoch.
fn drain_updates(
    updates: &BoundedQueue<TableUpdate>,
    table: &mut Arc<PackedTcamArray>,
    epoch: &mut u64,
    stats: &mut ShardStats,
) {
    let (pending, _) = updates.pop_batch(usize::MAX, Duration::ZERO);
    if pending.is_empty() {
        return;
    }
    let _obs = tcam_obs::span!("serve_swap");
    let t0 = Instant::now();
    let epoch_before = *epoch;
    for update in pending {
        if update.epoch <= *epoch {
            // Stale or duplicate publication: the shard already serves a
            // newer (or this very) epoch, so skip — republication is
            // idempotent rather than a tear hazard.
            continue;
        }
        *table = update.table;
        *epoch = update.epoch;
        stats.updates_applied += 1;
        stats.epoch = update.epoch;
        let wait_ns = u64::try_from(
            Instant::now()
                .saturating_duration_since(update.submitted)
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        stats.update_latency.record(wait_ns);
    }
    if *epoch > epoch_before {
        // Epoch jump at this swap: 1 = caught the very next publication;
        // larger = publications piled up between batch boundaries.
        stats.max_epoch_lag = stats.max_epoch_lag.max(*epoch - epoch_before);
    }
    stats.swap_stall += t0.elapsed();
}

/// Mirrors a worker's coarse state into the global `tcam-obs` registry as
/// labeled gauges (shard-scoped gauges labeled by shard index, the
/// utilization gauge by global worker index). Called at flush boundaries
/// only — never per key — so the registry costs nothing on the match
/// path.
fn publish_gauges(ctx: &WorkerCtx, stats: &ShardStats, shard: u32, worker_start: Instant) {
    #[allow(clippy::cast_precision_loss)]
    {
        tcam_obs::gauge_set_at(
            "serve_queue_depth",
            shard,
            ctx.gauge.queued_keys.load(Ordering::Relaxed) as f64,
        );
        tcam_obs::gauge_set_at("serve_epoch", shard, stats.epoch as f64);
        tcam_obs::gauge_set_at("serve_epoch_lag", shard, stats.max_epoch_lag as f64);
        // Utilization: fraction of this worker's wall clock spent matching
        // batches (refresh/swap/idle excluded).
        let elapsed = worker_start.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            tcam_obs::gauge_set_at(
                "serve_worker_busy_pct",
                ctx.worker_label,
                100.0 * stats.busy.as_secs_f64() / elapsed,
            );
        }
    }
}

/// How many processed batches between registry flushes. Flushing takes the
/// global mutex, so workers amortize it well past the per-batch path.
const FLUSH_EVERY_BATCHES: u64 = 64;

fn run_worker(ctx: &WorkerCtx) -> ShardStats {
    let worker_start = Instant::now();
    let mut table: Arc<PackedTcamArray> = Arc::new(ctx.rules.shard(ctx.shard).clone());
    let mut epoch = ctx.config.initial_epoch;
    let mut stats = ShardStats::new(ctx.shard, table.len());
    stats.epoch = epoch;
    stats.worker = ctx.worker;
    let config = &ctx.config;
    // A physical shard refreshes once per interval no matter how many
    // threads serve it: worker 0 owns the shard's refresh clock, siblings
    // keep draining the queue through the stall.
    let refresh_on = ctx.worker == 0 && !matches!(config.refresh, BankRefresh::None);
    let refresh_interval = config.refresh_interval.max(Duration::from_micros(10));
    let mut next_refresh = Instant::now() + refresh_interval;
    let mut refresh_state = ctx.shard as u64;
    let delayed_ns = config.delayed_threshold.as_nanos() as u64;
    let shard_label = u32::try_from(ctx.shard).unwrap_or(u32::MAX);
    let mut batches_at_last_flush = 0u64;
    // Reused kernel output buffer: the no-reply (open-loop) path never
    // allocates; the reply path takes the buffer and leaves a fresh one.
    let mut kernel_out: Vec<Option<u32>> = Vec::new();

    loop {
        // Snapshot swap point: batches already drained have completed, the
        // next batch sees the newest published epoch.
        drain_updates(&ctx.updates, &mut table, &mut epoch, &mut stats);
        let rows = table.len();
        let now = Instant::now();
        if refresh_on && now >= next_refresh {
            // A refresh event competes with traffic: the shard serves
            // nothing until its ops complete.
            let _obs = tcam_obs::span!("serve_refresh");
            let ops = config.refresh.ops_per_event(rows);
            for _ in 0..ops {
                refresh_state = refresh_op(refresh_state, config.refresh_op_work);
                stats.meter.refresh(&config.costs, config.refresh.op_time());
            }
            let end = Instant::now();
            stats.refresh_events += 1;
            stats.refresh_ops += ops;
            stats.refresh_stall += end - now;
            // Everything queued right now sat through the stall.
            stats.stalled_searches += ctx.gauge.queued_keys.load(Ordering::Relaxed);
            next_refresh += refresh_interval;
            if next_refresh <= end {
                next_refresh = end + refresh_interval;
            }
            continue;
        }

        let timeout = if refresh_on {
            next_refresh.saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        let (batches, closed) = {
            // Idle time (blocking on the queue) is a phase of its own so
            // the span breakdown partitions the worker's whole wall clock.
            let _obs = tcam_obs::span!("serve_idle");
            ctx.queue.pop_batch(config.drain_batches.max(1), timeout)
        };
        if batches.is_empty() {
            if closed {
                // Drain updates published between the last swap point and
                // shutdown: an accepted epoch is applied, not dropped.
                drain_updates(&ctx.updates, &mut table, &mut epoch, &mut stats);
                stats.rows = table.len();
                if tcam_obs::enabled() {
                    // Publish the shard's exact histograms wholesale and
                    // mirror the counters once — the registry view matches
                    // the final `ServeReport` without per-key recording.
                    tcam_obs::hist_merge("serve_latency", &stats.latency);
                    tcam_obs::hist_merge("serve_queue_wait", &stats.queue_wait);
                    tcam_obs::hist_merge("serve_update_latency", &stats.update_latency);
                    tcam_obs::counter_add("serve_searches", stats.searches);
                    tcam_obs::counter_add("serve_batches", stats.batches);
                    tcam_obs::counter_add("serve_refresh_events", stats.refresh_events);
                    tcam_obs::counter_add("serve_updates_applied", stats.updates_applied);
                    publish_gauges(ctx, &stats, shard_label, worker_start);
                    tcam_obs::flush();
                }
                return stats;
            }
            continue;
        }

        let depth = ctx.queue.len() + batches.len();
        stats.max_queue_depth = stats.max_queue_depth.max(depth);
        let t0 = Instant::now();
        let obs_match = tcam_obs::span!("serve_match");
        for batch in batches {
            let n = batch.keys.len() as u64;
            ctx.gauge.queued_keys.fetch_sub(n, Ordering::Relaxed);
            let dequeued = Instant::now();
            let wait_ns = u64::try_from(
                dequeued
                    .saturating_duration_since(batch.submitted)
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX);
            stats.queue_wait.record(wait_ns);
            if wait_ns > delayed_ns {
                stats.delayed_searches += n;
            }
            stats.batches += 1;

            // The whole batch goes through the bit-sliced kernel in one
            // call; telemetry is settled per batch (one clock read, O(1)
            // histogram/meter updates), never per key.
            table.first_match_batch_into(&batch.keys, &mut kernel_out);
            stats.searches += n;
            stats.matched += kernel_out.iter().flatten().count() as u64;
            stats.meter.search_n(&config.costs, n);
            let done = Instant::now();
            if let Some(trace) = &batch.trace {
                // Shard-labeled worker hops for the sampled request: its
                // queue wait and the kernel-match interval, both nesting
                // inside the submitter's gather span by containment.
                trace.hop_labeled("serve_queue", Some(shard_label), batch.submitted, dequeued);
                trace.hop_labeled("serve_match", Some(shard_label), dequeued, done);
            }
            let latency = u64::try_from(
                done.saturating_duration_since(batch.submitted).as_nanos(),
            )
            .unwrap_or(u64::MAX);
            stats.latency.record_n(latency, n);
            ctx.completed.fetch_add(n, Ordering::Relaxed);
            if let Some(reply) = batch.reply {
                // A departed closed-loop caller is not an error.
                let _ = reply.send(BatchReply {
                    epoch,
                    results: std::mem::take(&mut kernel_out),
                });
            }
        }
        drop(obs_match);
        stats.busy += t0.elapsed();
        if tcam_obs::enabled() && stats.batches - batches_at_last_flush >= FLUSH_EVERY_BATCHES {
            // Periodic visibility for long-running services: gauges plus
            // accumulated span phases, amortized far past the batch path.
            batches_at_last_flush = stats.batches;
            publish_gauges(ctx, &stats, shard_label, worker_start);
            tcam_obs::flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use tcam_arch::bank::BankRefresh;

    fn tiny_service(refresh: BankRefresh) -> (Workload, TcamService) {
        let w = Workload::router_lpm(64, 128, 21);
        let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
        let config = ServiceConfig {
            refresh,
            refresh_interval: Duration::from_millis(1),
            ..ServiceConfig::default()
        };
        let service = TcamService::start(rules, &config).unwrap();
        (w, service)
    }

    #[test]
    fn closed_loop_results_match_reference_path() {
        let (w, service) = tiny_service(BankRefresh::None);
        let reference = ShardedRuleSet::build(&w.words, 2).unwrap();
        for key in w.keys.iter().take(64) {
            assert_eq!(
                service.search_blocking(key).unwrap(),
                reference.search(key).unwrap()
            );
        }
        let report = service.shutdown();
        assert_eq!(report.searches(), 64);
        assert_eq!(report.meter.searches, 64);
        assert_eq!(report.refresh_events(), 0);
        assert!(report.latency.count() == 64);
        assert!(report.latency.quantile(50.0) > 0);
    }

    #[test]
    fn refresh_events_fire_while_serving() {
        let (w, service) = tiny_service(BankRefresh::OneShot { op_time: 10e-9 });
        let deadline = Instant::now() + Duration::from_millis(30);
        let mut i = 0;
        while Instant::now() < deadline {
            let _ = service.search_blocking(&w.keys[i % w.keys.len()]).unwrap();
            i += 1;
        }
        let report = service.shutdown();
        assert!(report.refresh_events() > 0, "no refresh events in 30 ms");
        assert_eq!(report.refresh_ops(), report.refresh_events()); // one-shot
        assert!(report.meter.refreshes == report.refresh_ops());
        assert!(report.refresh_stall() > Duration::ZERO);
        assert!(report.meter.energy > 0.0);
    }

    #[test]
    fn row_by_row_runs_rows_ops_per_event() {
        let (_, service) = tiny_service(BankRefresh::RowByRow { op_time: 10e-9 });
        std::thread::sleep(Duration::from_millis(10));
        let report = service.shutdown();
        assert!(report.refresh_events() > 0);
        let per_shard_rows: u64 = report.shards.iter().map(|s| s.rows as u64).sum();
        assert!(per_shard_rows > 0);
        for s in &report.shards {
            if s.refresh_events > 0 {
                assert_eq!(s.refresh_ops, s.refresh_events * s.rows as u64);
            }
        }
    }

    #[test]
    fn published_snapshots_swap_atomically_with_epoch() {
        let (w, service) = tiny_service(BankRefresh::None);
        // Epoch 0 serves the original rules.
        let (epoch, _) = service.search_with_epoch(&w.keys[0]).unwrap();
        assert_eq!(epoch, 0);

        // Publish an empty replacement table to every shard: after the
        // swap, nothing matches and every reply reports epoch 1.
        let width = w.words[0].len();
        for shard in 0..service.shards() {
            let empty = Arc::new(PackedTcamArray::new(width));
            service.publish(shard, 1, empty).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (epoch, hit) = service.search_with_epoch(&w.keys[0]).unwrap();
            if epoch == 1 {
                assert_eq!(hit, None, "epoch 1 table is empty but key matched");
                break;
            }
            assert!(Instant::now() < deadline, "snapshot never swapped in");
        }

        // A pending update published right before shutdown is drained,
        // not dropped: the final report sees its epoch.
        for shard in 0..service.shards() {
            service
                .publish(shard, 2, Arc::new(PackedTcamArray::new(width)))
                .unwrap();
        }
        let report = service.shutdown();
        assert_eq!(report.last_epoch(), 2);
        assert_eq!(report.updates_applied(), 2 * report.shards.len() as u64);
        assert_eq!(report.updates_dropped, 0);
        assert!(report.update_latency.count() >= report.updates_applied());
    }

    #[test]
    fn drain_updates_tracks_epoch_lag_and_swap_stall() {
        let q = BoundedQueue::new(8);
        let mut table = Arc::new(PackedTcamArray::new(8));
        let mut epoch = 0u64;
        let mut stats = ShardStats::new(0, 0);
        for e in [1u64, 3] {
            q.push(TableUpdate {
                epoch: e,
                table: Arc::new(PackedTcamArray::new(8)),
                submitted: Instant::now(),
            })
            .unwrap();
        }
        drain_updates(&q, &mut table, &mut epoch, &mut stats);
        assert_eq!(epoch, 3);
        assert_eq!(stats.updates_applied, 2);
        assert_eq!(stats.max_epoch_lag, 3, "jumped 0 -> 3 in one swap");
        assert!(stats.swap_stall > Duration::ZERO);

        // Catching the very next epoch keeps the max at the worst case.
        q.push(TableUpdate {
            epoch: 4,
            table: Arc::new(PackedTcamArray::new(8)),
            submitted: Instant::now(),
        })
        .unwrap();
        drain_updates(&q, &mut table, &mut epoch, &mut stats);
        assert_eq!(epoch, 4);
        assert_eq!(stats.max_epoch_lag, 3);

        // An empty drain is free: no stall time, no lag change.
        let stall_before = stats.swap_stall;
        drain_updates(&q, &mut table, &mut epoch, &mut stats);
        assert_eq!(stats.swap_stall, stall_before);
    }

    /// Batches submitted without waiting are not lost at shutdown: the
    /// queues drain, so every key is served and timed.
    #[test]
    fn shutdown_drains_queued_multi_key_batches() {
        let (w, service) = tiny_service(BankRefresh::None);
        let mut per_shard: Vec<Vec<PackedWord>> = vec![Vec::new(); service.shards()];
        for key in &w.keys {
            let packed = PackedWord::pack(key);
            per_shard[service.rules().route_packed(&packed).unwrap()].push(packed);
        }
        for _ in 0..8 {
            for (shard, keys) in per_shard.iter().enumerate() {
                let batch = SearchBatch {
                    keys: keys.clone(),
                    submitted: Instant::now(),
                    reply: None,
                    trace: None,
                };
                service.submit(shard, batch).unwrap();
            }
        }
        let report = service.shutdown();
        let submitted = 8 * w.keys.len() as u64;
        assert_eq!(
            report.searches(),
            submitted,
            "shutdown must drain the queues"
        );
        assert_eq!(report.latency.count(), submitted);
    }

    #[test]
    fn worker_pool_serves_correctly_and_converges_on_epochs() {
        let w = Workload::router_lpm(64, 128, 33);
        let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
        let config = ServiceConfig {
            refresh: BankRefresh::None,
            workers_per_shard: 3,
            ..ServiceConfig::default()
        };
        let service = TcamService::start(rules, &config).unwrap();
        assert_eq!(service.workers_per_shard(), 3);

        // Results stay bit-identical to the single-threaded reference no
        // matter which of a shard's workers serves the batch.
        let reference = ShardedRuleSet::build(&w.words, 2).unwrap();
        for key in w.keys.iter().take(64) {
            assert_eq!(
                service.search_blocking(key).unwrap(),
                reference.search(key).unwrap()
            );
        }

        // A published epoch reaches every worker of the shard: after the
        // swap no worker can ever serve the old table.
        let width = w.words[0].len();
        for shard in 0..service.shards() {
            service
                .publish(shard, 1, Arc::new(PackedTcamArray::new(width)))
                .unwrap();
        }
        let shards = service.shards();
        let report = service.shutdown();
        assert_eq!(report.searches(), 64);
        // One ShardStats entry per worker, shard-major, each tagged.
        assert_eq!(report.shards.len(), shards * 3);
        for (i, s) in report.shards.iter().enumerate() {
            assert_eq!(s.shard, i / 3);
            assert_eq!(s.worker, i % 3);
        }
        // Shutdown drains mailboxes: every worker applied epoch 1.
        assert_eq!(report.updates_applied(), (shards * 3) as u64);
        assert_eq!(report.last_epoch(), 1);
        // Refresh clock is owned by worker 0 of each shard only.
        for s in &report.shards {
            assert_eq!(s.refresh_events, 0);
        }
    }

    #[test]
    fn auto_workers_resolve_to_at_least_one() {
        let config = ServiceConfig {
            workers_per_shard: 0,
            ..ServiceConfig::default()
        };
        assert!(config.resolved_workers_per_shard(4) >= 1);
        // Explicit counts pass through untouched.
        let fixed = ServiceConfig {
            workers_per_shard: 5,
            ..ServiceConfig::default()
        };
        assert_eq!(fixed.resolved_workers_per_shard(4), 5);
    }

    #[test]
    fn publish_after_shutdown_counts_as_dropped() {
        let (_, service) = tiny_service(BankRefresh::None);
        for q in service.updates.iter().flatten() {
            q.close();
        }
        let empty = Arc::new(PackedTcamArray::new(8));
        assert!(matches!(
            service.publish(0, 1, empty),
            Err(ServeError::ServiceClosed)
        ));
        let report = service.shutdown();
        assert_eq!(report.updates_dropped, 1);
        assert_eq!(report.updates_applied(), 0);
    }

    #[test]
    fn try_submit_sheds_when_the_queue_is_full() {
        let w = Workload::router_lpm(64, 128, 5);
        let rules = ShardedRuleSet::build(&w.words, 0).unwrap(); // one shard
        let config = ServiceConfig {
            refresh: BankRefresh::None,
            queue_capacity: 1,
            ..ServiceConfig::default()
        };
        let service = TcamService::start(rules, &config).unwrap();
        // Fill the single-slot queue faster than the worker can drain it:
        // at least one try_submit must shed with Overloaded, and shedding
        // must leave the queued-keys gauge consistent (drains back to 0).
        let key = tcam_arch::packed::PackedWord::pack(&w.keys[0]);
        let mut shed = 0u32;
        let mut accepted = 0u64;
        for _ in 0..10_000 {
            let batch = SearchBatch {
                keys: vec![key; 64],
                submitted: Instant::now(),
                reply: None,
                trace: None,
            };
            match service.try_submit(0, batch) {
                Ok(()) => accepted += 64,
                Err(ServeError::Overloaded { shard }) => {
                    assert_eq!(shard, 0);
                    shed += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(shed > 0, "a 1-slot queue never shed under a tight loop");
        let report = service.shutdown();
        assert_eq!(report.searches(), accepted, "shed batches must not serve");
        assert_eq!(report.workers_panicked, 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        // Plain drop without shutdown: must close queues, join workers,
        // and not hang or panic.
        let (_, service) = tiny_service(BankRefresh::None);
        drop(service);

        // Workers already exited (queues closed underneath them):
        // shutdown must still join cleanly and report zero panics.
        let (w, service) = tiny_service(BankRefresh::None);
        let _ = service.search_blocking(&w.keys[0]).unwrap();
        for q in &service.queues {
            q.close();
        }
        for q in service.updates.iter().flatten() {
            q.close();
        }
        std::thread::sleep(Duration::from_millis(20));
        let report = service.shutdown();
        assert_eq!(report.workers_panicked, 0);
        assert_eq!(report.searches(), 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let (w, service) = tiny_service(BankRefresh::None);
        let rules = ShardedRuleSet::build(&w.words, 2).unwrap();
        let shard = rules.route(&w.keys[0]).unwrap();
        let report_service = service;
        // Close queues via shutdown, keeping a handle impossible — so test
        // through a fresh service whose queues we close first.
        let report = report_service.shutdown();
        assert_eq!(report.searches(), 0);
        let _ = shard;
        let (w2, service2) = tiny_service(BankRefresh::None);
        for q in &service2.queues {
            q.close();
        }
        assert!(matches!(
            service2.search_blocking(&w2.keys[0]),
            Err(ServeError::ServiceClosed)
        ));
        let _ = service2.shutdown();
    }
}
