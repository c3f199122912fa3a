//! The serving pool: one table, one published-snapshot cell that rule
//! updates swap whole tables through, lookups matched on the caller's
//! thread, and one thread that keeps the refresh clock. The table is a
//! bit-packed ternary array ([`PackedTcamArray`]), and
//! [`TcamService`](crate::service::TcamService) is this pool plus the
//! table's word width.
//!
//! # Execution model
//!
//! Every lookup is matched **on the calling thread**:
//! [`ShardPool::answer_here`] loads the published snapshot and matches its
//! keys in one kernel call ([`PackedTcamArray::first_match_batch_into`])
//! — no queue, no hand-off, no reply channel. This is how the wire
//! front-end serves every lookup: its connection readers are the cores a
//! table is spread across. Telemetry is settled per call, not per key
//! ([`LatencyHistogram::record_n`](tcam_obs::LatencyHistogram::record_n)),
//! into the pool's one counter block ([`ShardStats`]), which
//! [`ShardPool::shutdown`] takes as the [`ServeReport`].
//! [`ShardPool::submit`] is the same match behind a [`SearchBatch`].
//!
//! # Refresh under load
//!
//! A dynamic TCAM must refresh within every retention interval, and the
//! paper's one-shot scheme exists so that doing so barely interrupts
//! traffic. Here refresh is a *scheduled event on the pool's one thread*,
//! the refresh clock: it sleeps until the next deadline, then holds the
//! table's refresh lock for the event, so a lookup waits it out (and
//! counts its keys in [`ShardStats::stalled_searches`]), and an event
//! never overlaps a match. An event is sized by the [`BankRefresh`]
//! policy (1 op one-shot, `rows` ops row-by-row), each op
//! `refresh_op_work` units of real work, and metered once through
//! [`WorkloadMeter::refresh`](tcam_arch::energy_model::WorkloadMeter::refresh),
//! which prices each op by [`BankRefresh::op_energy`] as the
//! interference simulation does: a row-by-row event stalls the table
//! ~`rows`× longer — the paper's argument, measured. The clock does
//! nothing else. Its first deadline is one interval after
//! [`ShardPool::start`], and an event that fell due
//! before shutdown runs before the clock stops, however late the clock
//! thread is scheduled: a pool that lives longer than one interval has
//! refreshed at least once. Each event records how late it began — when
//! the clock held the lock, minus the deadline — in
//! [`ShardStats::refresh_lateness`], so lookups that hold the clock off
//! show as lateness, not only as fewer events.
//!
//! # Online updates: the published-snapshot cell
//!
//! Rule updates never mutate a table a reader is using. A publisher (the
//! `tcam-update` crate's `Updater`) builds a complete replacement table
//! and [`publishes`](ShardPool::publish) it under a monotonically
//! increasing **epoch**: one store into the cell, which holds exactly one
//! `(epoch, Arc<table>)` — the newest. As with one-shot refresh, one
//! whole-table operation supersedes any number of earlier ones, so
//! nothing queues: a stale or repeated epoch is refused at the cell.
//! Lookups share the cell's `Arc`; none owns a copy.
//!
//! A lookup loads the cell **once, before its match**. That one rule gives
//! three guarantees:
//!
//! * **no torn table**: a lookup is served entirely from one immutable
//!   snapshot whose epoch the reply reports ([`BatchReply::epoch`]), so the
//!   result is what a single-threaded search of that epoch's rules returns;
//! * **read-your-writes**: a lookup that starts after `publish(v)`
//!   returned is served at an epoch ≥ v — its load takes the cell's lock
//!   after the publisher's store released it;
//! * **per-caller monotonic epochs**: a caller's consecutive lookups load
//!   the cell in order, and the cell's epoch only grows, so their replies
//!   never go back in epoch.
//!
//! `tcam-update`'s `concurrent_churn` test holds all three under a live
//! updater.

use crate::error::Result;
use crate::telemetry::{ServeReport, ShardStats};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcam_arch::bank::BankRefresh;
use tcam_arch::energy_model::OperationCosts;
use tcam_arch::packed::{PackedTcamArray, PackedWord};
use tcam_obs::RequestTrace;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
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
            refresh: BankRefresh::OneShot { op_time: 10e-9 },
            refresh_interval: Duration::from_millis(5),
            refresh_op_work: 512,
            costs: OperationCosts::paper_3t2n(),
        }
    }
}

/// A batch of packed search keys for [`ShardPool::submit`].
pub struct SearchBatch {
    /// The keys.
    pub keys: Vec<PackedWord>,
    /// When the caller built the batch. Not read: the lookup's latency is
    /// timed by the match itself.
    pub submitted: Instant,
    /// Where the reply goes; `None` discards it (the keys are still
    /// matched and counted).
    pub reply: Option<SyncSender<BatchReply>>,
    /// The sampled request's hop collector, when the caller carries one:
    /// the match records its `serve_match` hop into it. `None` (the
    /// common case) costs nothing on the match path.
    pub trace: Option<Arc<tcam_obs::RequestTrace>>,
}

/// The answer to one lookup: the serving epoch and the winning rule id
/// per key.
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
#[derive(Clone)]
struct Published {
    epoch: u64,
    table: Arc<PackedTcamArray>,
}

/// The published-snapshot cell: the newest snapshot behind a lock.
struct Cell(Mutex<Published>);

impl Cell {
    fn new(epoch: u64, table: Arc<PackedTcamArray>) -> Self {
        Self(Mutex::new(Published { epoch, table }))
    }

    /// Replaces the snapshot if `epoch` is newer than the one held;
    /// returns whether it did. Republication is idempotent, and an older
    /// epoch can never overwrite a newer one.
    fn publish(&self, epoch: u64, table: Arc<PackedTcamArray>) -> bool {
        let mut slot = self
            .0
            .lock()
            .expect("cell lock is never held across a panic");
        if epoch <= slot.epoch {
            return false;
        }
        *slot = Published { epoch, table };
        true
    }

    fn load(&self) -> Published {
        self.0
            .lock()
            .expect("cell lock is never held across a panic")
            .clone()
    }
}

/// What the lookups, the publisher and the refresh clock share.
struct Shard {
    cell: Cell,
    /// Written by the refresh clock for the length of an event, read by a
    /// lookup for the length of its match.
    refreshing: RwLock<()>,
    /// The table's counters: lookups, publications and refresh events
    /// write them, shutdown takes them.
    stats: Mutex<ShardStats>,
    /// Set once at shutdown; the refresh clock waits on it between
    /// events.
    stop: Mutex<bool>,
    stopped: Condvar,
}

impl Shard {
    fn stats(&self) -> MutexGuard<'_, ShardStats> {
        self.stats
            .lock()
            .expect("stats lock is never held across a panic")
    }

    /// Waits until shutdown or `deadline` (`None`: shutdown only);
    /// returns whether shutdown came first.
    fn wait_for_stop(&self, deadline: Option<Instant>) -> bool {
        const POISONED: &str = "stop lock is never held across a panic";
        let stop = self.stop.lock().expect(POISONED);
        let running = |stop: &mut bool| !*stop;
        let stop = match deadline {
            None => self.stopped.wait_while(stop, running).expect(POISONED),
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                let (stop, _) = self
                    .stopped
                    .wait_timeout_while(stop, timeout, running)
                    .expect(POISONED);
                stop
            }
        };
        *stop
    }
}

/// The running pool. Dropping without [`ShardPool::shutdown`] stops and
/// joins the refresh clock (discarding the telemetry); shutdown and drop
/// are both idempotent, in any order.
pub struct ShardPool {
    shard: Arc<Shard>,
    clock: Option<JoinHandle<()>>,
    /// Prices the searches lookups account.
    costs: OperationCosts,
}

impl ShardPool {
    /// Publishes `table` at `epoch` and starts the refresh clock.
    ///
    /// # Panics
    ///
    /// Panics when the OS refuses to spawn a thread.
    #[must_use]
    pub fn start(table: Arc<PackedTcamArray>, epoch: u64, config: &ServiceConfig) -> Self {
        let shard = Arc::new(Shard {
            cell: Cell::new(epoch, table),
            refreshing: RwLock::new(()),
            stats: Mutex::default(),
            stop: Mutex::new(false),
            stopped: Condvar::new(),
        });
        let (clock_shard, config_copy) = (Arc::clone(&shard), *config);
        let started = Instant::now();
        let clock = std::thread::Builder::new()
            .name("tcam-refresh".into())
            .spawn(move || run_clock(&clock_shard, &config_copy, started))
            .expect("spawn refresh clock");
        Self {
            shard,
            clock: Some(clock),
            costs: config.costs,
        }
    }

    /// Answers `batch` through [`Self::answer_here`] and sends the reply on
    /// `batch.reply`, if any, before returning. `shard` is the index the
    /// sharded pool took; the one table is shard 0. A reply channel with
    /// no room (a rendezvous channel) gets no reply, and its receiver sees
    /// the sender gone instead of blocking.
    ///
    /// # Errors
    ///
    /// None: the `Result` is the signature callers already propagate.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is not 0.
    pub fn submit(&self, shard: usize, batch: SearchBatch) -> Result<()> {
        assert_eq!(
            shard, 0,
            "a pool serves one table: shard {shard} does not exist"
        );
        let reply = self.answer_here(&batch.keys, batch.trace.as_deref());
        if let Some(tx) = batch.reply {
            // A departed caller is not an error.
            let _ = tx.try_send(reply);
        }
        Ok(())
    }

    /// Answers `keys` **on the calling thread** from the published
    /// snapshot. The cell is loaded once, before the match, so the reply
    /// keeps every epoch guarantee (module docs). A refresh event in
    /// progress is waited out, and the keys are then counted in
    /// [`ShardStats::stalled_searches`]. Searches, matches, latency and
    /// energy go to the pool's counters. A sampled request's `trace` gets
    /// a `serve_match` hop spanning the call.
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
        published.table.first_match_batch_into(keys, &mut results);
        let matched = results.iter().flatten().count() as u64;
        drop(event_over);
        let done = Instant::now();
        let n = keys.len() as u64;
        {
            let mut stats = target.stats();
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
    /// the cell. Returns `false` — and changes nothing — when the cell
    /// already holds that epoch or a newer one. Once this returns, every
    /// lookup that starts afterwards is served at `epoch` or later.
    pub fn publish(&self, epoch: u64, table: Arc<PackedTcamArray>) -> bool {
        let accepted = self.shard.cell.publish(epoch, table);
        if accepted {
            self.shard.stats().updates_applied += 1;
        }
        accepted
    }

    /// Stops and joins the refresh clock and returns the table's
    /// telemetry, its `epoch` and `rows` read from the cell, so
    /// [`ShardStats::epoch`] is the last published epoch.
    ///
    /// Shutdown is **idempotent and panic-free**: a clock thread that
    /// panicked is reported in [`ServeReport::clock_panicked`] instead of
    /// poisoning the caller — the lifecycle contract the network
    /// front-end relies on, where `Drop` may race an explicit
    /// shutdown.
    #[must_use]
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown_in_place()
    }

    /// The idempotent core of [`Self::shutdown`], shared with `Drop`:
    /// stops and joins the clock if it is still owned and takes the
    /// counters. After the first call no clock is owned, so later calls
    /// return an empty report instead of blocking or panicking.
    fn shutdown_in_place(&mut self) -> ServeReport {
        let Some(clock) = self.clock.take() else {
            return ServeReport::default();
        };
        *self
            .shard
            .stop
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shard.stopped.notify_all();
        let clock_panicked = clock.join().is_err();
        let mut stats = std::mem::take(
            &mut *self
                .shard
                .stats
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let published = self.shard.cell.load();
        stats.epoch = published.epoch;
        stats.rows = published.table.len();
        if tcam_obs::enabled() {
            // Publish the exact histogram wholesale and mirror the
            // counters once: the registry view matches the report without
            // per-key recording.
            tcam_obs::hist_merge("serve_latency", &stats.latency);
            tcam_obs::hist_merge("serve_refresh_lateness", &stats.refresh_lateness);
            tcam_obs::counter_add("serve_searches", stats.searches);
            tcam_obs::counter_add("serve_batches", stats.batches);
            tcam_obs::counter_add("serve_refresh_events", stats.refresh_events);
            tcam_obs::counter_add("serve_updates_applied", stats.updates_applied);
            #[allow(clippy::cast_precision_loss)]
            tcam_obs::gauge_set("serve_epoch", stats.epoch as f64);
            tcam_obs::flush();
        }
        ServeReport {
            stats,
            clock_panicked,
        }
    }
}

impl Drop for ShardPool {
    /// Dropping without [`ShardPool::shutdown`] still stops and joins the
    /// clock (so no thread outlives the pool), it just discards the
    /// telemetry. After an explicit shutdown this is a no-op.
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

/// `from → to` in nanoseconds (0 when `to` is earlier).
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The refresh clock: sleeps until the next deadline (until shutdown when
/// refresh is off), the first one interval after `started`, then runs one
/// event under the write side of the refresh lock, recording how late
/// the event began against its deadline. A deadline that has passed when
/// the clock sees the shutdown still gets its event, however late the
/// thread was scheduled. Its two spans, `serve_idle` and
/// `serve_refresh`, partition its lifetime.
fn run_clock(shard: &Shard, config: &ServiceConfig, started: Instant) {
    let refresh_on = !matches!(config.refresh, BankRefresh::None);
    let interval = config.refresh_interval.max(Duration::from_micros(10));
    let mut next_refresh = started + interval;
    let mut refresh_state = 0u64;
    loop {
        let stopping = {
            let _obs = tcam_obs::span!("serve_idle");
            shard.wait_for_stop(refresh_on.then_some(next_refresh))
        };
        if stopping && !(refresh_on && Instant::now() >= next_refresh) {
            break;
        }
        // A refresh event competes with traffic: the table serves nothing
        // until its ops complete — lookups wait on the lock.
        let _obs = tcam_obs::span!("serve_refresh");
        let start = Instant::now();
        let event = shard
            .refreshing
            .write()
            .expect("refresh lock is never held across a panic");
        let begun = Instant::now();
        let ops = config.refresh.ops_per_event(shard.cell.load().table.len());
        for _ in 0..ops {
            refresh_state = refresh_op(refresh_state, config.refresh_op_work);
        }
        drop(event);
        let end = Instant::now();
        {
            let mut stats = shard.stats();
            stats.meter.refresh(&config.costs, &config.refresh, ops);
            stats.refresh_events += 1;
            stats.refresh_ops += ops;
            stats.refresh_stall += end - start;
            stats.refresh_lateness.record(nanos(next_refresh, begun));
        }
        if stopping {
            break;
        }
        next_refresh += interval;
        if next_refresh <= end {
            next_refresh = end + interval;
        }
    }
    if tcam_obs::enabled() {
        // The clock's phase totals live in this thread's buffer.
        tcam_obs::flush();
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
    fn cell_refuses_stale_epochs() {
        let cell = Cell::new(0, table());

        // Epochs 1 and 3 supersede each other in the cell.
        let third = table();
        assert!(cell.publish(1, table()));
        assert!(cell.publish(3, Arc::clone(&third)));
        let current = cell.load();
        assert_eq!(current.epoch, 3);
        assert!(Arc::ptr_eq(&current.table, &third));

        // A repeated or older epoch is refused at the cell and the table
        // offered with it never becomes visible.
        assert!(!cell.publish(3, table()));
        assert!(!cell.publish(2, table()));
        assert!(Arc::ptr_eq(&cell.load().table, &third));
        assert!(cell.publish(4, table()));
        assert_eq!(cell.load().epoch, 4);
    }
}
