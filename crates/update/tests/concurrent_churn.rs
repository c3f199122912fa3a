//! Zero torn snapshots under a truly concurrent updater and readers.
//!
//! One updater thread drives [`BgpChurn`] batches through
//! [`Updater::apply`] + [`Updater::publish`] into a live
//! [`TcamService`] (two workers per shard, one-shot refresh on a 1 ms
//! clock) while checker threads loop [`TcamService::search_with_epoch`]
//! and compare every reply with a single-threaded search of the recorded
//! rule set of exactly the epoch that served it. A disagreement is a torn
//! snapshot: a batch served from a table other than the one its reply
//! names.
//!
//! The run is a fixed count of batches, not a time window, and the
//! updater is paced by the checkers' verified-lookup counter (never by a
//! sleep): batch `i` is published only once `LOOKUPS_PER_BATCH * i`
//! replies have been verified, so lookups are in flight across every
//! apply and publish.
//!
//! Epoch order is asserted per *worker*, not per checker: a shard's
//! workers swap independently at their own batch boundaries, so one
//! caller's consecutive replies may come from a worker that has swapped
//! and then one that has not (routinely observed here) — each reply is
//! still exact for the epoch it names, which is the guarantee.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tcam_arch::energy_model::OperationCosts;
use tcam_core::bit::TernaryBit;
use tcam_serve::service::{ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::BankRefresh;
use tcam_update::churn::BgpChurn;
use tcam_update::publish::Updater;
use tcam_update::store::RuleStore;

const BATCHES: u64 = 150;
const BATCH_SIZE: usize = 16;
const CHECKERS: usize = 3;
const LOOKUPS_PER_BATCH: u64 = 8;
const WORKERS_PER_SHARD: usize = 2;

/// What one checker saw: replies verified, replies that disagreed with
/// their epoch's reference, and the highest epoch observed.
struct Seen {
    checked: u64,
    torn: u64,
    max_epoch: u64,
}

fn run_checker(
    service: &TcamService,
    history: &Mutex<Vec<Arc<ShardedRuleSet>>>,
    keys: &[Vec<TernaryBit>],
    verified: &AtomicU64,
    done: &AtomicBool,
) -> Seen {
    let mut seen = Seen {
        checked: 0,
        torn: 0,
        max_epoch: 0,
    };
    for key in keys.iter().cycle() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let (epoch, hit) = service.search_with_epoch(key).expect("service is live");
        // History is appended before publish, so a served epoch is
        // always on record.
        let reference = Arc::clone(
            &history.lock().expect("history lock")[usize::try_from(epoch).expect("epoch fits")],
        );
        if hit != reference.search(key).expect("routable key") {
            seen.torn += 1;
        }
        seen.checked += 1;
        seen.max_epoch = seen.max_epoch.max(epoch);
        verified.fetch_add(1, Ordering::SeqCst);
    }
    seen
}

#[test]
fn concurrent_churn_never_tears_a_snapshot() {
    let mut churn = BgpChurn::new(16, 512, 1);
    let store = RuleStore::from_rules(&churn.initial()).unwrap();
    let mut updater = Updater::new(store, 1, OperationCosts::paper_3t2n()).unwrap();
    let config = ServiceConfig {
        workers_per_shard: WORKERS_PER_SHARD,
        refresh: BankRefresh::OneShot { op_time: 10e-9 },
        refresh_interval: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let service = updater.start_service(&config).unwrap();
    let workers = service.shards() * WORKERS_PER_SHARD;
    let history = Mutex::new(vec![Arc::new(updater.snapshot().clone())]);
    let key_pools: Vec<Vec<Vec<TernaryBit>>> = (0..CHECKERS)
        .map(|_| (0..256).map(|_| churn.random_key()).collect())
        .collect();
    let verified = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    let seen: Vec<Seen> = std::thread::scope(|scope| {
        let checkers: Vec<_> = key_pools
            .iter()
            .map(|keys| scope.spawn(|| run_checker(&service, &history, keys, &verified, &done)))
            .collect();
        for i in 0..BATCHES {
            while verified.load(Ordering::SeqCst) < LOOKUPS_PER_BATCH * i {
                std::thread::yield_now();
            }
            let staged = updater.apply(&churn.next_batch(BATCH_SIZE)).unwrap();
            assert_eq!(staged.epoch, i + 1);
            history
                .lock()
                .expect("history lock")
                .push(Arc::new(updater.snapshot().clone()));
            updater.publish(&service).expect("service is live");
        }
        // Keep readers running past the last publish so the final epochs
        // are verified under load too.
        while verified.load(Ordering::SeqCst) < LOOKUPS_PER_BATCH * (BATCHES + 1) {
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
        checkers
            .into_iter()
            .map(|c| c.join().expect("checker panicked"))
            .collect()
    });
    let report = service.shutdown();

    for (c, s) in seen.iter().enumerate() {
        assert!(s.checked > 0, "checker {c} verified nothing");
        assert_eq!(
            s.torn, 0,
            "checker {c}: torn snapshots in {} replies",
            s.checked
        );
    }
    assert!(
        seen.iter().any(|s| s.max_epoch > 0),
        "no checker ever observed a published epoch"
    );
    assert_eq!(report.updates_dropped, 0);
    assert_eq!(report.workers_panicked, 0);
    assert_eq!(report.last_epoch(), BATCHES);
    // Every worker applied every epoch exactly once: a stale or repeated
    // publication is skipped, so `BATCHES` applications ending at epoch
    // `BATCHES` means each worker stepped 1, 2, …, BATCHES in order.
    assert_eq!(report.shards.len(), workers);
    for w in &report.shards {
        assert_eq!(
            (w.updates_applied, w.epoch),
            (BATCHES, BATCHES),
            "shard {} worker {}",
            w.shard,
            w.worker
        );
    }
    assert_eq!(
        report.searches(),
        seen.iter().map(|s| s.checked).sum::<u64>()
    );
}
