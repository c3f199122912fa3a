//! Zero torn snapshots under a truly concurrent updater and readers.
//!
//! One updater thread drives [`BgpChurn`] batches through
//! [`Updater::apply`] + [`Updater::publish`] into a live
//! [`TcamService`] (one-shot refresh on a 1 ms clock) while checker
//! threads look up multi-key batches, each matched on the checker's own
//! thread, and compare every result with a single-threaded search of the
//! recorded rule set of exactly the epoch the reply names. Each recorded
//! rule set is rebuilt from a [`RuleStore`] that applies the same
//! batches, so it shares no table with the one the updater publishes (a
//! clone of the updater's shadow would). A disagreement
//! is a torn snapshot: a batch served from a table other than the one its
//! reply names. (Batches of many keys keep the matchers busy most of the
//! time, so a publication lands inside a match many times a run.)
//!
//! The run is a fixed count of batches, not a time window, and the
//! updater is paced by the checkers' verified-lookup counter (never by a
//! sleep): batch `i` is published only once `LOOKUPS_PER_BATCH * i`
//! replies have been verified, so lookups are in flight across every
//! apply and publish.
//!
//! Two more guarantees follow from where the published cell is loaded —
//! once per lookup, before it matches — and are asserted here under the
//! same load. *Per-caller monotonic epochs*: a checker's consecutive
//! replies never go back in epoch. *Read-your-writes*: a lookup the
//! updater thread issues right after `publish` of epoch `i + 1` returned
//! is served at `i + 1` or later.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tcam_arch::bank::BankRefresh;
use tcam_arch::energy_model::OperationCosts;
use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_serve::service::{ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_update::churn::BgpChurn;
use tcam_update::publish::Updater;
use tcam_update::store::RuleStore;

const BATCHES: u64 = 150;
const BATCH_SIZE: usize = 16;
const CHECKERS: usize = 3;
const LOOKUPS_PER_BATCH: u64 = 8;

/// What one checker saw: keys verified, keys whose result disagreed with
/// their reply's epoch's reference, replies naming an older epoch than the
/// reply before them, and the highest epoch observed.
#[derive(Default)]
struct Seen {
    checked: u64,
    torn: u64,
    backwards: u64,
    max_epoch: u64,
}

/// The rule set `mirror` holds, rebuilt as a table of its own.
fn rebuilt(mirror: &RuleStore) -> Arc<ShardedRuleSet> {
    Arc::new(ShardedRuleSet::from_prioritized(&mirror.rules_vec(), 0).expect("rules build"))
}

/// The recorded rule set of epoch `epoch`. History is appended before
/// publish, so a served epoch is always on record.
fn recorded(history: &Mutex<Vec<Arc<ShardedRuleSet>>>, epoch: u64) -> Arc<ShardedRuleSet> {
    Arc::clone(&history.lock().expect("history lock")[usize::try_from(epoch).expect("epoch fits")])
}

/// Sets the checkers' stop flag when dropped, so an assertion that fails
/// on the updater's side fails the test instead of leaving the scope
/// waiting on checkers that were never told to stop.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Looks up all of `keys` as one batch on the calling thread, verifying
/// each reply, until `done`.
fn run_checker(
    service: &TcamService,
    history: &Mutex<Vec<Arc<ShardedRuleSet>>>,
    keys: &[Vec<TernaryBit>],
    verified: &AtomicU64,
    done: &AtomicBool,
) -> Seen {
    let mut seen = Seen::default();
    let packed: Vec<PackedWord> = keys.iter().map(|k| PackedWord::pack(k)).collect();
    let mut last_epoch = 0u64;
    while !done.load(Ordering::SeqCst) {
        let reply = service.answer_here(&packed, None);
        let reference = recorded(history, reply.epoch);
        for (key, hit) in keys.iter().zip(reply.results) {
            seen.torn += u64::from(hit != reference.search(key).expect("key of the table's width"));
        }
        seen.backwards += u64::from(reply.epoch < last_epoch);
        last_epoch = reply.epoch;
        seen.checked += keys.len() as u64;
        seen.max_epoch = seen.max_epoch.max(reply.epoch);
        verified.fetch_add(1, Ordering::SeqCst);
    }
    seen
}

#[test]
fn concurrent_churn_never_tears_a_snapshot() {
    let mut churn = BgpChurn::new(16, 512, 1);
    let mut mirror = RuleStore::from_rules(&churn.initial()).unwrap();
    let mut updater = Updater::new(mirror.clone(), 0, OperationCosts::paper_3t2n()).unwrap();
    let config = ServiceConfig {
        refresh: BankRefresh::OneShot { op_time: 10e-9 },
        refresh_interval: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let service = updater.start_service(&config).unwrap();
    let history = Mutex::new(vec![rebuilt(&mirror)]);
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
        let stop = StopOnDrop(&done);
        for i in 0..BATCHES {
            while verified.load(Ordering::SeqCst) < LOOKUPS_PER_BATCH * i {
                std::thread::yield_now();
            }
            let batch = churn.next_batch(BATCH_SIZE);
            let staged = updater.apply(&batch).unwrap();
            assert_eq!(staged.epoch, i + 1);
            assert_eq!(mirror.apply(&batch), Ok(staged.epoch));
            history.lock().expect("history lock").push(rebuilt(&mirror));
            updater.publish(&service).expect("service is live");
            // Read-your-writes, from the publishing thread itself.
            let key = churn.random_key();
            let (epoch, hit) = service
                .search_with_epoch(&key)
                .expect("key of the table's width");
            assert!(
                epoch > i,
                "lookup after publish({}) returned was served at epoch {epoch}",
                i + 1
            );
            assert_eq!(hit, recorded(&history, epoch).search(&key).unwrap(), "torn");
        }
        // Keep readers running past the last publish so the final epochs
        // are verified under load too.
        while verified.load(Ordering::SeqCst) < LOOKUPS_PER_BATCH * (BATCHES + 1) {
            std::thread::yield_now();
        }
        drop(stop);
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
            "checker {c}: torn results among {} keys",
            s.checked
        );
        assert_eq!(s.backwards, 0, "checker {c}: replies went back in epoch");
    }
    assert!(
        seen.iter().any(|s| s.max_epoch > 0),
        "no checker ever observed a published epoch"
    );
    assert!(!report.clock_panicked);
    // The cell accepted every publication and holds the last one.
    assert_eq!(
        (report.stats.epoch, report.stats.updates_applied),
        (BATCHES, BATCHES)
    );
    assert_eq!(
        report.stats.searches,
        seen.iter().map(|s| s.checked).sum::<u64>() + BATCHES
    );
}
