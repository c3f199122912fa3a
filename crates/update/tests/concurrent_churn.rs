//! Zero torn snapshots under a truly concurrent updater and readers.
//!
//! One updater thread drives [`BgpChurn`] batches through
//! [`Updater::apply`] + [`Updater::publish`] into a live
//! [`TcamService`] (two workers per shard, one-shot refresh on a 1 ms
//! clock) while checker threads submit multi-key batches, shard by shard,
//! and compare every result with a single-threaded search of the recorded
//! rule set of exactly the epoch the reply names. A disagreement is a torn
//! snapshot: a batch served from a table other than the one its reply
//! names. (Batches of many keys keep the workers matching most of the
//! time, so a publication lands inside a match — where a swap must not
//! happen — many times a run.)
//!
//! The run is a fixed count of batches, not a time window, and the
//! updater is paced by the checkers' verified-lookup counter (never by a
//! sleep): batch `i` is published only once `LOOKUPS_PER_BATCH * i`
//! replies have been verified, so lookups are in flight across every
//! apply and publish.
//!
//! Two more guarantees follow from where a worker loads its shard's
//! published cell — after it has dequeued work, before it matches — and
//! are asserted here under the same load. *Per-caller monotonic epochs*:
//! a checker's consecutive replies from a shard never go back in epoch,
//! whichever of the shard's two workers serves them. (Shard by shard,
//! because a publication is one store per shard: while it is between two
//! cells, a caller can be answered at `v` by one shard and then at `v − 1`
//! by the next.) *Read-your-writes*: a lookup the updater thread issues
//! right after `publish` of epoch `i + 1` returned is served at `i + 1` or
//! later.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tcam_arch::energy_model::OperationCosts;
use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_serve::service::{SearchBatch, ServiceConfig, TcamService};
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

/// What one checker saw: keys verified, keys whose result disagreed with
/// their reply's epoch's reference, replies naming an older epoch than the
/// same shard's reply before them, and the highest epoch observed.
#[derive(Default)]
struct Seen {
    checked: u64,
    torn: u64,
    backwards: u64,
    max_epoch: u64,
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

/// Loops over the shards, submitting all of `keys` that route to the shard
/// as one batch and verifying the reply, until `done`.
fn run_checker(
    service: &TcamService,
    history: &Mutex<Vec<Arc<ShardedRuleSet>>>,
    keys: &[Vec<TernaryBit>],
    verified: &AtomicU64,
    done: &AtomicBool,
) -> Seen {
    let mut seen = Seen::default();
    let mut by_shard = vec![(Vec::new(), Vec::new()); service.shards()];
    for key in keys {
        let packed = PackedWord::pack(key);
        let shard = service
            .router()
            .route_packed(&packed)
            .expect("routable key");
        by_shard[shard].0.push(key);
        by_shard[shard].1.push(packed);
    }
    let mut last_epoch = vec![0u64; by_shard.len()];
    for shard in (0..by_shard.len()).cycle() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let (keys, packed) = &by_shard[shard];
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let batch = SearchBatch {
            keys: packed.clone(),
            submitted: Instant::now(),
            reply: Some(tx),
            trace: None,
        };
        service.submit(shard, batch).expect("service is live");
        let reply = rx.recv().expect("worker replies");
        let reference = recorded(history, reply.epoch);
        for (key, hit) in keys.iter().zip(reply.results) {
            seen.torn += u64::from(hit != reference.search(key).expect("routable key"));
        }
        seen.backwards += u64::from(reply.epoch < last_epoch[shard]);
        last_epoch[shard] = reply.epoch;
        seen.checked += keys.len() as u64;
        seen.max_epoch = seen.max_epoch.max(reply.epoch);
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
        let stop = StopOnDrop(&done);
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
            // Read-your-writes, from the publishing thread itself.
            let key = churn.random_key();
            let (epoch, hit) = service.search_with_epoch(&key).expect("service is live");
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
        assert_eq!(
            s.backwards, 0,
            "checker {c}: a shard's replies went back in epoch"
        );
    }
    assert!(
        seen.iter().any(|s| s.max_epoch > 0),
        "no checker ever observed a published epoch"
    );
    assert_eq!(report.workers_panicked, 0);
    assert_eq!(report.last_epoch(), BATCHES);
    // Every worker ends on the last published epoch (it loads the cell
    // once more on the way out), having swapped at most once per
    // publication: epochs that superseded each other between two of its
    // swap points cost it one swap.
    assert_eq!(report.shards.len(), workers);
    for w in &report.shards {
        assert!(
            w.epoch == BATCHES && w.updates_applied <= BATCHES,
            "shard {} worker {}: epoch {} after {} swaps",
            w.shard,
            w.worker,
            w.epoch,
            w.updates_applied
        );
    }
    assert_eq!(
        report.searches(),
        seen.iter().map(|s| s.checked).sum::<u64>() + BATCHES
    );
}
