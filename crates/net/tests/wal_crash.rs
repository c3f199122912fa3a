//! WAL crash-consistency: the interleaved write / kill / recover oracle.
//!
//! The property under test (DESIGN.md §12.2): **recovery always lands on
//! an exact batch boundary**. After any crash — simulated here both as a
//! plain process death (drop without cleanup; every applied batch was
//! fsynced) and as a *torn final write* (the WAL truncated at an
//! arbitrary byte) — the recovered store must equal the oracle's state
//! at some applied-batch version `v`: never a half-applied batch, never
//! a lost batch below `v`, and for the no-tear case `v` must be exactly
//! the last applied version (durability).

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::PathBuf;
use tcam_core::bit::TernaryBit;
use tcam_net::wal::{DurableStore, WAL_FILE};
use tcam_numeric::rng::SplitMix64;
use tcam_update::store::{RuleChange, RuleStore};

/// Flattened (priority → word) view of one namespace at one version.
type NsState = BTreeMap<u32, Vec<TernaryBit>>;

/// The oracle: per namespace, every state the store has ever been in,
/// indexed by version (`states[v]` = rules after `v` applied batches).
#[derive(Default)]
struct Oracle {
    namespaces: BTreeMap<u16, Vec<NsState>>,
}

impl Oracle {
    fn latest(&self, ns: u16) -> NsState {
        self.namespaces
            .get(&ns)
            .and_then(|h| h.last().cloned())
            .unwrap_or_default()
    }

    fn record(&mut self, ns: u16, state: NsState) {
        self.namespaces
            .entry(ns)
            .or_insert_with(|| vec![NsState::new()])
            .push(state);
    }

    /// Rewinds a namespace's history to end at `version` (after a torn
    /// tail dropped later batches, they will be regenerated differently).
    fn rewind(&mut self, ns: u16, version: u64) {
        if let Some(history) = self.namespaces.get_mut(&ns) {
            history.truncate(usize::try_from(version).unwrap() + 1);
        }
    }
}

fn random_word(rng: &mut SplitMix64, width: usize) -> Vec<TernaryBit> {
    (0..width)
        .map(|_| match rng.below(3) {
            0 => TernaryBit::Zero,
            1 => TernaryBit::One,
            _ => TernaryBit::X,
        })
        .collect()
}

/// A random valid batch against `state` (insert fresh priorities, remove
/// or modify existing ones), mirroring it onto the oracle state.
fn random_batch(rng: &mut SplitMix64, state: &mut NsState, width: usize) -> Vec<RuleChange> {
    let len = 1 + rng.below(4) as usize;
    let mut batch = Vec::with_capacity(len);
    for _ in 0..len {
        let occupied: Vec<u32> = state.keys().copied().collect();
        let op = rng.below(if occupied.is_empty() { 1 } else { 3 });
        match op {
            0 => {
                let mut priority = rng.below(10_000) as u32;
                while state.contains_key(&priority) {
                    priority = rng.below(10_000) as u32;
                }
                let word = random_word(rng, width);
                state.insert(priority, word.clone());
                batch.push(RuleChange::Insert { priority, word });
            }
            1 => {
                let priority = occupied[rng.below(occupied.len() as u64) as usize];
                state.remove(&priority);
                batch.push(RuleChange::Remove { priority });
            }
            _ => {
                let priority = occupied[rng.below(occupied.len() as u64) as usize];
                let word = random_word(rng, width);
                state.insert(priority, word.clone());
                batch.push(RuleChange::Modify { priority, word });
            }
        }
    }
    batch
}

fn store_ns_state(store: &DurableStore, ns: u16) -> NsState {
    store
        .store(ns)
        .map(|s| s.rules_vec().into_iter().collect())
        .unwrap_or_default()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tcam-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checks every namespace of a recovered store against the oracle:
/// its version must index a recorded state, and the rules must match it
/// exactly. Returns the per-namespace recovered versions.
fn assert_consistent(store: &DurableStore, oracle: &Oracle, context: &str) -> BTreeMap<u16, u64> {
    let mut versions = BTreeMap::new();
    for (&ns, history) in &oracle.namespaces {
        let version = store.store(ns).map_or(0, RuleStore::version);
        let v = usize::try_from(version).unwrap();
        assert!(
            v < history.len(),
            "{context}: namespace {ns} recovered to version {version}, only {} ever applied",
            history.len() - 1
        );
        assert_eq!(
            store_ns_state(store, ns),
            history[v],
            "{context}: namespace {ns} at version {version} is not the batch-boundary state"
        );
        versions.insert(ns, version);
    }
    versions
}

#[test]
fn interleaved_write_kill_recover_never_tears_or_loses_a_batch() {
    let widths: BTreeMap<u16, usize> = [(0u16, 8usize), (7, 16)].into();
    let dir = tmpdir("oracle");
    let mut rng = SplitMix64::new(0xD7CA_2026);
    let mut oracle = Oracle::default();
    let mut store = DurableStore::open(&dir).unwrap();

    for round in 0..400u32 {
        // Write: a random batch against a random namespace.
        let ns = if rng.below(2) == 0 { 0u16 } else { 7 };
        let width = widths[&ns];
        let mut state = oracle.latest(ns);
        let batch = random_batch(&mut rng, &mut state, width);
        store.apply(ns, width, &batch).unwrap();
        oracle.record(ns, state);

        // Occasionally compact: the crash windows around snapshotting are
        // part of the surface under test.
        if rng.below(40) == 0 {
            store.snapshot().unwrap();
        }

        match rng.below(8) {
            // Kill (clean): drop and reopen. fsync-per-batch durability
            // demands the EXACT latest state — nothing lost.
            0 => {
                drop(store);
                store = DurableStore::open(&dir).unwrap();
                let versions =
                    assert_consistent(&store, &oracle, &format!("round {round} clean kill"));
                for (&ns, history) in &oracle.namespaces {
                    assert_eq!(
                        versions[&ns],
                        (history.len() - 1) as u64,
                        "round {round}: clean restart lost a durable batch in namespace {ns}"
                    );
                }
            }
            // Kill (torn write): chop a random number of bytes off the
            // WAL tail, reopen, and require a batch boundary ≤ latest.
            1 => {
                drop(store);
                let wal_path = dir.join(WAL_FILE);
                let len = std::fs::metadata(&wal_path).unwrap().len();
                if len > 0 {
                    let cut = rng.below(len + 1);
                    let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
                    f.set_len(cut).unwrap();
                }
                store = DurableStore::open(&dir).unwrap();
                let versions =
                    assert_consistent(&store, &oracle, &format!("round {round} torn kill"));
                // The tear dropped a suffix of batches; resync the oracle
                // so the run continues from the recovered boundary.
                for (ns, version) in versions {
                    oracle.rewind(ns, version);
                }
            }
            _ => {}
        }
    }

    // Final clean restart sanity pass.
    drop(store);
    let recovered = DurableStore::open(&dir).unwrap();
    assert_consistent(&recovered, &oracle, "final restart");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_deterministic_and_idempotent() {
    // Opening the same directory twice in a row (recovery after recovery,
    // e.g. a crash loop) must converge: same versions, same rules, and
    // the second recovery must not re-truncate or re-apply anything.
    let dir = tmpdir("idempotent");
    let mut rng = SplitMix64::new(99);
    let mut store = DurableStore::open(&dir).unwrap();
    let mut state = NsState::new();
    for _ in 0..32 {
        let batch = random_batch(&mut rng, &mut state, 8);
        store.apply(3, 8, &batch).unwrap();
    }
    drop(store);
    // Tear the tail mid-record.
    let wal_path = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal_path).unwrap().len();
    let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let first = DurableStore::open(&dir).unwrap();
    let v1 = first.store(3).unwrap().version();
    let rules1 = first.store(3).unwrap().rules_vec();
    let wal1 = first.wal_bytes();
    drop(first);
    let second = DurableStore::open(&dir).unwrap();
    assert_eq!(second.store(3).unwrap().version(), v1);
    assert_eq!(second.store(3).unwrap().rules_vec(), rules1);
    assert_eq!(second.wal_bytes(), wal1, "second recovery re-truncated");
    assert_eq!(v1, 31, "a 3-byte tear loses exactly the final record");
    std::fs::remove_dir_all(&dir).unwrap();
}
