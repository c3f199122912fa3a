//! `churn_rounds_1k`: writes beside reads on the same serve/net/arch
//! layers, from **one** thread in fixed rounds.
//!
//! A round is one `TcamNode::apply` of a 16-change batch followed by four
//! depth-1 `NetClient::lookup` frames of 64 keys. A writer thread beside a
//! reader thread measured the scheduler (27 % spread); the same mix in
//! fixed rounds repeats. `tcam_update::BgpChurn` grows its table ~0.2 rows
//! per update, which slows every later window, so the workload generates
//! its own balanced churn and stays stationary.

use crate::measure::{spanned, Quiet};
use crate::report::Record;
use crate::serving::{self, Stack, Table};
use crate::stats::{self, Samples};
use crate::sys;
use std::time::{Duration, Instant};
use tcam_arch::array::value_to_word;
use tcam_arch::energy_model::OperationCosts;
use tcam_arch::packed::PackedWord;
use tcam_core::bit::TernaryBit;
use tcam_net::wal::DurableStore;
use tcam_numeric::rng::SplitMix64;
use tcam_serve::service::ServiceConfig;
use tcam_serve::shard::ShardedRuleSet;
use tcam_update::delta::DeltaCompiler;
use tcam_update::publish::Updater;
use tcam_update::store::{prefix_word, RuleChange, RuleStore};

pub const NAME: &str = "churn_rounds_1k";

const WIDTH: usize = 32;
const ROUTES: usize = 1024;
const MIN_LEN: usize = 8;
const WITHDRAWALS: usize = 6;
const ANNOUNCEMENTS: usize = 6;
const READVERTISEMENTS: usize = 4;
pub const BATCH: usize = WITHDRAWALS + ANNOUNCEMENTS + READVERTISEMENTS;
const FRAMES_PER_ROUND: usize = 4;
const FRAME: usize = 64;
const WARM_UP_ROUNDS: usize = 2000;
/// Key pool of the static-table serving ladder in the traced run.
const LADDER_POOL: usize = 65_536;
/// Priorities are banded by prefix length as `BgpChurn` does, so a longer
/// prefix always outranks a shorter one: `(32 − len) << 20 | counter`.
const BAND_SHIFT: u32 = 20;

#[derive(Clone, Copy)]
struct Route {
    priority: u32,
    addr: u32,
    len: usize,
}

impl Route {
    fn word(&self) -> Vec<TernaryBit> {
        prefix_word(u64::from(self.addr), self.len, WIDTH)
    }
}

/// Balanced BGP-like churn: every batch withdraws six random live routes,
/// announces six fresh prefixes and re-advertises four, so the table holds
/// `ROUTES` rows after every batch and never fewer than `ROUTES − 6`.
pub struct BalancedChurn {
    rng: SplitMix64,
    key_rng: SplitMix64,
    /// Live routes; index 0 is the default route and is never withdrawn.
    live: Vec<Route>,
    counters: [u32; WIDTH + 1],
}

impl BalancedChurn {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let key_rng = rng.fork();
        let mut churn = Self {
            rng,
            key_rng,
            live: Vec::with_capacity(ROUTES),
            counters: [0; WIDTH + 1],
        };
        let default = Route {
            priority: churn.next_priority(0),
            addr: 0,
            len: 0,
        };
        churn.live.push(default);
        while churn.live.len() < ROUTES {
            let route = churn.fresh_route();
            churn.live.push(route);
        }
        churn
    }

    fn next_priority(&mut self, len: usize) -> u32 {
        let band = WIDTH - len;
        let counter = self.counters[band];
        assert!(counter < 1 << BAND_SHIFT, "band {band} exhausted");
        self.counters[band] = counter + 1;
        (band as u32) << BAND_SHIFT | counter
    }

    fn random_addr(&mut self, len: usize) -> u32 {
        (self.rng.next_u64() >> (64 - len) << (WIDTH - len)) as u32
    }

    /// Skewed toward long prefixes (the longer of two draws), like a real table.
    fn fresh_route(&mut self) -> Route {
        let span = (WIDTH - MIN_LEN + 1) as u64;
        let len = MIN_LEN + self.rng.below(span).max(self.rng.below(span)) as usize;
        Route {
            priority: self.next_priority(len),
            addr: self.random_addr(len),
            len,
        }
    }

    fn pick_victim(&mut self) -> usize {
        1 + self.rng.below(self.live.len() as u64 - 1) as usize
    }

    pub fn live_routes(&self) -> usize {
        self.live.len()
    }

    pub fn rules(&self) -> Vec<(u32, Vec<TernaryBit>)> {
        self.live.iter().map(|r| (r.priority, r.word())).collect()
    }

    pub fn next_batch(&mut self) -> Vec<RuleChange> {
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..WITHDRAWALS {
            let victim = self.pick_victim();
            batch.push(RuleChange::Remove {
                priority: self.live.swap_remove(victim).priority,
            });
        }
        for _ in 0..ANNOUNCEMENTS {
            let route = self.fresh_route();
            self.live.push(route);
            batch.push(RuleChange::Insert {
                priority: route.priority,
                word: route.word(),
            });
        }
        for _ in 0..READVERTISEMENTS {
            // Same priority, and so the same length; fresh address bits.
            let i = self.pick_victim();
            self.live[i].addr = self.random_addr(self.live[i].len);
            batch.push(RuleChange::Modify {
                priority: self.live[i].priority,
                word: self.live[i].word(),
            });
        }
        batch
    }

    /// Three keys in four fall under a live prefix, the rest are uniform.
    pub fn key(&mut self) -> PackedWord {
        let uniform = self.key_rng.next_u64() as u32;
        let addr = if self.key_rng.below(4) < 3 {
            let route = self.live[self.key_rng.below(self.live.len() as u64) as usize];
            let host_mask = u32::MAX.checked_shr(route.len as u32).unwrap_or(0);
            route.addr | (uniform & host_mask)
        } else {
            uniform
        };
        PackedWord::pack(&value_to_word(u64::from(addr), WIDTH))
    }
}

fn apply_to(set: &mut ShardedRuleSet, batch: &[RuleChange]) {
    for change in batch {
        match change {
            RuleChange::Insert { priority, word } => {
                set.insert(*priority, word.clone())
                    .expect("generated insert is fresh");
            }
            RuleChange::Remove { priority } => {
                set.remove(*priority).expect("generated removal is live");
            }
            RuleChange::Modify { priority, word } => {
                set.replace(*priority, word.clone())
                    .expect("generated modify is live");
            }
        }
    }
}

/// The harness's own copy of the table at the applied version and at the
/// one before it: a reply may be served by either, and is checked against
/// the one its epoch names.
pub struct Mirror {
    current: ShardedRuleSet,
    previous: ShardedRuleSet,
    /// The batch `current` has and `previous` has not.
    pending: Option<Vec<RuleChange>>,
    pub version: u64,
}

impl Mirror {
    pub fn new(rules: &[(u32, Vec<TernaryBit>)], version: u64) -> Self {
        let current = ShardedRuleSet::from_prioritized(rules, 0).expect("rules build");
        Self {
            previous: current.clone(),
            current,
            pending: None,
            version,
        }
    }

    pub fn advance(&mut self, batch: Vec<RuleChange>) {
        if let Some(older) = self.pending.take() {
            apply_to(&mut self.previous, &older);
        }
        apply_to(&mut self.current, &batch);
        self.pending = Some(batch);
        self.version += 1;
    }

    /// The table at `epoch`, when that is the applied version or the one before.
    pub fn at(&self, epoch: u64) -> Option<&ShardedRuleSet> {
        if epoch == self.version {
            Some(&self.current)
        } else if epoch + 1 == self.version && self.pending.is_some() {
            Some(&self.previous)
        } else {
            None
        }
    }
}

/// What rounds measured since the samples were last forgotten.
#[derive(Default)]
struct Measured {
    /// `TcamNode::apply`, call to return: wall time, and the calling
    /// thread's CPU time — which leaves out the wait for the WAL's `fsync`.
    apply_wall: Samples,
    apply_cpu: Samples,
    rtt: Samples,
    /// Mean round trip of a round's four lookups, the first of which meets
    /// the snapshot the round's batch has just published.
    round_rtt: Samples,
    /// Replies tagged `v − 1` after `apply` had returned `v`.
    lag_reads: u64,
    changes: u64,
}

/// Rounds against a live stack.
struct Rounds {
    churn: BalancedChurn,
    mirror: Mirror,
    seen: Measured,
}

impl Rounds {
    fn new(churn: BalancedChurn, loaded_version: u64) -> Self {
        let mirror = Mirror::new(&churn.rules(), loaded_version);
        Self {
            churn,
            mirror,
            seen: Measured::default(),
        }
    }

    /// One apply; returns its CPU time, nanoseconds (wall time where the
    /// thread CPU clock is unavailable).
    fn apply_batch(&mut self, stack: &Stack, rec: &mut Record) -> u64 {
        let batch = self.churn.next_batch();
        let (wall0, cpu0) = (Instant::now(), sys::thread_cpu_ns());
        let applied = stack.node.apply(0, WIDTH, &batch);
        let cpu1 = sys::thread_cpu_ns();
        let wall_ns = wall0.elapsed().as_nanos() as u64;
        let cpu_ns = cpu0.zip(cpu1).map_or(wall_ns, |(a, b)| b - a);
        self.seen.apply_wall.push(wall_ns);
        self.seen.apply_cpu.push(cpu_ns);
        self.mirror.advance(batch);
        self.seen.changes += BATCH as u64;
        rec.count(1, u64::from(applied.ok() != Some(self.mirror.version)));
        cpu_ns
    }

    /// One round; returns the apply's CPU time.
    fn round(&mut self, stack: &mut Stack, rec: &mut Record) -> u64 {
        let apply_cpu_ns = self.apply_batch(stack, rec);
        let mut reads_ns = 0u64;
        for _ in 0..FRAMES_PER_ROUND {
            let keys: Vec<PackedWord> = (0..FRAME).map(|_| self.churn.key()).collect();
            let t0 = Instant::now();
            let reply = stack.client.lookup(0, &keys);
            let rtt_ns = t0.elapsed().as_nanos() as u64;
            self.seen.rtt.push(rtt_ns);
            reads_ns += rtt_ns;
            let bad = match reply {
                Ok((epoch, got)) => match self.mirror.at(epoch) {
                    Some(table) => {
                        self.seen.lag_reads += u64::from(epoch != self.mirror.version);
                        let array = table.shard(0);
                        let want: Vec<Option<u32>> =
                            keys.iter().map(|k| array.first_match(k)).collect();
                        serving::wrong_keys(&got, &want)
                    }
                    None => FRAME as u64,
                },
                Err(_) => FRAME as u64,
            };
            rec.count(FRAME as u64, bad);
        }
        self.seen.round_rtt.push(reads_ns / FRAMES_PER_ROUND as u64);
        apply_cpu_ns
    }
}

/// Generate, compute the ladder pool's answers, bring the node up on a
/// fresh directory, load, serve and connect.
fn bring_up(seed: u64, tag: &str) -> ((Table, Rounds), Stack) {
    let mut churn = BalancedChurn::new(seed);
    let keys = (0..LADDER_POOL).map(|_| churn.key()).collect();
    let table = Table::new(churn.rules(), keys);
    let stack = Stack::start(&table, tag);
    ((table, Rounds::new(churn, 1)), stack)
}

/// `bring_up`, then verified warm-up rounds.
fn set_up(seed: u64, tag: &str, rec: &mut Record) -> ((Table, Rounds), Stack) {
    let ((table, mut rounds), mut stack) = bring_up(seed, tag);
    for _ in 0..WARM_UP_ROUNDS {
        rounds.round(&mut stack, rec);
    }
    rounds.seen = Measured::default();
    ((table, rounds), stack)
}

/// The timed run: `WINDOWS` windows of rounds.
///
/// Both gated numbers are read at the **undisturbed** quantile (the 1st
/// percentile, `Samples::undisturbed_us`) of the run's ~27 000 rounds.
/// The WAL's `fsync` goes to the sandbox's virtio disk, whose interrupts
/// and journal threads run on the one pinned CPU, so for seconds at a time
/// a varying share of the operations is interrupted: window medians of one
/// run read 44 µs and 87 µs, and run medians spread by 17–30 %.
///
/// `throughput_per_s` is route changes applied per second of the writer's
/// **CPU time** inside an undisturbed `TcamNode::apply` (CPU time keeps the
/// program's share of the call and drops the wait for the disk, 150–250 µs
/// of 250–340 µs). `latency_us` is the undisturbed depth-1 lookup round
/// trip, averaged over a round's four lookups so that the first read after
/// the snapshot swap is in every sample.
pub fn run_timed(seed: u64, seconds: f64, rec: &mut Record) {
    let ((_, mut rounds), mut stack) =
        serving::timed_set_ups(rec, |rep, rec| set_up(seed, &format!("setup{rep}"), rec));
    rec.note_str("data_dir_fs", &stack.dir.fs_type());

    let mut quiet = Quiet::new();
    let window = Duration::from_secs_f64(seconds / serving::WINDOWS as f64);
    let rates = quiet.windows(serving::WINDOWS, || {
        let (mut apply_cpu_ns, mut applied) = (0u64, 0u64);
        let deadline = Instant::now() + window;
        while Instant::now() < deadline {
            apply_cpu_ns += rounds.round(&mut stack, rec);
            applied += BATCH as u64;
        }
        applied as f64 / (apply_cpu_ns as f64 / 1e9)
    });
    let apply_cpu_us = rounds.seen.apply_cpu.undisturbed_us();
    rec.set("throughput_per_s", BATCH as f64 / (apply_cpu_us / 1e6));
    rec.note("throughput_window_q3_per_s", stats::upper_quartile(&rates));
    rec.note_windows("throughput_windows", &rates);
    rec.set("latency_us", rounds.seen.round_rtt.undisturbed_us());
    rec.note("latency_p50_us", rounds.seen.rtt.quantile_us(0.5));
    rec.note("latency_p99_us", rounds.seen.rtt.quantile_us(0.99));
    rec.note("latency_samples", rounds.seen.round_rtt.count() as f64);
    rec.note("apply_cpu_p50_us", rounds.seen.apply_cpu.quantile_us(0.5));
    rec.note("apply_wall_p50_us", rounds.seen.apply_wall.quantile_us(0.5));
    rec.note(
        "apply_wall_p99_us",
        rounds.seen.apply_wall.quantile_us(0.99),
    );
    rec.note("apply_samples", rounds.seen.apply_wall.count() as f64);
    rec.note("epoch_lag_reads", rounds.seen.lag_reads as f64);
    rec.note("live_routes", rounds.churn.live_routes() as f64);
    quiet.note(rec);
    stack.stop();
}

/// The traced run: the serving ladder on the table as loaded (before any
/// churn, so the pool's answers hold), then the update ladder — each rung
/// replays the same seeded batches into one layer's public entry point.
pub fn run_traced(seed: u64, seconds: f64, rec: &mut Record) {
    let ((table, mut rounds), mut stack) = bring_up(seed, "traced");
    rec.note_str("data_dir_fs", &stack.dir.fs_type());
    let frames = serving::rung_frames(seconds);
    serving::serving_ladder(&table, &mut stack, FRAME, frames, rec);

    let batches = frames / 4;
    let costs = OperationCosts::paper_3t2n();
    let fresh = || BalancedChurn::new(seed);

    // tcam-update: plan, then apply to the shadow, then publish the epoch.
    let mut churn = fresh();
    let mut planned_against = table.reference.clone();
    let mut compile = Samples::with_capacity(batches);
    for _ in 0..batches {
        let batch = churn.next_batch();
        let (plan, ns) = spanned("bench_update_delta_compile", || {
            DeltaCompiler::new(&planned_against, costs).compile(&batch)
        });
        compile.push(ns);
        rec.count(1, u64::from(plan.is_err()));
        apply_to(&mut planned_against, &batch);
    }

    let mut churn = fresh();
    let store = RuleStore::from_rules(&churn.rules()).expect("rules load");
    let mut updater = Updater::new(store, 0, costs).expect("updater starts");
    let service = updater
        .start_service(&ServiceConfig::default())
        .expect("service starts");
    let (mut apply, mut publish) = (
        Samples::with_capacity(batches),
        Samples::with_capacity(batches),
    );
    let mut row_ops = 0u64;
    let probe = value_to_word(0, WIDTH);
    for _ in 0..batches {
        let batch = churn.next_batch();
        let (staged, ns) = spanned("bench_update_updater_apply", || updater.apply(&batch));
        let staged = staged.expect("generated batch applies");
        apply.push(ns);
        row_ops += staged.realized.writes + staged.realized.erases;
        let (published, ns) = spanned("bench_update_publish", || updater.publish(&service));
        published.expect("service is live");
        publish.push(ns);
        // An idle worker only looks at its update mailbox every 50 ms; a
        // lookup between batches makes it swap, as read traffic would.
        // (It answers from the epoch before or the new one: the worker
        // drains its mailbox before it blocks on the search queue.)
        let served = service
            .search_with_epoch(&probe)
            .map(|(epoch, _)| epoch)
            .ok();
        rec.count(
            1,
            u64::from(!served.is_some_and(|e| e == staged.epoch || e + 1 == staged.epoch)),
        );
    }
    drop(service);

    // tcam-net: the write-ahead log alone, on its own fresh directory.
    let mut churn = fresh();
    let wal_dir = serving::DataDir::fresh("wal");
    let mut durable = DurableStore::open(wal_dir.path()).expect("store opens");
    durable
        .apply(0, WIDTH, &table.load_batch())
        .expect("table loads");
    let mut wal = Samples::with_capacity(batches);
    for _ in 0..batches {
        let batch = churn.next_batch();
        let (applied, ns) = spanned("bench_net_wal_apply", || durable.apply(0, WIDTH, &batch));
        wal.push(ns);
        rec.count(1, u64::from(applied.is_err()));
    }

    // The whole write path under read load: the timed run's rounds.
    let wal_bytes = |snap: &tcam_obs::Snapshot| snap.counter("wal_bytes_written");
    let bytes_before = wal_bytes(&tcam_obs::snapshot());
    let wall = Instant::now();
    for _ in 0..batches {
        rounds.round(&mut stack, rec);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let bytes = wal_bytes(&tcam_obs::snapshot()) - bytes_before;

    rec.set("update_delta_compile_us", compile.lower_quartile_us());
    rec.set("update_updater_apply_us", apply.lower_quartile_us());
    rec.set("update_publish_us", publish.lower_quartile_us());
    rec.set("net_wal_apply_us", wal.lower_quartile_us());
    rec.set("net_node_apply_us", rounds.seen.apply_wall.quantile_us(0.5));
    rec.set(
        "net_node_apply_p99_us",
        rounds.seen.apply_wall.quantile_us(0.99),
    );
    rec.set(
        "net_node_apply_cpu_us",
        rounds.seen.apply_cpu.quantile_us(0.5),
    );
    rec.set("net_churn_rtt_p50_us", rounds.seen.rtt.quantile_us(0.5));
    rec.set("net_churn_rtt_p99_us", rounds.seen.rtt.quantile_us(0.99));
    rec.set("update_changes_per_s", rounds.seen.changes as f64 / wall_s);
    rec.set(
        "update_row_ops_per_change",
        row_ops as f64 / (batches * BATCH) as f64,
    );
    rec.set(
        "net_wal_bytes_per_change",
        bytes as f64 / rounds.seen.changes as f64,
    );
    rec.set("serve_epoch_lag_reads", rounds.seen.lag_reads as f64);

    // The same write path with no reads between batches: the worker polls
    // its update mailbox only when its search queue times out.
    rounds.seen = Measured::default();
    for _ in 0..batches / 4 {
        rounds.apply_batch(&stack, rec);
    }
    rec.set(
        "net_node_apply_idle_us",
        rounds.seen.apply_wall.quantile_us(0.5),
    );
    rec.note("ladder_batches", batches as f64);
    crate::report::note_harness_phases(rec);
    stack.stop();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_churn_holds_the_table_size_and_repeats_for_a_seed() {
        let (mut a, mut b, mut other) = (
            BalancedChurn::new(3),
            BalancedChurn::new(3),
            BalancedChurn::new(4),
        );
        assert_eq!(a.rules(), b.rules());
        assert_ne!(a.rules(), other.rules());
        let mut differs = false;
        for _ in 0..10_000 {
            let batch = a.next_batch();
            assert_eq!(batch.len(), BATCH);
            assert_eq!(batch, b.next_batch());
            differs |= batch != other.next_batch();
            // Within a batch the withdrawals come first, so the table dips
            // to ROUTES − 6 and is back at ROUTES when the batch ends.
            assert_eq!(a.live_routes(), ROUTES);
            let removes = batch
                .iter()
                .filter(|c| matches!(c, RuleChange::Remove { .. }))
                .count();
            assert_eq!(removes, WITHDRAWALS);
            assert_eq!(a.key(), b.key());
        }
        assert!(differs);
    }

    #[test]
    fn mirror_equals_a_freshly_built_rule_set_after_1000_batches() {
        let mut churn = BalancedChurn::new(11);
        let mut mirror = Mirror::new(&churn.rules(), 1);
        let mut rules_before = churn.rules();
        for _ in 0..1000 {
            rules_before = churn.rules();
            mirror.advance(churn.next_batch());
        }
        assert_eq!(mirror.version, 1001);
        let fresh_now = ShardedRuleSet::from_prioritized(&churn.rules(), 0).unwrap();
        let fresh_before = ShardedRuleSet::from_prioritized(&rules_before, 0).unwrap();
        let (now, before) = (mirror.at(1001).unwrap(), mirror.at(1000).unwrap());
        assert!(mirror.at(999).is_none() && mirror.at(1002).is_none());
        assert_eq!(now.rules(), ROUTES);
        let mut differ = 0;
        for _ in 0..4000 {
            let key = churn.key();
            assert_eq!(
                now.shard(0).first_match(&key),
                fresh_now.shard(0).first_match(&key)
            );
            assert_eq!(
                before.shard(0).first_match(&key),
                fresh_before.shard(0).first_match(&key)
            );
            differ +=
                usize::from(now.shard(0).first_match(&key) != before.shard(0).first_match(&key));
        }
        // One batch changes 16 of 1024 routes, so the two versions are
        // distinguishable by some keys: the check above is not vacuous.
        assert!(differ > 0);
    }

    #[test]
    fn longer_prefixes_outrank_shorter_ones() {
        let churn = BalancedChurn::new(5);
        let mut rules = churn.rules();
        rules.sort_by_key(|(priority, _)| *priority);
        let care = |w: &Vec<TernaryBit>| w.iter().filter(|b| **b != TernaryBit::X).count();
        assert!(rules.windows(2).all(|w| care(&w[0].1) >= care(&w[1].1)));
        assert_eq!(
            care(&rules.last().unwrap().1),
            0,
            "the default route ranks last"
        );
    }
}
