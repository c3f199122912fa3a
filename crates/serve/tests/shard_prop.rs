//! Property tests for rule-set and service correctness, driven by the
//! in-tree SplitMix64 RNG (no external proptest dependency).
//!
//! The invariants pinned here are the serving layer's correctness story:
//!
//! 1. the rule set's search returns the same highest-priority match as a
//!    monolithic `TcamArray` over the identical rule list (bit-identical
//!    ids, not just "some match"), built at once or mutated in place;
//! 2. the concurrent service agrees with the single-threaded reference
//!    path under live refresh.

use std::time::Duration;
use tcam_arch::bank::BankRefresh;
use tcam_core::bit::TernaryBit;
use tcam_numeric::rng::SplitMix64;
use tcam_serve::service::{ServiceConfig, TcamService};
use tcam_serve::shard::ShardedRuleSet;
use tcam_serve::workload::Workload;

/// A random ternary word with roughly `x_percent` don't-cares.
fn random_word(rng: &mut SplitMix64, width: usize, x_percent: u64) -> Vec<TernaryBit> {
    (0..width)
        .map(|_| {
            if rng.below(100) < x_percent {
                TernaryBit::X
            } else if rng.below(2) == 0 {
                TernaryBit::Zero
            } else {
                TernaryBit::One
            }
        })
        .collect()
}

/// A random fully-specified key.
fn random_key(rng: &mut SplitMix64, width: usize) -> Vec<TernaryBit> {
    (0..width)
        .map(|_| {
            if rng.below(2) == 0 {
                TernaryBit::Zero
            } else {
                TernaryBit::One
            }
        })
        .collect()
}

#[test]
fn sharded_search_matches_monolithic_oracle_random_ternary() {
    let mut rng = SplitMix64::new(0xACCE55);
    for trial in 0..20 {
        let width = [4, 8, 16, 33, 64, 100, 128][trial % 7];
        let x_percent = [0, 15, 40, 80][trial % 4];
        let rules = 1 + rng.below(64) as usize;
        let words: Vec<_> = (0..rules)
            .map(|_| random_word(&mut rng, width, x_percent))
            .collect();
        let set = ShardedRuleSet::build(&words, 0).unwrap();
        let oracle = ShardedRuleSet::oracle(&words);
        for _ in 0..300 {
            let key = random_key(&mut rng, width);
            assert_eq!(
                set.search(&key).unwrap(),
                oracle.first_match(&key).map(|r| r as u32),
                "trial {trial}: width {width}"
            );
        }
    }
}

#[test]
fn sharded_search_matches_oracle_on_router_and_acl_workloads() {
    for seed in [1u64, 7, 42] {
        for w in [
            Workload::router_lpm(256, 512, seed),
            Workload::acl_classifier(48, 256, seed),
        ] {
            let set = ShardedRuleSet::build(&w.words, 0).unwrap();
            let oracle = ShardedRuleSet::oracle(&w.words);
            for key in &w.keys {
                assert_eq!(
                    set.search(key).unwrap(),
                    oracle.first_match(key).map(|r| r as u32),
                    "{} seed {seed}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn interleaved_mutation_stays_equivalent_to_monolithic_oracle() {
    // A ShardedRuleSet mutated in place by any
    // interleaving of insert/remove/replace answers every search exactly
    // like a monolithic `TcamArray` oracle holding the same rules, where
    // the oracle's row index IS the rule id (lower id = higher priority).
    let mut rng = SplitMix64::new(0x0B5E_55ED);
    const IDS: u64 = 96; // id space == oracle rows
    for trial in 0..12 {
        let width = [8usize, 16, 33, 64][trial % 4];
        let x_percent = [10u64, 35, 70][trial % 3];
        let mut set = ShardedRuleSet::empty(width, 0).unwrap();
        let mut oracle = tcam_arch::array::TcamArray::new(IDS as usize, width);
        for step in 0..400 {
            let id = rng.below(IDS) as u32;
            let present = set.contains(id);
            match rng.below(10) {
                // Bias toward inserts so the table actually fills up.
                0..=4 if !present => {
                    let word = random_word(&mut rng, width, x_percent);
                    set.insert(id, word.clone()).unwrap();
                    oracle.write(id as usize, word).unwrap();
                }
                5 | 6 if present => {
                    assert!(set.remove(id).is_some());
                    oracle.erase(id as usize).unwrap();
                }
                7 | 8 if present => {
                    let word = random_word(&mut rng, width, x_percent);
                    set.replace(id, word.clone()).unwrap();
                    oracle.write(id as usize, word).unwrap();
                }
                _ => {}
            }
            assert_eq!(set.rules(), oracle.occupancy(), "trial {trial} step {step}");
            for _ in 0..8 {
                let key = random_key(&mut rng, width);
                assert_eq!(
                    set.search(&key).unwrap(),
                    oracle.first_match(&key).map(|r| r as u32),
                    "trial {trial} step {step}: width {width}"
                );
            }
        }
    }
}

#[test]
fn concurrent_service_agrees_with_reference_path_under_refresh() {
    let w = Workload::router_lpm(128, 256, 99);
    let rules = ShardedRuleSet::build(&w.words, 0).unwrap();
    let reference = rules.clone();
    let config = ServiceConfig {
        refresh: BankRefresh::RowByRow { op_time: 10e-9 },
        refresh_interval: Duration::from_millis(1),
        ..ServiceConfig::default()
    };
    let service = TcamService::start(rules, &config).unwrap();
    for key in &w.keys {
        assert_eq!(
            service.search_blocking(key).unwrap(),
            reference.search(key).unwrap()
        );
    }
    assert_eq!(service.shutdown().stats.searches, w.keys.len() as u64);
}
