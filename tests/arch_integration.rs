//! Architectural integration: applications + energy model + refresh
//! scheduling working together, plus property tests on the functional
//! array.

use nem_tcam::arch::apps::classifier::range_to_prefixes;
use nem_tcam::arch::apps::router::{Ipv4Prefix, Route, RouterTable};
use nem_tcam::arch::array::{value_to_word, TcamArray};
use nem_tcam::arch::refresh_sched::{compare_policies, RefreshSimConfig};
use nem_tcam::arch::{OperationCosts, WorkloadMeter};
use nem_tcam::core::bit::word_matches;
use nem_tcam::numeric::rng::SplitMix64;
use std::net::Ipv4Addr;

#[test]
fn router_workload_with_paper_energy_model() {
    let routes: Vec<Route> = (0..32u32)
        .map(|i| Route {
            prefix: Ipv4Prefix::new(Ipv4Addr::new(10, i as u8, 0, 0), 16),
            next_hop: i,
        })
        .collect();
    let table = RouterTable::from_routes(64, routes).expect("fits");
    let costs = OperationCosts::paper_3t2n();
    let mut meter = WorkloadMeter::new();
    let mut hits = 0;
    for i in 0..1000u32 {
        let ip = Ipv4Addr::new(10, (i % 40) as u8, 1, 1);
        if table.lookup(ip).is_some() {
            hits += 1;
        }
        meter.search(&costs);
    }
    assert_eq!(meter.searches, 1000);
    assert!(hits > 700); // 32 of 40 second octets hit
                         // Search energy for 1000 lookups ≈ 10 nJ at 10 fJ/search.
    assert!((meter.energy - 1000.0 * costs.search_energy).abs() < 1e-15);
}

#[test]
fn refresh_power_is_below_a_tenth_of_lookup_power() {
    // A dynamic TCAM must refresh; check the power budget is tiny relative
    // to lookup power at a realistic 100 Msearch/s.
    let costs = OperationCosts::paper_3t2n();
    let lookup_power_at_100m = costs.search_energy * 100e6;
    assert!(
        costs.refresh_power() < lookup_power_at_100m / 10.0,
        "refresh {} vs lookup {}",
        costs.refresh_power(),
        lookup_power_at_100m
    );
}

#[test]
fn osr_scheduling_beats_row_by_row_across_seeds() {
    for seed in [1u64, 7, 42, 1234] {
        let config = RefreshSimConfig {
            rows: 64,
            costs: OperationCosts::paper_3t2n(),
            search_rate: 80e6,
            search_time: 5e-9,
            duration: 1e-3,
            seed,
        };
        let (rbr, osr) = compare_policies(&config, 10e-9);
        assert!(osr.delayed_searches < rbr.delayed_searches, "seed {seed}");
        assert!(
            osr.refresh_delayed_searches * 10 < rbr.refresh_delayed_searches,
            "seed {seed}: {} vs {} delayed by refresh",
            osr.refresh_delayed_searches,
            rbr.refresh_delayed_searches
        );
        assert!(osr.refresh_energy < rbr.refresh_energy, "seed {seed}");
    }
}

/// The functional array must agree with the reference match rule for
/// randomized stored words and keys.
#[test]
fn array_search_matches_reference() {
    let mut rng = SplitMix64::new(31);
    for _ in 0..256 {
        let stored = rng.below(1024);
        let key = rng.below(1024);
        let mut tcam = TcamArray::new(4, 10);
        let word = value_to_word(stored, 10);
        tcam.write(2, word.clone()).expect("fits");
        let key_word = value_to_word(key, 10);
        let expected = word_matches(&word, &key_word);
        assert_eq!(tcam.first_match(&key_word) == Some(2), expected);
    }
}

/// Range expansion covers exactly the range, for randomized ranges.
#[test]
fn range_expansion_exact() {
    let mut rng = SplitMix64::new(32);
    for _ in 0..64 {
        let a = rng.below(256) as u16;
        let b = rng.below(256) as u16;
        let (lo, hi) = (a.min(b), a.max(b));
        let words = range_to_prefixes(lo, hi, 8);
        // No more than 2·bits − 2 prefixes (the classic worst case).
        assert!(words.len() <= 14);
        for v in 0u16..256 {
            let key = value_to_word(u64::from(v), 8);
            let covered = words.iter().any(|w| word_matches(w, &key));
            assert_eq!(covered, (lo..=hi).contains(&v));
        }
    }
}

/// LPM on the TCAM agrees with a linear scan over prefixes.
#[test]
fn lpm_agrees_with_linear_scan() {
    let mut rng = SplitMix64::new(33);
    for _ in 0..128 {
        let n_routes = 1 + rng.below(11) as usize;
        let addrs: Vec<u32> = (0..n_routes).map(|_| rng.next_u64() as u32).collect();
        let probe = rng.next_u64() as u32;
        let routes: Vec<Route> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| Route {
                prefix: Ipv4Prefix::new(Ipv4Addr::from(a), (i % 33) as u8),
                next_hop: i as u32,
            })
            .collect();
        let table = RouterTable::from_routes(routes.len(), routes.clone()).expect("fits");
        let ip = Ipv4Addr::from(probe);
        let expected = routes
            .iter()
            .filter(|r| r.prefix.contains(ip))
            .max_by_key(|r| r.prefix.len())
            .map(|r| r.prefix.len());
        let got = table
            .lookup(ip)
            .map(|hop| routes[hop as usize].prefix.len());
        // Compare by matched prefix length (ties between equal-length
        // prefixes may resolve to either route).
        assert_eq!(got, expected);
    }
}
