//! Deterministic serving workloads: rule sets plus key pools.
//!
//! Two application shapes from the paper's benchmarking story (§I refs):
//! a router forwarding table served longest-prefix-match lookups, and a
//! 5-tuple ACL classifier with range-to-prefix expansion. Both are
//! generated from a [`SplitMix64`] seed so every run — and every policy
//! compared within a run — sees the identical rule set and key stream.
//!
//! Keys are drawn from a pre-generated pool (default 4096): key *choice*
//! during load generation is one RNG draw + one copy, keeping the
//! generator far faster than the service it is driving.

use tcam_arch::apps::classifier::range_to_prefixes;
use tcam_arch::array::{prefix_to_word, value_to_word};
use tcam_core::bit::TernaryBit;
use tcam_numeric::rng::SplitMix64;

/// A generated workload: prioritized ternary rules and a key pool.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (appears in bench records).
    pub name: &'static str,
    /// Word width, bits.
    pub width: usize,
    /// Rules in priority order (index = global id).
    pub words: Vec<Vec<TernaryBit>>,
    /// Fully-specified search keys to draw from.
    pub keys: Vec<Vec<TernaryBit>>,
}

impl Workload {
    /// A router LPM table: `routes` random IPv4 prefixes (lengths 8–28,
    /// sorted longest-first so row priority implements LPM) plus a default
    /// route, and a `key_pool` of lookup addresses, ~80 % of which fall
    /// under some installed prefix.
    ///
    /// # Panics
    ///
    /// Panics when `routes` or `key_pool` is 0.
    #[must_use]
    pub fn router_lpm(routes: usize, key_pool: usize, seed: u64) -> Self {
        assert!(routes > 0 && key_pool > 0, "empty workload");
        let mut rng = SplitMix64::new(seed);
        let mut rule_rng = rng.fork();
        let mut key_rng = rng.fork();

        let mut prefixes: Vec<(u32, usize)> = (0..routes)
            .map(|_| {
                let len = 8 + rule_rng.below(21) as usize; // 8..=28
                let mask = u32::MAX << (32 - len);
                (rule_rng.next_u64() as u32 & mask, len)
            })
            .collect();
        // Longest prefix first = highest priority, like RouterTable.
        prefixes.sort_by_key(|&(addr, len)| (std::cmp::Reverse(len), addr));
        let mut words: Vec<Vec<TernaryBit>> = prefixes
            .iter()
            .map(|&(addr, len)| prefix_to_word(u64::from(addr), len, 32))
            .collect();
        // Default route: replicated into every shard, matches anything.
        words.push(prefix_to_word(0, 0, 32));

        let keys = (0..key_pool)
            .map(|_| {
                let addr = if key_rng.next_f64() < 0.8 {
                    // Under an installed prefix: prefix bits + random host.
                    let (base, len) = prefixes[key_rng.below(prefixes.len() as u64) as usize];
                    let host_mask = (u32::MAX) >> len;
                    base | (key_rng.next_u64() as u32 & host_mask)
                } else {
                    key_rng.next_u64() as u32
                };
                value_to_word(u64::from(addr), 32)
            })
            .collect();

        Self {
            name: "router_lpm",
            width: 32,
            words,
            keys,
        }
    }

    /// An ACL classifier: `rules` random 5-tuple-style rules expanded over
    /// the 88-bit key layout (32 src + 32 dst + 8 proto + 16 dst-port),
    /// port ranges expanded to prefixes, plus a catch-all; ~70 % of keys
    /// are aimed at some rule.
    ///
    /// # Panics
    ///
    /// Panics when `rules` or `key_pool` is 0.
    #[must_use]
    pub fn acl_classifier(rules: usize, key_pool: usize, seed: u64) -> Self {
        assert!(rules > 0 && key_pool > 0, "empty workload");
        const WIDTH: usize = 88;
        let mut rng = SplitMix64::new(seed);
        let mut rule_rng = rng.fork();
        let mut key_rng = rng.fork();

        struct AclRule {
            src: (u32, usize),
            dst: (u32, usize),
            proto: Option<u8>,
            port: (u16, u16),
        }
        let gen_prefix = |rng: &mut SplitMix64, min_len: usize| {
            let len = min_len + rng.below((25 - min_len) as u64) as usize; // min..=24
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            (rng.next_u64() as u32 & mask, len)
        };
        let acl: Vec<AclRule> = (0..rules)
            .map(|_| {
                let proto = match rule_rng.below(3) {
                    0 => Some(6u8),
                    1 => Some(17),
                    _ => None,
                };
                let port = match rule_rng.below(3) {
                    0 => {
                        let p = rule_rng.below(1024) as u16;
                        (p, p)
                    }
                    1 => {
                        let lo = rule_rng.below(60_000) as u16;
                        (lo, lo + rule_rng.below(512) as u16)
                    }
                    _ => (0, u16::MAX),
                };
                AclRule {
                    // Source prefixes start at /8 so the top byte — where
                    // the shard selector lives — is usually concrete.
                    src: gen_prefix(&mut rule_rng, 8),
                    dst: gen_prefix(&mut rule_rng, 0),
                    proto,
                    port,
                }
            })
            .collect();

        let mut words = Vec::new();
        for rule in &acl {
            let mut base = Vec::with_capacity(WIDTH);
            base.extend(prefix_to_word(u64::from(rule.src.0), rule.src.1, 32));
            base.extend(prefix_to_word(u64::from(rule.dst.0), rule.dst.1, 32));
            match rule.proto {
                Some(p) => base.extend(value_to_word(u64::from(p), 8)),
                None => base.extend(std::iter::repeat_n(TernaryBit::X, 8)),
            }
            for port_word in range_to_prefixes(rule.port.0, rule.port.1, 16) {
                let mut w = base.clone();
                w.extend(port_word);
                words.push(w);
            }
        }
        // Catch-all (deny) rule.
        words.push(vec![TernaryBit::X; WIDTH]);

        let keys = (0..key_pool)
            .map(|_| {
                let (src, dst, proto, port) = if key_rng.next_f64() < 0.7 {
                    let r = &acl[key_rng.below(acl.len() as u64) as usize];
                    let src_host = if r.src.1 == 32 {
                        0
                    } else {
                        key_rng.next_u64() as u32 >> r.src.1
                    };
                    let dst_host = if r.dst.1 == 32 {
                        0
                    } else {
                        key_rng.next_u64() as u32 >> r.dst.1
                    };
                    let span = u32::from(r.port.1 - r.port.0) + 1;
                    (
                        r.src.0 | src_host,
                        r.dst.0 | dst_host,
                        r.proto.unwrap_or(6),
                        r.port.0 + key_rng.below(u64::from(span)) as u16,
                    )
                } else {
                    (
                        key_rng.next_u64() as u32,
                        key_rng.next_u64() as u32,
                        key_rng.below(256) as u8,
                        key_rng.below(65_536) as u16,
                    )
                };
                let mut key = Vec::with_capacity(WIDTH);
                key.extend(value_to_word(u64::from(src), 32));
                key.extend(value_to_word(u64::from(dst), 32));
                key.extend(value_to_word(u64::from(proto), 8));
                key.extend(value_to_word(u64::from(port), 16));
                key
            })
            .collect();

        Self {
            name: "acl_classifier",
            width: WIDTH,
            words,
            keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedRuleSet;

    #[test]
    fn router_workload_is_deterministic_and_well_formed() {
        let a = Workload::router_lpm(128, 256, 9);
        let b = Workload::router_lpm(128, 256, 9);
        assert_eq!(a.words, b.words);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.words.len(), 129); // + default route
        assert!(a.words.iter().all(|w| w.len() == 32));
        assert!(a
            .keys
            .iter()
            .all(|k| k.len() == 32 && k.iter().all(|b| !matches!(b, TernaryBit::X))));
        let c = Workload::router_lpm(128, 256, 10);
        assert_ne!(a.keys, c.keys);
    }

    #[test]
    fn router_keys_mostly_hit() {
        let w = Workload::router_lpm(256, 512, 3);
        let set = ShardedRuleSet::build(&w.words, 0).unwrap();
        let hits = w
            .keys
            .iter()
            .filter(|k| {
                // The default route is the last global id; a "hit" is any
                // more specific match.
                set.search(k).unwrap() != Some(w.words.len() as u32 - 1)
            })
            .count();
        assert!(hits * 10 > w.keys.len() * 6, "only {hits} targeted hits");
    }

    #[test]
    fn acl_workload_shapes() {
        let w = Workload::acl_classifier(32, 128, 5);
        assert!(w.words.len() > 32); // range expansion + catch-all
        assert!(w.words.iter().all(|r| r.len() == 88));
        assert!(w.keys.iter().all(|k| k.len() == 88));
        // Catch-all guarantees every key matches something.
        let set = ShardedRuleSet::build(&w.words, 0).unwrap();
        for k in &w.keys {
            assert!(set.search(k).unwrap().is_some());
        }
    }
}
