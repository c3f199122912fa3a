//! Packet classification (ACL matching) with range-to-prefix expansion.
//!
//! A classifier rule constrains source/destination prefixes, protocol and
//! port *ranges*. TCAMs match prefixes, not ranges, so each port range is
//! expanded into the minimal set of prefix words (`[1, 6]` over 3 bits →
//! `001, 01X, 10X, 110`) and the rule's cross-product occupies several TCAM
//! rows — the classic rule-expansion cost this module makes measurable.

use crate::array::{prefix_to_word, value_to_word, ArchError, Result, TcamArray};
use std::net::Ipv4Addr;
use tcam_core::bit::TernaryBit;

use super::router::Ipv4Prefix;

/// An inclusive numeric range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortRange {
    /// Low bound (inclusive).
    pub lo: u16,
    /// High bound (inclusive).
    pub hi: u16,
}

impl PortRange {
    /// The full 16-bit range (matches any port).
    #[must_use]
    pub fn any() -> Self {
        Self {
            lo: 0,
            hi: u16::MAX,
        }
    }

    /// A single port.
    #[must_use]
    pub fn exactly(p: u16) -> Self {
        Self { lo: p, hi: p }
    }

    /// Whether `p` lies in the range.
    #[must_use]
    pub fn contains(&self, p: u16) -> bool {
        (self.lo..=self.hi).contains(&p)
    }
}

/// Expands `[lo, hi]` over `bits`-wide values into minimal prefix words
/// (the standard greedy largest-aligned-block algorithm).
///
/// # Panics
///
/// Panics when `lo > hi` or `bits > 16`.
#[must_use]
pub fn range_to_prefixes(lo: u16, hi: u16, bits: usize) -> Vec<Vec<TernaryBit>> {
    assert!(lo <= hi, "range reversed");
    assert!(bits <= 16, "at most 16 bits");
    let limit = if bits == 16 {
        u32::from(u16::MAX)
    } else {
        (1u32 << bits) - 1
    };
    assert!(u32::from(hi) <= limit, "hi exceeds bit width");

    let mut out = Vec::new();
    let mut cur = u32::from(lo);
    let end = u32::from(hi);
    while cur <= end {
        // Largest power-of-two block aligned at `cur` and fitting in range.
        let max_align = if cur == 0 {
            bits as u32
        } else {
            cur.trailing_zeros()
        };
        let mut size_log = max_align.min(bits as u32);
        while size_log > 0 && cur + (1 << size_log) - 1 > end {
            size_log -= 1;
        }
        let prefix_len = bits - size_log as usize;
        out.push(prefix_to_word(u64::from(cur), prefix_len, bits));
        cur += 1 << size_log;
        if cur == 0 {
            break; // wrapped past 2^32 cannot happen for 16-bit, guard anyway
        }
    }
    out
}

/// A classification rule (5-tuple-style, IPv4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Source prefix constraint.
    pub src: Ipv4Prefix,
    /// Destination prefix constraint.
    pub dst: Ipv4Prefix,
    /// Protocol number, or `None` for any.
    pub proto: Option<u8>,
    /// Destination-port range.
    pub dst_port: PortRange,
    /// Action identifier (e.g. permit/deny id).
    pub action: u32,
}

/// A packet header for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Protocol number.
    pub proto: u8,
    /// Destination port.
    pub dst_port: u16,
}

/// Key layout: 32 src + 32 dst + 8 proto + 16 dst-port = 88 bits.
const KEY_BITS: usize = 88;

fn rule_words(rule: &Rule) -> Vec<Vec<TernaryBit>> {
    let mut base = Vec::with_capacity(KEY_BITS);
    base.extend(prefix_to_word(
        u64::from(u32::from(rule.src.network())),
        rule.src.len() as usize,
        32,
    ));
    base.extend(prefix_to_word(
        u64::from(u32::from(rule.dst.network())),
        rule.dst.len() as usize,
        32,
    ));
    match rule.proto {
        Some(p) => base.extend(value_to_word(u64::from(p), 8)),
        None => base.extend(std::iter::repeat_n(TernaryBit::X, 8)),
    }
    range_to_prefixes(rule.dst_port.lo, rule.dst_port.hi, 16)
        .into_iter()
        .map(|port_word| {
            let mut w = base.clone();
            w.extend(port_word);
            w
        })
        .collect()
}

/// A TCAM-backed first-match packet classifier.
#[derive(Debug, Clone)]
pub struct Classifier {
    tcam: TcamArray,
    actions: Vec<u32>,
    rules: usize,
}

impl Classifier {
    /// Builds a classifier from `rules` (first rule = highest priority)
    /// with a TCAM of `rows` capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Full`] when range expansion overflows the TCAM.
    pub fn from_rules(rows: usize, rules: &[Rule]) -> Result<Self> {
        let mut tcam = TcamArray::new(rows, KEY_BITS);
        let mut actions = Vec::new();
        let mut row = 0usize;
        for rule in rules {
            for word in rule_words(rule) {
                if row >= rows {
                    return Err(ArchError::Full);
                }
                tcam.write(row, word)?;
                actions.push(rule.action);
                row += 1;
            }
        }
        Ok(Self {
            tcam,
            actions,
            rules: rules.len(),
        })
    }

    /// Classifies a packet, returning the first matching rule's action.
    #[must_use]
    pub fn classify(&self, pkt: &Packet) -> Option<u32> {
        let mut key = Vec::with_capacity(KEY_BITS);
        key.extend(value_to_word(u64::from(u32::from(pkt.src)), 32));
        key.extend(value_to_word(u64::from(u32::from(pkt.dst)), 32));
        key.extend(value_to_word(u64::from(pkt.proto), 8));
        key.extend(value_to_word(u64::from(pkt.dst_port), 16));
        self.tcam.first_match(&key).map(|r| self.actions[r])
    }

    /// TCAM rows consumed (expansion cost).
    #[must_use]
    pub fn rows_used(&self) -> usize {
        self.actions.len()
    }

    /// Logical rules installed.
    #[must_use]
    pub fn rules(&self) -> usize {
        self.rules
    }

    /// Expansion factor `rows_used / rules`.
    #[must_use]
    pub fn expansion_factor(&self) -> f64 {
        if self.rules == 0 {
            1.0
        } else {
            self.rows_used() as f64 / self.rules as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_expansion_canonical_example() {
        // [1, 6] over 3 bits → 001, 01X, 10X, 110.
        let words = range_to_prefixes(1, 6, 3);
        let rendered: Vec<String> = words
            .iter()
            .map(|w| w.iter().map(ToString::to_string).collect())
            .collect();
        assert_eq!(rendered, vec!["001", "01X", "10X", "110"]);
    }

    #[test]
    fn full_and_single_ranges() {
        assert_eq!(range_to_prefixes(0, 65535, 16).len(), 1); // all-X
        assert_eq!(range_to_prefixes(80, 80, 16).len(), 1); // exact
        assert_eq!(range_to_prefixes(0, 7, 3).len(), 1); // aligned block
    }

    #[test]
    fn range_prefixes_cover_exactly_and_minimally() {
        // Exhaustive over every 6-bit range: each value in the range is
        // matched by exactly one word (disjoint blocks), none outside it
        // is, and no range needs more than the textbook 2w-2 words.
        let width = 6usize;
        for lo in 0..64u16 {
            for hi in lo..64 {
                let words = range_to_prefixes(lo, hi, width);
                assert!(words.len() <= 2 * width - 2, "[{lo},{hi}]: too many words");
                for v in 0..64u16 {
                    let key = value_to_word(u64::from(v), width);
                    let covered = words
                        .iter()
                        .filter(|w| tcam_core::bit::word_matches(w, &key))
                        .count();
                    let expected = usize::from((lo..=hi).contains(&v));
                    assert_eq!(covered, expected, "[{lo},{hi}] value {v}");
                }
            }
        }
        // The classic worst case really is 2w-2.
        assert_eq!(range_to_prefixes(1, 62, 6).len(), 10);
    }

    fn sample_rules() -> Vec<Rule> {
        vec![
            // Block telnet to the server subnet.
            Rule {
                src: Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
                dst: Ipv4Prefix::new(Ipv4Addr::new(10, 0, 2, 0), 24),
                proto: Some(6),
                dst_port: PortRange::exactly(23),
                action: 0, // deny
            },
            // Allow web traffic (ports 80..=81 expands to one prefix? no: 80=0x50 aligned even → [80,81] is one prefix).
            Rule {
                src: Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
                dst: Ipv4Prefix::new(Ipv4Addr::new(10, 0, 2, 0), 24),
                proto: Some(6),
                dst_port: PortRange { lo: 80, hi: 81 },
                action: 1, // permit
            },
            // Default deny-all.
            Rule {
                src: Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
                dst: Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
                proto: None,
                dst_port: PortRange::any(),
                action: 0,
            },
        ]
    }

    #[test]
    fn classify_first_match_semantics() {
        let c = Classifier::from_rules(64, &sample_rules()).unwrap();
        let telnet = Packet {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(10, 0, 2, 9),
            proto: 6,
            dst_port: 23,
        };
        assert_eq!(c.classify(&telnet), Some(0));
        let web = Packet {
            dst_port: 80,
            ..telnet
        };
        assert_eq!(c.classify(&web), Some(1));
        let other = Packet {
            dst_port: 4444,
            ..telnet
        };
        assert_eq!(c.classify(&other), Some(0)); // default deny
        assert_eq!(c.rules(), 3);
        assert!(c.expansion_factor() >= 1.0);
    }

    #[test]
    fn capacity_overflow_detected() {
        // A nasty range that expands a lot, in a tiny TCAM.
        let rules = vec![Rule {
            src: Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
            dst: Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0),
            proto: None,
            dst_port: PortRange { lo: 1, hi: 65534 },
            action: 1,
        }];
        assert!(matches!(
            Classifier::from_rules(4, &rules),
            Err(ArchError::Full)
        ));
    }
}
