//! Error type for the serving layer.

use std::fmt;

/// Errors from building or querying the lookup service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A rule or key width differs from the rule set's.
    WidthMismatch {
        /// The rule set's word width.
        expected: usize,
        /// The offered word's width.
        found: usize,
    },
    /// The word width exceeds what the packed serving path supports.
    TooWide {
        /// The offered width.
        width: usize,
        /// The packed maximum.
        max: usize,
    },
    /// More shard-selector bits than the word has, or than the replication
    /// guard allows.
    BadShardBits {
        /// The offered selector width.
        bits: u32,
        /// The maximum allowed here.
        max: u32,
    },
    /// A search key carries a don't-care inside the shard-selector bits, so
    /// it cannot be routed to a single shard.
    AmbiguousKey {
        /// The offending bit position (0 = leftmost).
        bit: usize,
    },
    /// The rule set holds no rules.
    EmptyRuleSet,
    /// The service has shut down (queue closed).
    ServiceClosed,
    /// A shard queue was full when a non-blocking submit arrived — the
    /// admission-control signal a front-end turns into an explicit
    /// wire-level "overloaded" reply instead of queueing without bound.
    Overloaded {
        /// The saturated shard.
        shard: usize,
    },
    /// An insert reused a rule id (= priority) that is already present.
    DuplicateRuleId {
        /// The colliding id.
        id: u32,
    },
    /// A remove/replace named a rule id that is not present.
    UnknownRuleId {
        /// The missing id.
        id: u32,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WidthMismatch { expected, found } => {
                write!(f, "word width {found} does not match rule width {expected}")
            }
            ServeError::TooWide { width, max } => {
                write!(f, "word width {width} exceeds packed maximum {max}")
            }
            ServeError::BadShardBits { bits, max } => {
                write!(f, "{bits} shard bits exceed maximum {max}")
            }
            ServeError::AmbiguousKey { bit } => {
                write!(f, "key has a don't-care in shard-selector bit {bit}")
            }
            ServeError::EmptyRuleSet => write!(f, "rule set is empty"),
            ServeError::ServiceClosed => write!(f, "service has shut down"),
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} queue is full (load shed)")
            }
            ServeError::DuplicateRuleId { id } => {
                write!(f, "rule id {id} is already present")
            }
            ServeError::UnknownRuleId { id } => write!(f, "rule id {id} is not present"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
