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
    /// A nonzero shard-selector width: a rule set is one table, so 0 is
    /// the only width accepted.
    BadShardBits {
        /// The offered selector width.
        bits: u32,
        /// The maximum allowed (0).
        max: u32,
    },
    /// The rule set holds no rules.
    EmptyRuleSet,
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
            ServeError::EmptyRuleSet => write!(f, "rule set is empty"),
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
