//! A functional (cycle-free) TCAM array with priority encoding.
//!
//! This is the architectural abstraction applications program against; the
//! circuit-level behaviour (latency/energy per operation) is attached via
//! [`crate::energy_model`].

use std::fmt;
use tcam_core::bit::{word_matches, TernaryBit};

/// Errors from functional TCAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// A word's width differs from the array's.
    WidthMismatch {
        /// The array's word width.
        expected: usize,
        /// The offered word's width.
        found: usize,
    },
    /// A row index beyond the array's capacity.
    RowOutOfRange {
        /// The offending row.
        row: usize,
        /// The capacity.
        rows: usize,
    },
    /// The array has fewer rows than the table needs.
    Full,
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::WidthMismatch { expected, found } => {
                write!(
                    f,
                    "word width {found} does not match array width {expected}"
                )
            }
            ArchError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (array has {rows} rows)")
            }
            ArchError::Full => write!(f, "array is full"),
        }
    }
}

impl std::error::Error for ArchError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ArchError>;

/// A fixed-capacity ternary CAM: `rows` words of `width` ternary bits,
/// lower row index = higher match priority.
///
/// ```
/// use tcam_arch::array::TcamArray;
/// use tcam_core::bit::parse_ternary;
///
/// # fn main() -> Result<(), tcam_arch::array::ArchError> {
/// let mut tcam = TcamArray::new(4, 3);
/// tcam.write(0, parse_ternary("1X0").unwrap())?;
/// tcam.write(2, parse_ternary("11X").unwrap())?;
/// assert_eq!(tcam.first_match(&parse_ternary("110").unwrap()), Some(0));
/// assert_eq!(tcam.matches(&parse_ternary("110").unwrap()), vec![0, 2]);
/// assert_eq!(tcam.first_match(&parse_ternary("001").unwrap()), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TcamArray {
    width: usize,
    entries: Vec<Option<Vec<TernaryBit>>>,
    occupied: usize,
}

impl TcamArray {
    /// Creates an empty array of `rows` words × `width` bits.
    #[must_use]
    pub fn new(rows: usize, width: usize) -> Self {
        Self {
            width,
            entries: vec![None; rows],
            occupied: 0,
        }
    }

    /// Word width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row capacity.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.entries.len()
    }

    /// Number of valid (written) rows (maintained counter, O(1)).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Writes `word` into `row`, replacing any previous entry.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] or [`ArchError::WidthMismatch`].
    pub fn write(&mut self, row: usize, word: Vec<TernaryBit>) -> Result<()> {
        if row >= self.entries.len() {
            return Err(ArchError::RowOutOfRange {
                row,
                rows: self.entries.len(),
            });
        }
        if word.len() != self.width {
            return Err(ArchError::WidthMismatch {
                expected: self.width,
                found: word.len(),
            });
        }
        if self.entries[row].is_none() {
            self.occupied += 1;
        }
        self.entries[row] = Some(word);
        Ok(())
    }

    /// Invalidates a row.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`].
    pub fn erase(&mut self, row: usize) -> Result<()> {
        if row >= self.entries.len() {
            return Err(ArchError::RowOutOfRange {
                row,
                rows: self.entries.len(),
            });
        }
        if self.entries[row].take().is_some() {
            self.occupied -= 1;
        }
        Ok(())
    }

    /// The stored word at `row` (if valid).
    #[must_use]
    pub fn entry(&self, row: usize) -> Option<&[TernaryBit]> {
        self.entries.get(row).and_then(|e| e.as_deref())
    }

    /// All matching rows in priority (ascending index) order.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != width` (keys are programmer-controlled).
    #[must_use]
    pub fn matches(&self, key: &[TernaryBit]) -> Vec<usize> {
        assert_eq!(key.len(), self.width, "key width mismatch");
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().filter(|w| word_matches(w, key)).map(|_| i))
            .collect()
    }

    /// The highest-priority (lowest-index) matching row — the hardware
    /// priority encoder's output.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != width`.
    #[must_use]
    pub fn first_match(&self, key: &[TernaryBit]) -> Option<usize> {
        assert_eq!(key.len(), self.width, "key width mismatch");
        self.entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| e.as_ref().filter(|w| word_matches(w, key)).map(|_| i))
    }
}

/// Converts an unsigned value to a fixed-width binary ternary word,
/// MSB first.
///
/// # Panics
///
/// Panics if `bits > 64`.
#[must_use]
pub fn value_to_word(value: u64, bits: usize) -> Vec<TernaryBit> {
    assert!(bits <= 64, "at most 64 bits");
    (0..bits)
        .rev()
        .map(|i| TernaryBit::from_bool((value >> i) & 1 == 1))
        .collect()
}

/// A prefix word: the top `prefix_len` bits of `value`, then don't-cares.
///
/// # Panics
///
/// Panics if `prefix_len > bits` or `bits > 64`.
#[must_use]
pub fn prefix_to_word(value: u64, prefix_len: usize, bits: usize) -> Vec<TernaryBit> {
    assert!(bits <= 64 && prefix_len <= bits, "invalid prefix spec");
    (0..bits)
        .rev()
        .enumerate()
        .map(|(pos, i)| {
            if pos < prefix_len {
                TernaryBit::from_bool((value >> i) & 1 == 1)
            } else {
                TernaryBit::X
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_core::bit::parse_ternary;

    #[test]
    fn write_search_erase_lifecycle() {
        let mut t = TcamArray::new(3, 4);
        assert_eq!(t.occupancy(), 0);
        t.write(1, parse_ternary("10X1").unwrap()).unwrap();
        assert_eq!(t.occupancy(), 1);
        let key = parse_ternary("1011").unwrap();
        assert_eq!(t.first_match(&key), Some(1));
        t.erase(1).unwrap();
        assert_eq!(t.first_match(&key), None);
    }

    #[test]
    fn priority_order_is_row_order() {
        let mut t = TcamArray::new(4, 2);
        t.write(3, parse_ternary("1X").unwrap()).unwrap();
        t.write(1, parse_ternary("11").unwrap()).unwrap();
        let key = parse_ternary("11").unwrap();
        assert_eq!(t.first_match(&key), Some(1));
        assert_eq!(t.matches(&key), vec![1, 3]);
    }

    #[test]
    fn occupancy_counter_tracks_interleaved_mutation() {
        use tcam_numeric::rng::SplitMix64;
        let mut rng = SplitMix64::new(0xF00D);
        let mut t = TcamArray::new(16, 3);
        for _ in 0..500 {
            let row = rng.below(16) as usize;
            match rng.below(3) {
                0 => t.write(row, parse_ternary("0X1").unwrap()).unwrap(),
                1 => t.erase(row).unwrap(),
                _ => {
                    // Double erase must not unbalance the counter.
                    t.erase(row).unwrap();
                    t.erase(row).unwrap();
                }
            }
            let truth = (0..16).filter(|&r| t.entry(r).is_some()).count();
            assert_eq!(t.occupancy(), truth);
        }
    }

    #[test]
    fn errors_are_reported() {
        let mut t = TcamArray::new(2, 3);
        assert!(matches!(
            t.write(9, parse_ternary("000").unwrap()),
            Err(ArchError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            t.write(0, parse_ternary("0000").unwrap()),
            Err(ArchError::WidthMismatch { .. })
        ));
        assert!(t.erase(5).is_err());
        assert!(t.entry(0).is_none());
    }

    #[test]
    fn value_and_prefix_words() {
        assert_eq!(value_to_word(0b101, 3), parse_ternary("101").unwrap());
        assert_eq!(prefix_to_word(0b1100, 2, 4), parse_ternary("11XX").unwrap());
        assert_eq!(
            prefix_to_word(u64::MAX, 0, 3),
            parse_ternary("XXX").unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn key_width_checked() {
        let t = TcamArray::new(1, 2);
        let _ = t.first_match(&[TernaryBit::One]);
    }
}
