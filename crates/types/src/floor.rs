//! Floor identifiers.

use std::fmt;

use crate::error::TypeError;
use crate::json::{Json, Kind, Reader, ToJson};

/// A floor within a building, counted from the bottom floor upward.
///
/// The paper indexes floors `F1, F2, ...` with `F1` the bottom floor where
/// the single labeled sample is collected. Internally this is a zero-based
/// index: `FloorId::from_index(0)` is `F1`.
///
/// # Example
///
/// ```
/// use fis_types::FloorId;
///
/// let f = FloorId::from_index(2);
/// assert_eq!(f.to_string(), "F3");
/// assert_eq!(f.index(), 2);
/// assert_eq!(f.number(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FloorId(usize);

impl FloorId {
    /// Bottom floor (`F1`).
    pub const BOTTOM: FloorId = FloorId(0);

    /// Creates a floor from its zero-based index.
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }

    /// Creates a floor from its one-based number (`F1` = 1).
    ///
    /// # Panics
    ///
    /// Panics if `number == 0`.
    pub fn from_number(number: usize) -> Self {
        assert!(number >= 1, "floor numbers are one-based");
        Self(number - 1)
    }

    /// Zero-based index (bottom floor is 0).
    pub fn index(&self) -> usize {
        self.0
    }

    /// One-based floor number (bottom floor is 1).
    pub fn number(&self) -> usize {
        self.0 + 1
    }

    /// Absolute distance in floors between two floors.
    pub fn distance(&self, other: FloorId) -> usize {
        self.0.abs_diff(other.0)
    }

    /// The floor directly above.
    pub fn above(&self) -> FloorId {
        FloorId(self.0 + 1)
    }

    /// The floor directly below, or `None` at the bottom.
    pub fn below(&self) -> Option<FloorId> {
        self.0.checked_sub(1).map(FloorId)
    }
}

impl ToJson for FloorId {
    fn to_json(&self) -> Json {
        Json::Num(self.0 as f64)
    }
}

impl FloorId {
    /// Reads a floor label, a non-negative integer, from a [`Reader`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] for any other value (left unread).
    pub fn read(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let index = match r.peek()? {
            Kind::Num => Json::Num(r.num()?).as_usize(),
            _ => None,
        };
        index
            .map(FloorId)
            .ok_or_else(|| TypeError::Io("floor id must be a non-negative integer".to_owned()))
    }
}

impl fmt::Display for FloorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.number())
    }
}

impl From<usize> for FloorId {
    fn from(index: usize) -> Self {
        Self::from_index(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_number_round_trip() {
        assert_eq!(FloorId::from_number(1), FloorId::BOTTOM);
        assert_eq!(FloorId::from_index(4).number(), 5);
        assert_eq!(FloorId::from_number(7).index(), 6);
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn from_number_zero_panics() {
        let _ = FloorId::from_number(0);
    }

    #[test]
    fn distance_and_neighbors() {
        let f1 = FloorId::from_index(0);
        let f4 = FloorId::from_index(3);
        assert_eq!(f1.distance(f4), 3);
        assert_eq!(f4.distance(f1), 3);
        assert_eq!(f1.above(), FloorId::from_index(1));
        assert_eq!(f1.below(), None);
        assert_eq!(f4.below(), Some(FloorId::from_index(2)));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(FloorId::BOTTOM.to_string(), "F1");
        assert_eq!(FloorId::from_index(6).to_string(), "F7");
    }

    #[test]
    fn ordering_is_by_height() {
        assert!(FloorId::from_index(0) < FloorId::from_index(1));
    }
}
