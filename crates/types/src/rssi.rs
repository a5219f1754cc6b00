//! Received signal strength readings and the paper's edge-weight transform.

use std::fmt;

use crate::error::TypeError;
use crate::json::{Json, ToJson};

/// Default offset `c` of the edge-weight transform `f(RSS) = RSS + c`.
///
/// The paper sets `c = 120 dBm` so that `f(RSS) > 0` for all observed
/// readings (§III-A).
pub const DEFAULT_RSS_OFFSET: f64 = 120.0;

/// Physically plausible lower bound for an RSS reading in dBm.
pub const MIN_DBM: f64 = -119.0;

/// Physically plausible upper bound for an RSS reading in dBm.
pub const MAX_DBM: f64 = 0.0;

/// A received signal strength reading in dBm.
///
/// Valid readings are finite and within `[-119, 0]` dBm, matching the range
/// reported by commodity WiFi radios and guaranteeing the paper's weight
/// transform with `c = 120` stays strictly positive.
///
/// # Example
///
/// ```
/// use fis_types::Rssi;
///
/// let r = Rssi::new(-60.0)?;
/// assert_eq!(r.dbm(), -60.0);
/// assert_eq!(r.edge_weight(), 60.0); // -60 + 120
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Rssi(f64);

impl Rssi {
    /// Creates a validated RSS reading.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidRssi`] if `dbm` is NaN, infinite, or
    /// outside `[-119, 0]`.
    pub fn new(dbm: f64) -> Result<Self, TypeError> {
        if !dbm.is_finite() || !(MIN_DBM..=MAX_DBM).contains(&dbm) {
            return Err(TypeError::InvalidRssi(format!(
                "{dbm} dBm outside [{MIN_DBM}, {MAX_DBM}]"
            )));
        }
        Ok(Self(dbm))
    }

    /// Creates a reading by clamping into the valid range (NaN becomes the
    /// weakest valid reading). Useful for synthetic generators where the
    /// propagation model can occasionally overshoot.
    pub fn clamped(dbm: f64) -> Self {
        if dbm.is_nan() {
            Self(MIN_DBM)
        } else {
            Self(dbm.clamp(MIN_DBM, MAX_DBM))
        }
    }

    /// The raw reading in dBm.
    pub fn dbm(&self) -> f64 {
        self.0
    }

    /// The paper's positive edge weight `f(RSS) = RSS + c` with the default
    /// `c = 120`.
    pub fn edge_weight(&self) -> f64 {
        self.edge_weight_with_offset(DEFAULT_RSS_OFFSET)
    }

    /// Edge weight with an explicit offset `c`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the resulting weight is not positive,
    /// which would violate the sampling-probability construction.
    pub fn edge_weight_with_offset(&self, c: f64) -> f64 {
        let w = self.0 + c;
        debug_assert!(
            w > 0.0,
            "edge weight must be positive (rss={}, c={c})",
            self.0
        );
        w
    }
}

impl ToJson for Rssi {
    fn to_json(&self) -> Json {
        Json::Num(self.0)
    }
}

impl Rssi {
    /// A reading from its wire form, a JSON number; `None` when the
    /// value was not a number. The rule the scan decoder
    /// ([`SignalSample::read`](crate::SignalSample::read)) applies to
    /// each pair's second item.
    pub(crate) fn from_wire(dbm: Option<f64>) -> Result<Self, TypeError> {
        Rssi::new(dbm.ok_or_else(|| TypeError::Io("RSSI must be a JSON number".to_owned()))?)
    }
}

impl fmt::Display for Rssi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_valid_range() {
        assert!(Rssi::new(-119.0).is_ok());
        assert!(Rssi::new(0.0).is_ok());
        assert!(Rssi::new(-60.5).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Rssi::new(-120.5).is_err());
        assert!(Rssi::new(1.0).is_err());
        assert!(Rssi::new(f64::NAN).is_err());
        assert!(Rssi::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Rssi::clamped(-500.0).dbm(), MIN_DBM);
        assert_eq!(Rssi::clamped(10.0).dbm(), MAX_DBM);
        assert_eq!(Rssi::clamped(f64::NAN).dbm(), MIN_DBM);
        assert_eq!(Rssi::clamped(-42.0).dbm(), -42.0);
    }

    #[test]
    fn edge_weight_positive_over_entire_range() {
        assert!(Rssi::new(MIN_DBM).unwrap().edge_weight() > 0.0);
        assert_eq!(Rssi::new(-60.0).unwrap().edge_weight(), 60.0);
        assert_eq!(Rssi::new(0.0).unwrap().edge_weight(), 120.0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Rssi::new(-60.0).unwrap().to_string(), "-60.0 dBm");
    }

    #[test]
    fn json_is_transparent() {
        let r = Rssi::new(-77.5).unwrap();
        assert_eq!(r.to_json_string(), "-77.5");
        assert_eq!(Rssi::from_wire(Some(-77.5)).unwrap(), r);
        // Out-of-range values and non-numbers are rejected on load too.
        assert!(Rssi::from_wire(Some(7.0)).is_err());
        assert!(Rssi::from_wire(None).is_err());
    }
}
