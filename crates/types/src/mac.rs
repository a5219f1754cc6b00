//! MAC addresses of sensed access points.

use std::fmt;
use std::str::FromStr;

use crate::error::TypeError;
use crate::json::{Json, Kind, Reader, ToJson};

/// A 48-bit media access control address identifying one AP radio.
///
/// Stored as six octets; ordered and hashable so it can key maps and be
/// interned into dense indices by the graph layer.
///
/// # Example
///
/// ```
/// use fis_types::MacAddr;
///
/// let mac: MacAddr = "aa:bb:cc:dd:ee:ff".parse()?;
/// assert_eq!(mac.to_string(), "aa:bb:cc:dd:ee:ff");
/// assert_eq!(MacAddr::from_u64(mac.to_u64()), mac);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// Creates a MAC address from its six octets.
    pub fn new(octets: [u8; 6]) -> Self {
        Self(octets)
    }

    /// The six octets.
    pub fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Packs the address into the low 48 bits of a `u64`.
    pub fn to_u64(&self) -> u64 {
        self.0
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
    }

    /// Unpacks a MAC address from the low 48 bits of a `u64`.
    ///
    /// The high 16 bits are ignored, which makes this convenient for
    /// generating synthetic distinct MACs from counters.
    pub fn from_u64(v: u64) -> Self {
        let mut o = [0u8; 6];
        for i in 0..6 {
            o[5 - i] = ((v >> (8 * i)) & 0xFF) as u8;
        }
        Self(o)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = TypeError;

    /// Parses six `:`-separated hex octets in place, with no allocation
    /// unless it fails.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || TypeError::ParseMac(s.to_owned());
        let mut parts = s.as_bytes().split(|&b| b == b':');
        let mut octets = [0u8; 6];
        for octet in &mut octets {
            *octet = parts.next().and_then(octet_of).ok_or_else(bad)?;
        }
        if parts.next().is_some() {
            return Err(bad());
        }
        Ok(Self(octets))
    }
}

/// One octet as `u8::from_str_radix(part, 16)` reads it: an optional
/// leading `+`, then one or more hex digits of either case (zero
/// padding allowed) worth at most 255.
fn octet_of(part: &[u8]) -> Option<u8> {
    let digits = part.strip_prefix(b"+").unwrap_or(part);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u8, |octet, &digit| {
        let nibble = match digit {
            b'0'..=b'9' => digit - b'0',
            b'a'..=b'f' => digit - b'a' + 10,
            b'A'..=b'F' => digit - b'A' + 10,
            _ => return None,
        };
        octet.checked_mul(16)?.checked_add(nibble)
    })
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        Self(octets)
    }
}

impl ToJson for MacAddr {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl MacAddr {
    /// A MAC from its wire form, a JSON string; `None` when the value
    /// was not a string. The rule [`MacAddr::read`] and the scan
    /// decoder share.
    pub(crate) fn from_wire(text: Option<&str>) -> Result<Self, TypeError> {
        text.ok_or_else(|| TypeError::Io("MAC address must be a JSON string".to_owned()))?
            .parse()
    }

    /// Reads a MAC string straight from a [`Reader`], borrowing the
    /// text instead of copying it.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError`] on a syntax error, a value that is not a
    /// string, or bad MAC syntax. A wrongly typed value is left unread;
    /// [`Reader::decode`] skips it.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let text = match r.peek()? {
            Kind::Str => Some(r.str()?),
            _ => None,
        };
        Self::from_wire(text.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let mac: MacAddr = "00:1a:2b:3c:4d:5e".parse().unwrap();
        assert_eq!(mac.to_string(), "00:1a:2b:3c:4d:5e");
        assert_eq!(mac.octets(), [0x00, 0x1a, 0x2b, 0x3c, 0x4d, 0x5e]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:gg".parse::<MacAddr>().is_err());
        assert!("aa-bb-cc-dd-ee-ff".parse::<MacAddr>().is_err());
    }

    /// The parser this module used to have (split into a `Vec`, then
    /// `u8::from_str_radix` per part): the reference for what
    /// [`MacAddr::from_str`] must accept and reject.
    fn reference_from_str(s: &str) -> Option<[u8; 6]> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return None;
        }
        let mut octets = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = u8::from_str_radix(p, 16).ok()?;
        }
        Some(octets)
    }

    #[test]
    fn parse_accepts_exactly_what_the_reference_parser_does() {
        let table = [
            "00:1a:2b:3c:4d:5e",
            "AA:BB:CC:DD:EE:FF",
            "aA:Bb:0c:D:e:f",
            "0:0:0:0:0:0",
            "000000ff:01:02:03:04:05",
            "+a:+0b:1:2:3:4",
            "+:1:2:3:4:5",
            "++1:1:2:3:4:5",
            "-1:1:2:3:4:5",
            "100:1:2:3:4:5",
            "ff:ff:ff:ff:ff:fff",
            "ff:ff:ff:ff:ff:0ff",
            ":1:2:3:4:5",
            "1:2:3:4:5:",
            "1:2:3:4:5:6:",
            "1:2:3:4:5:6:7",
            "1:2:3:4:5",
            "1::3:4:5:6",
            " 1:2:3:4:5:6",
            "1:2:3:4:5:6 ",
            "g:2:3:4:5:6",
            "é:2:3:4:5:6",
            "１:2:3:4:5:6",
            "0x1:2:3:4:5:6",
            "",
            ":::::",
            "aa-bb-cc-dd-ee-ff",
        ];
        for text in table {
            let parsed = text.parse::<MacAddr>().ok().map(|m| m.octets());
            assert_eq!(parsed, reference_from_str(text), "{text:?}");
        }
        // Every short octet spelling over a small alphabet, in one slot.
        let alphabet = ["", "0", "1", "f", "F", "g", "+", "-", ":", " "];
        for a in alphabet {
            for b in alphabet {
                for c in alphabet {
                    let text = format!("{a}{b}{c}:1:2:3:4:5");
                    let parsed = text.parse::<MacAddr>().ok().map(|m| m.octets());
                    assert_eq!(parsed, reference_from_str(&text), "{text:?}");
                }
            }
        }
    }

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, 0xFFFF_FFFF_FFFF, 0x1234_5678_9ABC] {
            assert_eq!(MacAddr::from_u64(v).to_u64(), v);
        }
    }

    #[test]
    fn from_u64_ignores_high_bits() {
        assert_eq!(
            MacAddr::from_u64(0xFFFF_0000_0000_0001),
            MacAddr::from_u64(1)
        );
    }

    #[test]
    fn ordering_is_lexicographic_on_octets() {
        let a = MacAddr::from_u64(1);
        let b = MacAddr::from_u64(2);
        assert!(a < b);
    }

    #[test]
    fn json_round_trip() {
        let mac = MacAddr::from_u64(0xA1B2C3D4E5F6);
        let json = mac.to_json_string();
        assert_eq!(json, "\"a1:b2:c3:d4:e5:f6\"");
        let back = MacAddr::read(&mut Reader::new(&json)).unwrap();
        assert_eq!(back, mac);
        assert!(MacAddr::read(&mut Reader::new("7")).is_err());
    }
}
