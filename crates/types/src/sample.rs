//! Crowdsourced RF signal samples (records).

use crate::error::TypeError;
use crate::json::{missing_field, Json, Kind, Reader, ToJson};
use crate::mac::MacAddr;
use crate::rssi::Rssi;

/// Identifier of a signal sample within a building, dense from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SampleId(pub u32);

impl SampleId {
    /// The dense index as `usize`.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SampleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One crowdsourced RF record: the set of MAC addresses heard in a single
/// scan together with their RSS readings.
///
/// Readings are stored sorted by MAC with duplicates collapsed (the
/// strongest reading wins), so lookups are `O(log n)` and iteration order is
/// deterministic.
///
/// # Example
///
/// ```
/// use fis_types::{MacAddr, Rssi, SignalSample};
///
/// let m1 = MacAddr::from_u64(1);
/// let m2 = MacAddr::from_u64(2);
/// let s = SignalSample::builder(7)
///     .reading(m2, Rssi::new(-70.0)?)
///     .reading(m1, Rssi::new(-55.0)?)
///     .reading(m2, Rssi::new(-60.0)?) // duplicate: strongest kept
///     .build();
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.rssi_of(m2), Some(Rssi::new(-60.0)?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSample {
    id: SampleId,
    readings: Vec<(MacAddr, Rssi)>,
}

impl SignalSample {
    /// Starts building a sample with the given dense id.
    pub fn builder(id: u32) -> SignalSampleBuilder {
        SignalSampleBuilder {
            id: SampleId(id),
            readings: Vec::new(),
        }
    }

    /// The sample's identifier.
    pub fn id(&self) -> SampleId {
        self.id
    }

    /// Number of distinct MACs heard.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the scan heard no APs at all.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Iterates over `(mac, rssi)` readings in MAC order.
    pub fn iter(&self) -> impl Iterator<Item = (MacAddr, Rssi)> + '_ {
        self.readings.iter().copied()
    }

    /// The RSS reading for `mac`, if heard.
    pub fn rssi_of(&self, mac: MacAddr) -> Option<Rssi> {
        self.readings
            .binary_search_by_key(&mac, |&(m, _)| m)
            .ok()
            .map(|i| self.readings[i].1)
    }

    /// Whether the sample heard `mac`.
    pub fn contains(&self, mac: MacAddr) -> bool {
        self.rssi_of(mac).is_some()
    }

    /// The strongest reading in the sample, if any.
    pub fn strongest(&self) -> Option<(MacAddr, Rssi)> {
        self.readings
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("Rssi is never NaN"))
    }

    /// Count of MACs shared with another sample.
    pub fn shared_macs(&self, other: &SignalSample) -> usize {
        // Merge walk over the two sorted lists.
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < self.readings.len() && j < other.readings.len() {
            match self.readings[i].0.cmp(&other.readings[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Re-numbers the sample (used when filtering corpora compacts ids).
    pub fn with_id(mut self, id: u32) -> SignalSample {
        self.id = SampleId(id);
        self
    }
}

impl ToJson for SignalSample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(f64::from(self.id.0))),
            (
                "readings",
                Json::Arr(
                    self.readings
                        .iter()
                        .map(|(mac, rssi)| Json::Arr(vec![mac.to_json(), rssi.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl SignalSample {
    /// Reads one scan straight from a [`Reader`], each `[mac, rssi]`
    /// pair going into the sample with no [`Json`] tree in between. This
    /// is the one scan decoder: corpus lines, request frames and model
    /// artifacts all read their scans through it. Keys come in any
    /// order; a later duplicate key replaces an earlier one, as in a
    /// [`Json::Obj`]. The checks run in a fixed order: the `id`, then
    /// `readings`, then each pair in turn.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError`] on a syntax error or a scan that breaks the
    /// id or pair rule. A wrongly typed value may be left partly read;
    /// [`Reader::decode`] skips it.
    pub fn read(r: &mut Reader<'_>) -> Result<Self, TypeError> {
        let (mut id, mut readings) = (None, None);
        if r.peek()? == Kind::Obj {
            let mut fields = r.object()?;
            while let Some(key) = r.next_key(&mut fields)? {
                match key.as_ref() {
                    "id" => id = Some(r.value()?),
                    "readings" => readings = Some(r.decode(read_readings)?),
                    _ => r.skip()?,
                }
            }
        }
        let id = scan_id(id.as_ref())?;
        let readings = readings.ok_or_else(|| missing_field("readings"))??;
        Ok(SignalSampleBuilder {
            id: SampleId(id),
            readings,
        }
        .build())
    }
}

/// The id rule. Ids ride the wire as JSON numbers (f64): anything past
/// 2^32-1 is rejected here, *before* any floor-identification work, so
/// an id can never silently lose precision at the f64 boundary (2^53)
/// and collide with another scan's id in a response.
fn scan_id(id: Option<&Json>) -> Result<u32, TypeError> {
    let id = id.ok_or_else(|| missing_field("id"))?;
    id.as_usize()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| {
            TypeError::Io(format!(
                "sample id must be an integer in 0..=4294967295, got {id}"
            ))
        })
}

/// A scan's `readings` array.
fn read_readings(r: &mut Reader<'_>) -> Result<Vec<(MacAddr, Rssi)>, TypeError> {
    r.array_of(
        || TypeError::Io("readings must be an array".to_owned()),
        read_reading,
    )
}

/// One reading, under the pair rule: a two-item array of a MAC string
/// and an RSSI number. The pair's shape is checked before either item.
fn read_reading(r: &mut Reader<'_>) -> Result<(MacAddr, Rssi), TypeError> {
    let (mut mac, mut rssi, mut len) = (None, None, 0);
    if r.peek()? == Kind::Arr {
        let mut items = r.array()?;
        while r.next_item(&mut items)? {
            match (len, r.peek()?) {
                (0, Kind::Str) => mac = Some(r.str()?),
                (1, Kind::Num) => rssi = Some(r.num()?),
                _ => r.skip()?,
            }
            len += 1;
        }
    }
    if len != 2 {
        return Err(TypeError::Io(
            "reading must be a [mac, rssi] pair".to_owned(),
        ));
    }
    Ok((MacAddr::from_wire(mac.as_deref())?, Rssi::from_wire(rssi)?))
}

/// Builder for [`SignalSample`]; see [`SignalSample::builder`].
#[derive(Debug, Clone)]
pub struct SignalSampleBuilder {
    id: SampleId,
    readings: Vec<(MacAddr, Rssi)>,
}

impl SignalSampleBuilder {
    /// Adds one `(mac, rssi)` reading. Duplicate MACs are collapsed at
    /// [`SignalSampleBuilder::build`] time, keeping the strongest reading.
    pub fn reading(mut self, mac: MacAddr, rssi: Rssi) -> Self {
        self.readings.push((mac, rssi));
        self
    }

    /// Adds many readings at once.
    pub fn readings(mut self, iter: impl IntoIterator<Item = (MacAddr, Rssi)>) -> Self {
        self.readings.extend(iter);
        self
    }

    /// Finalizes the sample: sorts by MAC and collapses duplicates keeping
    /// the strongest reading.
    pub fn build(mut self) -> SignalSample {
        self.readings
            .sort_by(|a, b| a.0.cmp(&b.0).then(b.1.partial_cmp(&a.1).expect("no NaN")));
        self.readings.dedup_by_key(|&mut (m, _)| m);
        SignalSample {
            id: self.id,
            readings: self.readings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rssi(v: f64) -> Rssi {
        Rssi::new(v).unwrap()
    }

    #[test]
    fn builder_sorts_and_dedups_keeping_strongest() {
        let m1 = MacAddr::from_u64(10);
        let m2 = MacAddr::from_u64(5);
        let s = SignalSample::builder(0)
            .reading(m1, rssi(-80.0))
            .reading(m2, rssi(-60.0))
            .reading(m1, rssi(-40.0))
            .build();
        assert_eq!(s.len(), 2);
        let macs: Vec<MacAddr> = s.iter().map(|(m, _)| m).collect();
        assert_eq!(macs, vec![m2, m1]); // sorted
        assert_eq!(s.rssi_of(m1), Some(rssi(-40.0))); // strongest kept
    }

    #[test]
    fn lookup_and_contains() {
        let m = MacAddr::from_u64(1);
        let other = MacAddr::from_u64(2);
        let s = SignalSample::builder(0).reading(m, rssi(-50.0)).build();
        assert!(s.contains(m));
        assert!(!s.contains(other));
        assert_eq!(s.rssi_of(other), None);
    }

    /// One scan document through [`SignalSample::read`].
    fn decode(text: &str) -> Result<SignalSample, TypeError> {
        let mut r = Reader::new(text);
        let scan = r.decode(SignalSample::read)?;
        r.finish()?;
        scan
    }

    #[test]
    fn out_of_range_ids_are_rejected_at_parse_time() {
        // In-range boundary parses.
        assert_eq!(
            decode(r#"{"id":4294967295,"readings":[]}"#)
                .unwrap()
                .id()
                .index(),
            u32::MAX as usize
        );
        // Everything that cannot round-trip as a u32 through an f64 wire
        // number is a parse error, not a silently mangled id: past u32,
        // past f64's 2^53 integer precision, fractional, or negative.
        for bad in [
            r#"{"id":4294967296,"readings":[]}"#,
            r#"{"id":9007199254740993,"readings":[]}"#,
            r#"{"id":18446744073709551615,"readings":[]}"#,
            r#"{"id":1.5,"readings":[]}"#,
            r#"{"id":-1,"readings":[]}"#,
            r#"{"id":"7","readings":[]}"#,
        ] {
            let err = decode(bad).expect_err(&format!("{bad} must be rejected"));
            assert!(
                err.to_string().contains("0..=4294967295"),
                "{bad}: error names the accepted range, got: {err}"
            );
        }
    }

    #[test]
    fn strongest_of_empty_is_none() {
        let s = SignalSample::builder(0).build();
        assert!(s.is_empty());
        assert_eq!(s.strongest(), None);
    }

    #[test]
    fn strongest_picks_max() {
        let s = SignalSample::builder(0)
            .reading(MacAddr::from_u64(1), rssi(-90.0))
            .reading(MacAddr::from_u64(2), rssi(-30.0))
            .reading(MacAddr::from_u64(3), rssi(-60.0))
            .build();
        assert_eq!(s.strongest().unwrap().0, MacAddr::from_u64(2));
    }

    #[test]
    fn shared_macs_counts_intersection() {
        let a = SignalSample::builder(0)
            .readings((1..=5).map(|i| (MacAddr::from_u64(i), rssi(-50.0))))
            .build();
        let b = SignalSample::builder(1)
            .readings((4..=8).map(|i| (MacAddr::from_u64(i), rssi(-50.0))))
            .build();
        assert_eq!(a.shared_macs(&b), 2);
        assert_eq!(b.shared_macs(&a), 2);
        assert_eq!(a.shared_macs(&a), 5);
    }

    #[test]
    fn json_round_trip() {
        let s = SignalSample::builder(3)
            .reading(MacAddr::from_u64(9), rssi(-66.0))
            .reading(MacAddr::from_u64(2), rssi(-41.5))
            .build();
        let json = s.to_json_string();
        let back = decode(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn with_id_renumbers() {
        let s = SignalSample::builder(3).build().with_id(9);
        assert_eq!(s.id(), SampleId(9));
    }
}
