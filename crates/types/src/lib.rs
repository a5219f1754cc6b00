//! Domain types for crowdsourced RF signals.
//!
//! This crate defines the vocabulary shared by the whole FIS-ONE
//! reproduction:
//!
//! - [`MacAddr`]: an access point's media access control address.
//! - [`Rssi`]: a received signal strength reading in dBm, and the paper's
//!   positive edge-weight transform `f(RSS) = RSS + c` (§III-A).
//! - [`SignalSample`]: one crowdsourced RF record — the set of MACs heard in
//!   one scan with their RSS values.
//! - [`FloorId`]: a floor index within a building (`F1` = bottom).
//! - [`Building`]: a building's worth of samples with ground-truth labels
//!   (used only for evaluation and for choosing the single anchor label).
//! - [`Dataset`]: a named collection of buildings with corpus statistics.
//! - [`fnv`]: the 64-bit FNV-1a content hash (inference seeds, cache
//!   keys, trace ids).
//! - [`stats`]: spillover statistics (the Figure 1(b) histogram and
//!   per-floor-pair shared-MAC counts).
//!
//! # Example
//!
//! ```
//! use fis_types::{MacAddr, Rssi, SignalSample};
//!
//! let mac: MacAddr = "aa:bb:cc:dd:ee:01".parse()?;
//! let sample = SignalSample::builder(0)
//!     .reading(mac, Rssi::new(-62.0)?)
//!     .build();
//! assert_eq!(sample.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod building;
pub mod dataset;
pub mod error;
pub mod floor;
pub mod fnv;
pub mod io;
pub mod json;
pub mod mac;
pub mod rssi;
pub mod sample;
pub mod stats;

pub use building::{Building, LabeledAnchor};
pub use dataset::Dataset;
pub use error::TypeError;
pub use floor::FloorId;
pub use mac::MacAddr;
pub use rssi::{Rssi, DEFAULT_RSS_OFFSET};
pub use sample::{SampleId, SignalSample, SignalSampleBuilder};
