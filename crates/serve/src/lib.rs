//! # fis-serve: the multi-tenant serving daemon
//!
//! PR 2 split the pipeline into fit-once (`fis-one fit` →
//! [`FittedModel`](fis_core::FittedModel) artifact) and serve-many
//! (`fis-one assign`), but every `assign` invocation still pays full
//! process startup and loads one model. This crate turns that split into
//! a long-running daemon: load artifacts lazily from a model directory,
//! cache them under an LRU budget, put a republished artifact live on an
//! explicit `swap`, and answer a newline-delimited JSON protocol over
//! stdin/stdout or TCP. A resident model keeps serving until `swap`,
//! `evict`, or an LRU eviction; rewriting or deleting its artifact does
//! nothing on its own.
//!
//! ```text
//! ┌────────────┐  NDJSON   ┌──────────────────────────────┐
//! │   client    │ ───────▶ │ Daemon                        │
//! │ (pipe/TCP)  │ ◀─────── │  ├─ ModelRegistry (one lock:  │
//! └────────────┘           │  │   LRU, explicit swap,      │
//!                          │  │   answer cache)            │
//!                          │  ├─ ServingMetrics (p50/p99)  │
//!                          │  └─ assign fan-out            │
//!                          │     (fis-parallel)            │
//!                          └──────────────────────────────┘
//! ```
//!
//! # Wire protocol
//!
//! One request per line, one response per line, in order. See
//! [`protocol`] for the exact shapes. Operations: `assign`,
//! `assign_batch`, `load`, `evict`, `stats`, `shutdown`, and — behind
//! the v2 envelope (`"v": 2`) — the mutation ops `extend` and `swap`.
//! Frames without a `"v"` key speak v1 and are answered byte-for-byte
//! as before versioning existed. Every failure —
//! malformed frame, unknown building, corrupt artifact,
//! failed inference, oversized batch — is a typed error response
//! (`{"ok":false,"error":{"kind":...,"message":...}}`); the daemon never
//! crashes on input.
//!
//! # Determinism contract
//!
//! The daemon adds **zero** nondeterminism on top of the PR 2 serving
//! contract: responses for `assign`/`assign_batch` are bit-identical for
//! any batch order, any thread count, and any eviction history, because
//! each scan's inference RNG is seeded from `(model seed, scan content)`
//! alone and artifacts reload byte-identically. The same contract makes
//! the optional [`registry::AssignCache`] answer cache exact: replaying
//! a stored answer for identical scan content is indistinguishable from
//! recomputing it, for any cache capacity or invalidation history. The
//! golden-fixture test `tests/serve_determinism.rs` serves the golden
//! corpus through the daemon — with a forced evict+reload in the middle
//! and at several cache capacities — and diffs against
//! `FittedModel::assign`.
//!
//! # Concurrency
//!
//! The daemon's shared state is one [`ModelRegistry`] (its own mutex,
//! `&self` methods) and a metrics mutex, never held together, so
//! [`Daemon::handle_line`] is a `&self` method: TCP mode serves many
//! connections at once on a bounded worker pool ([`pool`]), inference
//! running outside every lock, with graceful shutdown that drains
//! in-flight connections. `stats` reads a [`RegistrySnapshot`] taken
//! under one registry lock hold, before the metrics lock. Concurrency
//! preserves the determinism contract: answers are a pure function of
//! (model artifact, scan content), so any worker and any retry produces
//! the same bytes — and so does a second daemon serving the same model
//! directory, which is all a client needs for failover.
//!
//! # Example
//!
//! ```
//! use fis_serve::{Daemon, DaemonConfig, RegistryConfig};
//!
//! let dir = std::env::temp_dir().join("fis_serve_doc_example");
//! std::fs::create_dir_all(&dir).unwrap();
//! let daemon = Daemon::new(DaemonConfig::new(
//!     RegistryConfig::new(&dir).max_models(4),
//! ));
//! let (response, shutdown) = daemon.handle_line(r#"{"op":"stats"}"#);
//! assert!(!shutdown);
//! assert!(response.to_string().contains("\"ok\":true"));
//! ```

pub mod error;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod server;

pub use error::ServeError;
pub use metrics::{OpMetrics, ServingMetrics};
pub use pool::LineServer;
pub use protocol::{BatchRow, Frame, Request, Response, PROTOCOL_VERSION};
pub use registry::{
    AssignCache, Fetch, ModelRegistry, RegistryConfig, RegistrySnapshot, RegistryStats, ScanKey,
};
pub use server::{Daemon, DaemonConfig};
