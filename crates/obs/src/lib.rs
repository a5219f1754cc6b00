//! Observability layer: leveled structured events, deterministic trace
//! spans, and a bounded in-process event journal.
//!
//! The workspace's serving path (CLI → daemon) and the fit pipeline
//! both emit *events* through this crate instead of ad-hoc
//! `eprintln!` lines. An event is a single-line JSON object with a fixed
//! envelope (`lvl`, `component`, `event`, optional `trace`/`span`/
//! `parent`/`dur_ns`, plus free-form fields), so logs are grep-able and
//! machine-parseable. Two independent sinks consume events:
//!
//! - **stderr**, gated by the `FIS_LOG` environment variable
//!   (`error|warn|info|debug|trace`, default `warn`; `off`/`0` silences
//!   everything). [`set_level`] overrides the env for in-process tests.
//! - **the journal**, a process-global bounded ring buffer
//!   ([`journal`]) that callers switch on explicitly (`--trace FILE` on
//!   the CLI and daemon) and flush to a JSONL file. When the ring
//!   overflows, the *oldest* events are dropped and the drop count is
//!   reported, so the journal is always bounded.
//!
//! Spans ([`span`], [`SpanGuard`]) measure a named region and emit one
//! event on drop carrying `dur_ns`. Span identity is a deterministic
//! [`TraceContext`] — ids are FNV-1a hashes of payload content and
//! monotonic sequence numbers, never wall-clock or RNG, so a
//! single-threaded replay of the same inputs yields the same ids. The
//! current span is tracked per thread; child spans and events inherit
//! its trace id, and a remote context parsed from a protocol frame can
//! be adopted with [`span_in`] so one request is reconstructable across
//! client → daemon → registry hops from the journals alone.
//!
//! Everything here is out-of-band with respect to answers: recording
//! never feeds back into model computation, so predictions are
//! bit-identical with observability on or off (enforced by tests in the
//! workspace root).

pub mod journal;
pub mod level;
pub mod summary;
pub mod trace;

pub use journal::{Journal, JournalHandle};
pub use level::{enabled, level, set_level, Level};
pub use summary::{render_table, summarize, StageSummary};
pub use trace::{
    active, current, event, span, span_in, span_root, Event, EventBuilder, SpanGuard, TraceContext,
};
