//! Log levels and the `FIS_LOG` environment control.
//!
//! The stderr sink prints an event iff its level is at most the active
//! level. The env var is read once (first use) and cached; tests and
//! embedding binaries can override it programmatically with
//! [`set_level`], which always wins over the environment.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or dropped work (failed connection, load failure).
    Error = 1,
    /// Degraded but continuing (transient accept errors). The default
    /// stderr level.
    Warn = 2,
    /// Lifecycle milestones (listening, shutdown, model load).
    Info = 3,
    /// Per-request / per-stage detail.
    Debug = 4,
    /// Everything, including per-epoch and cache-lookup events.
    Trace = 5,
}

impl Level {
    /// The lowercase name used on the wire and in `FIS_LOG`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `FIS_LOG` value. `off`/`0`/`none` yield `None`
    /// (silence); unrecognized values fall back to the default so a typo
    /// never turns logging off silently.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => None,
            "error" | "1" => Some(Level::Error),
            "warn" | "warning" | "2" => Some(Level::Warn),
            "info" | "3" => Some(Level::Info),
            "debug" | "4" => Some(Level::Debug),
            "trace" | "5" => Some(Level::Trace),
            _ => Some(DEFAULT_LEVEL),
        }
    }
}

/// Stderr level when `FIS_LOG` is unset.
pub const DEFAULT_LEVEL: Level = Level::Warn;

/// Sentinel meaning "no override installed" in [`OVERRIDE`].
const NO_OVERRIDE: u8 = u8::MAX;
/// Sentinel meaning "silenced" (level off) in both cells.
const OFF: u8 = 0;

/// Env-derived level, read once. `OFF` encodes `FIS_LOG=off`.
static ENV_LEVEL: OnceLock<u8> = OnceLock::new();
/// Programmatic override; `NO_OVERRIDE` defers to the environment.
static OVERRIDE: AtomicU8 = AtomicU8::new(NO_OVERRIDE);

fn env_level() -> u8 {
    *ENV_LEVEL.get_or_init(|| match std::env::var("FIS_LOG") {
        Ok(v) => Level::parse(&v).map_or(OFF, |l| l as u8),
        Err(_) => DEFAULT_LEVEL as u8,
    })
}

fn decode(raw: u8) -> Option<Level> {
    match raw {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// The active stderr level, or `None` when silenced.
pub fn level() -> Option<Level> {
    match OVERRIDE.load(Ordering::Relaxed) {
        NO_OVERRIDE => decode(env_level()),
        raw => decode(raw),
    }
}

/// Installs a programmatic level that wins over `FIS_LOG`.
///
/// `set_level(Some(Level::Debug))` forces debug; `set_level(None)`
/// forces silence. Use [`clear_level`] to defer to the environment
/// again. Tests use this to vary the level without touching process-
/// global env vars (which would race across test threads).
pub fn set_level(level: Option<Level>) {
    OVERRIDE.store(level.map_or(OFF, |l| l as u8), Ordering::Relaxed);
}

/// Removes any [`set_level`] override; `FIS_LOG` governs again.
pub fn clear_level() {
    OVERRIDE.store(NO_OVERRIDE, Ordering::Relaxed);
}

/// Whether an event at `lvl` would reach the stderr sink.
pub fn enabled(lvl: Level) -> bool {
    level().is_some_and(|active| lvl <= active)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_names_and_numbers() {
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("4"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("0"), None);
        // A typo degrades to the default, never to silence.
        assert_eq!(Level::parse("vrbose"), Some(DEFAULT_LEVEL));
    }

    #[test]
    fn ordering_is_severity_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Trace);
    }

    #[test]
    fn override_wins_and_clears() {
        set_level(Some(Level::Trace));
        assert!(enabled(Level::Trace));
        set_level(None);
        assert!(!enabled(Level::Error));
        set_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Info));
        clear_level();
    }
}
