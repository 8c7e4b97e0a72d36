//! The env-filtered stderr event sink.
//!
//! `SOS_LOG` selects the verbosity: `trace`, `debug`, `info`, `warn`
//! (library default), `error`, or `off`. Binaries that want progress
//! output by default call [`init_from_env_or`] with [`Level::Info`] before
//! any other observability call; the environment always wins when set.
//!
//! Events render as `[ elapsed] LEVEL span>path: message`, so with
//! `SOS_LOG=debug` the span hierarchy structures the stream.

use std::fmt;
use std::sync::OnceLock;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is emitted.
    Off,
    /// Unrecoverable problems.
    Error,
    /// Suspicious conditions worth surfacing.
    Warn,
    /// Run milestones and progress.
    Info,
    /// Span open/close and per-phase detail.
    Debug,
    /// Per-item noise.
    Trace,
}

impl Level {
    /// Parse an `SOS_LOG` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// Fixed-width display label.
    pub fn label(self) -> &'static str {
        match self {
            Level::Off => "OFF",
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

static ACTIVE: OnceLock<Level> = OnceLock::new();

/// Resolve the active level: `SOS_LOG` if set and valid, else `fallback`.
/// First resolution wins for the process; later calls are no-ops.
pub fn init_from_env_or(fallback: Level) -> Level {
    *ACTIVE.get_or_init(|| {
        std::env::var("SOS_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(fallback)
    })
}

/// The active level (resolving with a `Warn` fallback on first use).
pub fn level() -> Level {
    init_from_env_or(Level::Warn)
}

/// Whether events at `l` are currently emitted.
pub fn enabled(l: Level) -> bool {
    l != Level::Off && l <= level()
}

/// Emit one event to stderr (no-op below the active level). Prefer the
/// [`crate::debug!`]-family macros.
pub fn write(l: Level, args: fmt::Arguments<'_>) {
    if !enabled(l) {
        return;
    }
    let path = crate::span::current_path();
    let sep = if path.is_empty() { "" } else { ": " };
    let (now, label) = (crate::now_s(), l.label());
    eprintln!("[{now:>9.3}s] {label:<5} {path}{sep}{args}");
}

/// Emit an `Error`-level event.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::log::write($crate::Level::Error, format_args!($($t)*)) };
}

/// Emit a `Warn`-level event.
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::log::write($crate::Level::Warn, format_args!($($t)*)) };
}

/// Emit an `Info`-level event.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::log::write($crate::Level::Info, format_args!($($t)*)) };
}

/// Emit a `Debug`-level event.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::log::write($crate::Level::Debug, format_args!($($t)*)) };
}

/// Emit a `Trace`-level event.
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => { $crate::log::write($crate::Level::Trace, format_args!($($t)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse(" INFO "), Some(Level::Info));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Debug);
        assert!(Level::Trace > Level::Info);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Level::Debug.label(), "DEBUG");
        assert_eq!(Level::Warn.label(), "WARN");
    }
}
