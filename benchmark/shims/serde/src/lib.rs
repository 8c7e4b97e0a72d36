//! Marker traits plus the no-op derives, so that
//! `use serde::{Deserialize, Serialize}` imports both namespaces as it does
//! with the real crate.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Stand-in for `serde::Serialize`; never implemented.
pub trait Serialize {}

/// Stand-in for `serde::Deserialize`; never implemented.
pub trait Deserialize<'de> {}
