//! Root facade: re-exports the public SDK (`cbs_core`).

#![deny(unsafe_code)]

pub use cbs_core::*;
