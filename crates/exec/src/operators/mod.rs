//! Physical operator implementations.

pub mod aggregate;
pub mod join;
pub(crate) mod partition;
pub mod setop;
pub mod spill;
