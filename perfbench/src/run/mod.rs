//! The workload runners of the benchmark binary.

pub mod common;
pub mod mixed;
pub mod one_shot;
