//! The repository benchmark for the Perm reproduction.
//!
//! One binary (`src/main.rs`) runs one of three workloads — `browse_small`,
//! `paper_overhead`, `server_mixed` — for a fixed number of seconds, checks
//! every result against a reference, and prints its end-to-end metrics (or,
//! with `--trace 1`, its per-layer metrics) as one JSON line. This library
//! holds the parts that must be deterministic per seed and are unit-tested
//! on their own: the data and statement generators, the multiset checksums,
//! the span recorder and the summary statistics. See `README.md` for the
//! workloads, the metric → layer → workload map and the correspondence to
//! the older `bench_summary` sections.

#![forbid(unsafe_code)]

pub mod checksum;
pub mod data;
pub mod host;
pub mod ops;
pub mod rng;
pub mod stats;
pub mod stmts;
pub mod trace;
