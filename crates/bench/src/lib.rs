//! # sailfish-bench
//!
//! The reproduction harness: one experiment per table/figure of the paper
//! (`experiments/*.rs`), listed once in [`REGISTRY`] and run by the
//! `repro` binary, plus micro-benchmarks (`benches/`).
//!
//! Each experiment prints the same rows/series the paper reports and
//! returns a machine-readable record, which `repro` writes to
//! `experiments/<id>.json` so `EXPERIMENTS.md` can be cross-checked.
//! Absolute values are model-derived; the *shape* (who wins, by what
//! factor, where crossovers fall) is what must match the paper — see
//! DESIGN.md §2.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod record;
pub mod scale;
pub mod table;

pub use experiments::REGISTRY;
pub use scale::Scale;
