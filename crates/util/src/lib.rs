//! # sailfish-util
//!
//! The zero-dependency toolkit backing the Sailfish workspace's hermetic
//! offline build. Everything the workspace used to pull from crates.io
//! for experiments lives here instead, in-tree and deterministic:
//!
//! * [`rng`] — SplitMix64 and xoshiro256++ behind a `rand`-shaped
//!   facade ([`rand`]): `seed_from_u64`, `gen`, `gen_range`, `gen_bool`,
//!   `shuffle`, `choose`. Identical seeds give identical sequences on
//!   every platform and toolchain.
//! * [`json`] — a small JSON value type, parser and writer covering the
//!   `experiments/*.json` record format and bench reports.
//! * [`check`] — a seeded property-testing harness with replayable
//!   failure reporting (no shrinking; seeds are the repro).
//! * [`fuzz`] — a structure-aware byte-buffer mutator (field-offset
//!   maps, truncation/bit-flip/length-corruption/extension) for
//!   hostile-input testing of the wire parsers.
//! * [`mod@bench`] — warmup + calibrated samples + median/p99 ns/op, with
//!   JSON output, replacing the external bench framework.
//!
//! Policy: this workspace builds with `--offline` from an empty cargo
//! registry, so nothing here (or anywhere in the workspace) may depend
//! on external crates. See README "Building offline".

#![forbid(unsafe_code)]
// Non-test code must not `unwrap()`: see clippy.toml.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod bench;
pub mod check;
pub mod fuzz;
pub mod json;
pub mod rng;

/// Drop-in facade mirroring the slice of the `rand` crate API the
/// workspace uses, so call sites read identically:
///
/// ```
/// use sailfish_util::rand::rngs::StdRng;
/// use sailfish_util::rand::{Rng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let lane: usize = rng.gen_range(0..4);
/// assert!(lane < 4);
/// ```
pub mod rand {
    pub use crate::rng::{Rng, RngCore, SampleRange, SampleUniform, SeedableRng, Standard};

    /// Named generators (the facade's `StdRng` is xoshiro256++).
    pub mod rngs {
        pub use crate::rng::{SplitMix64, Xoshiro256pp, Xoshiro256pp as StdRng};
    }
}
