//! One module per table, figure, sweep and ablation. Each exposes
//! `pub fn run(scale: Scale) -> ExperimentRecord`; the module name is the
//! experiment id, the stem of `experiments/<id>.json`.

use crate::record::ExperimentRecord;
use crate::scale::Scale;

/// Runs one experiment at a scale and returns its record.
pub type Experiment = fn(Scale) -> ExperimentRecord;

macro_rules! registry {
    ($($id:ident),* $(,)?) => {
        $(pub mod $id;)*

        /// Every experiment by id, in the order `repro` runs them. The
        /// static analyzers come first: every layout the suite is about
        /// to exercise must be legal on the modeled hardware, and every
        /// staged world / re-shard plan must prove black-hole-free and
        /// within capacity before any push.
        pub const REGISTRY: &[(&str, Experiment)] = &[$((stringify!($id), $id::run)),*];
    };
}

registry!(
    verify,
    verify_world,
    table1,
    table2,
    table3,
    table4,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig22,
    fig23,
    rule_80_20,
    n_plus_1,
    fault_injection,
    chaos_dataplane,
    reshard,
    snat,
    tier,
    ablation_alpm_depth,
    ablation_folding,
    ablation_cache_vs_prealloc,
);
