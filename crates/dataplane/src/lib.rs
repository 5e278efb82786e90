//! Behavioral packet-level dataplane executor.
//!
//! Every other crate in the workspace reasons about [`sailfish_net::GatewayPacket`]
//! — an already-parsed model of a VXLAN frame. This crate closes the loop
//! down to real wire bytes: it parses Ethernet/IPv4/IPv6/VXLAN frames with
//! the `net::wire` views, walks the verified XGW-H table layout stage by
//! stage (digest match with conflict-table fallback, pooled-ALPM LPM,
//! VNI-based horizontal split and ECMP device choice), applies the header
//! rewrite and re-encapsulation in place, and degrades to the XGW-x86
//! software path whenever the hardware pipeline cannot serve a packet —
//! the same fallback model the region simulation uses.
//!
//! # Who decides what
//!
//! Each part of a packet's fate has exactly one definition:
//!
//! - **the vocabulary** — what any tier decides for a packet — is
//!   [`Verdict`](sailfish_tables::types::Verdict), with one
//!   [`Reason`](sailfish_tables::types::Reason) for its drops and
//!   punts. The hardware walk, the x86 forwarder, the flow cache and the
//!   oracle all speak it; [`sailfish_xgw_h::HwDecision::new`] is the only
//!   conversion, for the one caller that wants the packet back;
//! - **the hardware walk** — ACL, bounded peer-VPC route chain, VM-NC
//!   digest probe — is [`sailfish_xgw_h::tables::HardwareTables::walk`],
//!   generic over a [`sailfish_xgw_h::WalkSink`]; [`engine`] supplies the
//!   counting sink ([`TableCounters`]) and the virtual cost of each table
//!   interaction;
//! - **steering** — VNI directory → dual-window owner pick → cluster →
//!   epoch-tag check → ECMP device — is [`EpochState::steer`];
//! - **disposition** — everything after a flow's verdict is known:
//!   SNAT-offload intercept, the DPU → x86 punt ladder behind its
//!   breakers, worker merge and punt resolution into a [`RunReport`] — is
//!   the crate-private `ladder` module, which serves a queued punt from
//!   its frame's borrowed view;
//! - **the driver** — how frames reach all of that: borrowed-view parse,
//!   the evicting S3-FIFO [`FlowCache`], the miss pipeline, the arena
//!   rewrite and the per-frame virtual clock — is
//!   [`batch::BatchExecutor`]. [`executor::Dataplane::run_single`] (one
//!   worker, the deterministic mode for golden tests and byte-identical
//!   benchmark JSON) and [`executor::Dataplane::run_multi`] (scoped
//!   threads partitioned by outer-UDP flow entropy, exactly like an
//!   underlay ECMP fabric) are cold runs of it. Its reports are
//!   batch-size invariant (`tests/batch_equivalence.rs`);
//! - **the independent oracle** is the x86 walk,
//!   `xgw_x86::SoftwareTables::walk` (flat LPM with `resolve`, no ALPM,
//!   no single-step recirculation), plus the SNAT step of
//!   `xgw_x86::SoftwareForwarder::forward`. It shares only the
//!   vocabulary with the above: [`oracle::differential_run`] requires
//!   every packet the pipeline serves to reach the same verdict the
//!   software forwarder reaches over the full table set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Non-test code must not `unwrap()` (see clippy.toml `disallowed-methods`);
// CI's `-D warnings` escalates this to deny. Test builds carry `cfg(test)`
// and keep their unwraps.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

// The zero-alloc batch hot path handles raw frames at line rate; its
// slicing lint is `deny` like `rewrite`'s — unchecked indexing on
// hostile bytes must not compile.
#[deny(clippy::indexing_slicing)]
pub mod batch;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod counters;
pub mod engine;
// The epoch builder runs on every install against whatever topology,
// config and world it is handed; no index in it may be taken on trust.
#[deny(clippy::indexing_slicing)]
pub mod epoch;
// Config, report and the oracle's per-frame view: the outer-UDP peek
// reads hostile bytes, so no index in it may be taken on trust.
#[deny(clippy::indexing_slicing)]
pub mod executor;
mod ladder;
pub mod oracle;
#[deny(clippy::indexing_slicing)]
pub mod rewrite;
pub mod tier;
pub mod traffic;

pub use batch::BatchExecutor;
pub use breaker::{Admission, BreakerConfig, BreakerState, BreakerStats, PuntBreaker};
pub use cache::{FlowCache, FlowOutcome};
pub use chaos::{ChaosConfig, ChaosReport, FaultOutcome, InvariantViolation, SlotRecord};
pub use counters::TableCounters;
pub use epoch::{EpochCell, EpochState, WorldView};
pub use executor::{Dataplane, DataplaneConfig, RunReport};
pub use oracle::{differential_run, OracleReport};
pub use tier::{TierConfig, TierDecision, TierMap};
