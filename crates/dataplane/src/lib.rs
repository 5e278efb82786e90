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
//! - **the hardware walk** — ACL, bounded peer-VPC route chain, VM-NC
//!   digest probe — is [`sailfish_xgw_h::tables::HardwareTables::walk`],
//!   generic over a [`sailfish_xgw_h::WalkSink`]; [`engine`] supplies the
//!   counting sink ([`TableCounters`]) and the virtual cost of each table
//!   interaction;
//! - **steering** — VNI directory → dual-window owner pick → cluster →
//!   epoch-tag check → ECMP device — is [`EpochState::steer`];
//! - **disposition** — everything after a flow's [`CachedAction`] is
//!   known: SNAT-offload intercept, the DPU → x86 punt ladder behind its
//!   breakers, worker merge and punt resolution into a [`RunReport`] — is
//!   the crate-private `ladder` module;
//! - **the independent oracle** is `xgw_x86::SoftwareForwarder`, which
//!   shares none of the above: [`oracle::differential_run`] requires every
//!   packet the pipeline serves to reach the same `(next-hop, rewrite)`
//!   decision the software forwarder takes over the full table set.
//!
//! Two *drivers* feed that core, differing only in how frames reach it:
//!
//! - [`executor::Dataplane`] is the frame-at-a-time reference driver —
//!   owned parse, no-evict sharded cache, full-frame rewrite — with the
//!   deterministic [`executor::Dataplane::run_single`] for golden tests
//!   and byte-identical benchmark JSON, plus scoped-thread
//!   [`executor::Dataplane::run_multi`] partitioned by outer-UDP flow
//!   entropy exactly like an underlay ECMP fabric would;
//! - [`batch::BatchExecutor`] is the zero-allocation batch driver, which
//!   walks contiguous frame lanes through per-stage loops with a
//!   borrowed-view parser, an evicting S3-FIFO flow cache and a reusable
//!   rewrite arena. A cold batch run reproduces `run_single`'s report
//!   field for field (`tests/batch_equivalence.rs`).

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
// Hot paths touching raw frame bytes must prove every slice: the lint
// rejects unchecked indexing so truncated or hostile frames cannot panic
// the pipeline (per-module `allow`s carry the bounds proofs).
#[warn(clippy::indexing_slicing)]
pub mod executor;
mod ladder;
pub mod oracle;
#[deny(clippy::indexing_slicing)]
pub mod rewrite;
pub mod tier;
pub mod traffic;

pub use batch::BatchExecutor;
pub use breaker::{Admission, BreakerConfig, BreakerState, BreakerStats, PuntBreaker};
pub use cache::{CachedAction, FlowCache, FlowOutcome};
pub use chaos::{ChaosConfig, ChaosReport, FaultOutcome, InvariantViolation, SlotRecord};
pub use counters::TableCounters;
pub use epoch::{EpochCell, EpochState, WorldView};
pub use executor::{Dataplane, DataplaneConfig, RunReport};
pub use oracle::{differential_run, OracleReport, PathDecision};
pub use tier::{TierConfig, TierDecision, TierMap};
