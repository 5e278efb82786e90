//! # sailfish-xgw-h
//!
//! XGW-H — the Tofino-based hardware gateway of Sailfish.
//!
//! This crate composes the logical tables of `sailfish-tables` with the
//! chip model of `sailfish-asic` into the gateway the paper deploys:
//!
//! - [`tables::HardwareTables`] — the few key tables resident on chip
//!   (VXLAN routing as pooled ALPM, VM-NC as digest-compressed exact
//!   match, ACL, meters, counters),
//! - [`program::XgwH`] — the folded match-action program: parse →
//!   service tables → VXLAN routing (split between loop pipes by VNI
//!   parity) → VM-NC mapping → rewrite, with SNAT and long-tail traffic
//!   punted to XGW-x86 behind a protective rate limiter (§4.2); its
//!   table walk, [`HardwareTables::walk`], is the workspace's only
//!   implementation of the hardware forwarding decision,
//! - [`layout`] — the pipeline placement used for the Table 4 / Fig 17
//!   memory accounting,
//! - per-pipe and punt statistics feeding Figs 20–22.

#![forbid(unsafe_code)]
// Non-test code must not `unwrap()` (see clippy.toml `disallowed-methods`);
// CI's `-D warnings` escalates this to deny. Test builds carry `cfg(test)`
// and keep their unwraps.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod layout;
pub mod program;
pub mod tables;

pub use program::{HwDecision, PuntReason, WalkEvent, WalkSink, Walked, XgwH};
pub use tables::HardwareTables;
