//! # sailfish-xgw-x86
//!
//! XGW-x86 — the DPDK-based software gateway model.
//!
//! "We leveraged DPDK's kernel-bypass capability to accelerate the
//! single-node performance (∼1Mpps per CPU core) and used horizontal
//! scaling to further expand the packet processing capacity" (§2.2).
//! "XGW-x86 follows the run-to-completion model, conducts flow-based
//! hashing and distributes packets received from a NIC to multiple RX
//! queues via the RSS technology" (§2.3).
//!
//! The model captures exactly the mechanisms behind the paper's
//! motivation figures:
//!
//! - a real Toeplitz RSS hash places each flow on one core
//!   ([`cores::FluidEngine`]), so heavy hitters overload single cores
//!   (Fig 4/Fig 7) while the box-level load stays balanced (Fig 6),
//! - per-core finite capacity converts overload into packet loss (Fig 5),
//! - full software tables ([`forward::SoftwareTables`]), one immutable
//!   image a fleet's nodes share, beside each node's own stateful SNAT
//!   table that cannot fit on the hardware gateway
//!   ([`forward::SoftwareForwarder`]),
//! - the single-node performance envelope of Fig 18
//!   ([`config::XgwX86Config`]).

#![forbid(unsafe_code)]
// Non-test code must not `unwrap()` (clippy.toml `disallowed-methods`).
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod config;
pub mod cores;
pub mod forward;

pub use config::XgwX86Config;
pub use cores::{CoreLoadReport, FlowRate, FluidEngine};
pub use forward::{Decision, DropReason, SoftwareForwarder, SoftwareTables};
