//! # sailfish-sim
//!
//! Deterministic workload generation and measurement utilities.
//!
//! The paper's evaluation rests on Alibaba's production traffic, which we
//! cannot ship; this crate builds the closest synthetic equivalents
//! (DESIGN.md §2):
//!
//! - [`zipf`] — heavy-tailed flow-size distributions ("the traffic exactly
//!   follows the 80/20 rule", §4.2),
//! - [`topology`] — multi-tenant region topologies: VPCs, subnets, VMs on
//!   NCs, peerings, Internet/IDC/cross-region routes, at up to the
//!   O(1M)-entry scale of §3.3,
//! - [`workload`] — flow sets with configurable heavy hitters and the
//!   diurnal/shopping-festival load profile behind Figs 4–6 and 19,
//! - [`metrics`] — seedable, reproducible measurement helpers (histograms,
//!   loss accounting, time series),
//! - [`faults`] — deterministic fault-injection schedules over virtual
//!   time (node death, port degradation, cluster failure, install
//!   faults, table corruption, heavy-hitter storms, connection storms),
//!   replayed against a region by `sailfish-cluster::chaos`,
//! - [`conn`] — connection-lifecycle event traces (opens, two-way
//!   payload, FIN closes, asymmetric return paths, festival-open
//!   connection storms) for the stateful SNAT tier,
//! - [`elastic`] — seeded scale-out/in triggers (festival ramps, device
//!   retirements) that the cluster layer turns into target splits and
//!   make-before-break migration plans.
//!
//! Everything is seeded `StdRng`; no wall clock, no global state — every
//! figure regenerates bit-for-bit.

#![forbid(unsafe_code)]
// Non-test code must not `unwrap()` (see clippy.toml `disallowed-methods`);
// CI's `-D warnings` escalates this to deny.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod conn;
pub mod elastic;
pub mod faults;
pub mod metrics;
pub mod topology;
pub mod workload;
pub mod zipf;

pub use topology::{Topology, TopologyConfig};
pub use workload::{festival_profile, Flow, WorkloadConfig};
