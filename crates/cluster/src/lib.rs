//! # sailfish-cluster
//!
//! Region-level assembly of Sailfish (Fig 10):
//!
//! - [`lb`] — the ECMP load balancer in front of the gateway clusters,
//!   with the commercial next-hop cap that forces multiple clusters
//!   (§2.3),
//! - [`cluster`] — XGW-H clusters (one shared table image, shared load,
//!   mutual backup), the bulk image builder, and the one XGW-x86 fleet
//!   (the fallback cluster and the x86-only baseline of Figs 4–7, its
//!   nodes sharing one table image),
//! - [`controller`] — the central controller: horizontal table splitting
//!   by VNI (§4.3), installation, consistency checking (§6.1), and the
//!   table-update timeline of Fig 23,
//! - [`region`] — the end-to-end Sailfish region simulation, producing
//!   the series behind Figs 19–22,
//! - [`failover`] — disaster recovery at cluster, node, and port level
//!   (§6.1), with typed errors and probe-gated re-admission,
//! - [`chaos`] — the deterministic fault-injection harness: replays
//!   seeded [`sailfish_sim::faults`] schedules against a region and
//!   records loss, fallback share, recovery timing, and invariants,
//! - [`dpu`] — the DPU middle tier of the degradation ladder: a pool of
//!   SmartNIC-class nodes with per-node capacity/latency envelopes and
//!   consistent-hash flow ownership (bounded churn on node death),
//! - [`hierarchy`] — the "N+1" hierarchical cache-cluster design of the
//!   paper's future work (§8),
//! - [`monitor`] — water-level monitoring and alerting (§6.1),
//! - [`probe`] — the probe-generator validation gate used before
//!   admitting user traffic to a new cluster (§6.1),
//! - [`worldcheck`] — the cluster-side adapter for the plan-time world
//!   verifier: staged installs and re-shard plans are statically proved
//!   black-hole-free and within capacity before any push.

#![forbid(unsafe_code)]
// Non-test code must not `unwrap()` (see clippy.toml `disallowed-methods`);
// CI's `-D warnings` escalates this to deny. Test builds carry `cfg(test)`
// and keep their unwraps.
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod chaos;
pub mod cluster;
pub mod controller;
pub mod dpu;
pub mod failover;
pub mod hierarchy;
pub mod lb;
pub mod monitor;
pub mod probe;
pub mod region;
pub mod reshard;
pub mod worldcheck;

pub use controller::{Controller, SplitPlan};
pub use region::{Region, RegionConfig, RegionReport};
