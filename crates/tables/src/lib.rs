//! # sailfish-tables
//!
//! Logical forwarding tables for the Sailfish cloud gateway.
//!
//! These are the *logical* (behavioural) table implementations; the
//! `sailfish-asic` crate models how they are laid out in on-chip SRAM/TCAM,
//! and `sailfish-xgw-h` / `sailfish-xgw-x86` compose them into gateways.
//!
//! The two major tables of the paper (Fig 2):
//!
//! - [`vxlan_route::VxlanRoutingTable`] — longest-prefix match on
//!   `(VNI, inner destination IP)` returning the scope (Local / Peer VPC /
//!   cross-region / IDC / Internet service),
//! - [`vm_nc::VmNcTable`] — exact match on `(VNI, VM IP)` returning the
//!   physical server (NC) hosting the VM.
//!
//! The compression machinery of §4.4:
//!
//! - [`alpm::AlpmTable`] — algorithmic LPM: a small TCAM first level
//!   indexing SRAM partitions ("TCAM conservation for large FIBs"),
//! - [`digest::DigestExactTable`] — 128→32-bit key hashing with a conflict
//!   table ("compressing longer table entries"),
//! - [`pooled`] — dual-stack IPv4/IPv6 pooling wrappers ("IPv4/IPv6 table
//!   pooling").
//!
//! Service tables: [`snat::SnatTable`] (the O(100M)-session stateful table
//! that stays on XGW-x86), [`acl::AclTable`], [`meter::Meter`],
//! [`counter::CounterArray`].

#![forbid(unsafe_code)]

pub mod acl;
// The ALPM read path sits under every flow-cache miss. Its roots and
// buckets are dense arrays reached through `get`, so no lookup, insert
// or remove can index out of bounds — and `deny` keeps it that way.
#[deny(clippy::indexing_slicing)]
pub mod alpm;
pub mod counter;
// The VM-NC plane is the other table under every flow-cache miss, and an
// epoch install builds it from whatever topology it is handed: slots are
// reached through `get` here too.
#[deny(clippy::indexing_slicing)]
pub mod digest;
pub mod error;
pub mod exact;
pub mod lpm;
pub mod meter;
pub mod pooled;
pub mod snat;
pub mod tcam;
pub mod types;
pub mod vm_nc;
pub mod vxlan_route;

pub use error::{Error, Result};
pub use types::{NcAddr, RouteTarget, VmKey, VxlanRouteKey};
