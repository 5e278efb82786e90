//! Per-table hit/miss/conflict counters.
//!
//! The executor counts every table interaction the way a switch pipeline
//! exposes per-stage counters: route LPM lookups and misses, VM-NC digest
//! hits split by resolving plane (main vs conflict table), punt causes,
//! and flow-cache effectiveness. Every lane is declared exactly once, in
//! the `counter_lanes!` list below; the struct, its stable-ordered
//! [`TableCounters::fields`] view and [`TableCounters::merge`] are all
//! generated from that list, so a new lane cannot be forgotten in one.

use sailfish_net::{Error, FrameError, FrameLayer};

/// Declares [`TableCounters`] from one ordered list of documented lanes.
macro_rules! counter_lanes {
    ($($(#[$doc:meta])* $lane:ident,)*) => {
        /// Stage-by-stage dataplane counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TableCounters {
            $($(#[$doc])* pub $lane: u64,)*
        }

        impl TableCounters {
            /// Number of counter lanes.
            pub const LANES: usize = [$(stringify!($lane)),*].len();

            /// Stable-ordered `(name, value)` view for deterministic JSON
            /// output.
            pub fn fields(&self) -> [(&'static str, u64); Self::LANES] {
                [$((stringify!($lane), self.$lane)),*]
            }

            fn fields_mut(&mut self) -> [(&'static str, &mut u64); Self::LANES] {
                [$((stringify!($lane), &mut self.$lane)),*]
            }
        }
    };
}

counter_lanes! {
    /// Frames parsed successfully into a gateway packet.
    parsed,
    /// Frames rejected by the parser (truncated, malformed, non-VXLAN).
    /// Always the sum of the per-kind `frame_*` counters below.
    parse_errors,
    /// Frames rejected because a header ran past the buffer end.
    frame_truncated,
    /// Frames rejected for inconsistent length or field encoding.
    frame_malformed,
    /// Frames rejected for an unsupported protocol or port.
    frame_unsupported,
    /// Frames rejected by checksum verification.
    frame_checksum,
    /// Frames rejected for an out-of-range field value.
    frame_out_of_range,
    /// Frames rejected at the outer Ethernet layer.
    layer_outer_ethernet,
    /// Frames rejected at the outer IPv4 layer.
    layer_outer_ipv4,
    /// Frames rejected at the outer IPv6 layer.
    layer_outer_ipv6,
    /// Frames rejected at the outer UDP layer.
    layer_outer_udp,
    /// Frames rejected at the VXLAN layer.
    layer_vxlan,
    /// Frames rejected at the inner Ethernet layer.
    layer_inner_ethernet,
    /// Frames rejected at the inner IPv4 layer.
    layer_inner_ipv4,
    /// Frames rejected at the inner IPv6 layer.
    layer_inner_ipv6,
    /// Frames rejected at the inner transport layer.
    layer_inner_transport,
    /// Packets dropped by the ACL stage.
    acl_denied,
    /// Single-step LPM lookups issued against the routing table.
    route_lookups,
    /// LPM lookups that matched an entry.
    route_hits,
    /// LPM lookups that missed (long-tail routes live on x86).
    route_misses,
    /// Peer-VPC hops followed (pipeline recirculations).
    peer_hops,
    /// Packets dropped by the peer-chain loop bound.
    loop_drops,
    /// VM-NC lookups resolved by the 32-bit digest (main) plane.
    vm_hit_main,
    /// VM-NC lookups resolved by the exact conflict table.
    vm_hit_conflict,
    /// VM-NC lookups that missed both planes.
    vm_miss,
    /// Punts because the route requires stateful SNAT.
    punt_snat,
    /// Punts because no hardware route matched.
    punt_no_route,
    /// Punts because the VM mapping is off-chip.
    punt_no_vm,
    /// Punts rejected by the protective rate limiter (dropped).
    punt_rate_limited,
    /// Punts shed because the punt-path circuit breaker was open.
    punt_breaker_open,
    /// Punts admitted to the DPU middle tier (spilled, not degraded).
    /// Always `dpu_forwarded + dpu_dropped` after a run resolves.
    dpu_spilled,
    /// Spilled packets the DPU tier forwarded.
    dpu_forwarded,
    /// Spilled packets the DPU tier dropped (typed software drops).
    dpu_dropped,
    /// Punts the DPU admission meter refused — the packet *degrades to
    /// x86*, it is not dropped, so this lane is outside the disposition
    /// identity.
    dpu_shed_meter,
    /// Punts refused because the DPU tier's breaker was open — degraded
    /// to x86 like `dpu_shed_meter`.
    dpu_breaker_open,
    /// DPU-served packets whose consistent-hash owner was dead, served
    /// by the next live node on the ring instead (bounded-churn
    /// re-homing). Nonzero only while a DPU node-death window is active.
    dpu_rehomed,
    /// Packets that observed a cluster whose epoch tag disagreed with the
    /// pinned epoch — torn table state. Zero in a correct build; the
    /// epoch-consistency tests assert it stays zero.
    epoch_violations,
    /// Packets steered to a migration's secondary owner during a dual-
    /// ownership window (flow-hash parity picked the destination).
    dual_owner_packets,
    /// Flow-cache hits (walk skipped entirely).
    cache_hits,
    /// Flow-cache misses (full table walk taken).
    cache_misses,
    /// Packets forwarded by the hardware pipeline.
    hw_forwarded,
    /// Punted packets the software fallback then forwarded.
    fallback_forwarded,
    /// Punted packets the software fallback then dropped.
    fallback_dropped,
    /// SNAT packets translated in hardware via a promoted exact-match
    /// entry (the punt the offload saved).
    snat_translations,
    /// Connections promoted into the SNAT offload at epoch swaps.
    snat_promotions,
    /// Connections demoted out of the SNAT offload at epoch swaps.
    snat_demotions,
    /// SNAT connection opens refused because the external port pool had
    /// no free block.
    snat_port_alloc_failures,
}

impl TableCounters {
    /// Accumulates another counter set (worker merge).
    pub fn merge(&mut self, other: &TableCounters) {
        for ((_, a), (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a += b;
        }
    }

    /// Records a typed parse failure: bumps the `parse_errors` total plus
    /// the per-kind and per-layer breakdown counters, so hostile bytes
    /// always degrade to a counted drop-with-reason.
    pub fn record_frame_error(&mut self, err: FrameError) {
        self.parse_errors += 1;
        match err.kind {
            Error::Truncated => self.frame_truncated += 1,
            Error::Malformed => self.frame_malformed += 1,
            Error::Unsupported => self.frame_unsupported += 1,
            Error::Checksum => self.frame_checksum += 1,
            Error::OutOfRange => self.frame_out_of_range += 1,
        }
        match err.layer {
            FrameLayer::OuterEthernet => self.layer_outer_ethernet += 1,
            FrameLayer::OuterIpv4 => self.layer_outer_ipv4 += 1,
            FrameLayer::OuterIpv6 => self.layer_outer_ipv6 += 1,
            FrameLayer::OuterUdp => self.layer_outer_udp += 1,
            FrameLayer::Vxlan => self.layer_vxlan += 1,
            FrameLayer::InnerEthernet => self.layer_inner_ethernet += 1,
            FrameLayer::InnerIpv4 => self.layer_inner_ipv4 += 1,
            FrameLayer::InnerIpv6 => self.layer_inner_ipv6 += 1,
            FrameLayer::InnerTransport => self.layer_inner_transport += 1,
        }
    }

    /// Total punts charged to the x86 path.
    pub fn punted(&self) -> u64 {
        self.punt_snat + self.punt_no_route + self.punt_no_vm
    }

    /// The no-black-hole accounting identity over a resolved run, as the
    /// packets it cannot explain: `(undecided, unserved)`, both zero in a
    /// correct run. Every parsed frame ends in exactly one disposition —
    /// forwarded in hardware, dropped with a reason, or classified as a
    /// punt — and every punt is served by exactly one software rung,
    /// translated on-chip by the SNAT offload, or shed by a counted
    /// meter/breaker. Absolute differences, so a broken identity reports
    /// a count instead of underflowing.
    pub fn unaccounted(&self) -> (u64, u64) {
        let classified = self.hw_forwarded + self.acl_denied + self.loop_drops + self.punted();
        // An offloaded SNAT packet sits in both `punt_snat` (a
        // classification lane) and `hw_forwarded`.
        let decided = classified.saturating_sub(self.snat_translations);
        let served = self.dpu_forwarded
            + self.dpu_dropped
            + self.fallback_forwarded
            + self.fallback_dropped
            + self.punt_rate_limited
            + self.punt_breaker_open
            + self.snat_translations;
        (
            self.parsed.abs_diff(decided),
            self.punted().abs_diff(served),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_field() {
        let mut a = TableCounters {
            parsed: 1,
            route_hits: 2,
            ..TableCounters::default()
        };
        let b = TableCounters {
            parsed: 10,
            vm_hit_conflict: 3,
            fallback_dropped: 5,
            ..TableCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.parsed, 11);
        assert_eq!(a.route_hits, 2);
        assert_eq!(a.vm_hit_conflict, 3);
        assert_eq!(a.fallback_dropped, 5);
    }

    #[test]
    fn record_frame_error_keeps_total_in_sync() {
        use sailfish_net::FrameLayer;
        let mut c = TableCounters::default();
        c.record_frame_error(FrameError::new(FrameLayer::OuterIpv4, Error::Truncated));
        c.record_frame_error(FrameError::new(FrameLayer::Vxlan, Error::Malformed));
        c.record_frame_error(FrameError::new(FrameLayer::OuterUdp, Error::Checksum));
        assert_eq!(c.parse_errors, 3);
        assert_eq!(c.frame_truncated, 1);
        assert_eq!(c.frame_malformed, 1);
        assert_eq!(c.frame_checksum, 1);
        let breakdown = c.frame_truncated
            + c.frame_malformed
            + c.frame_unsupported
            + c.frame_checksum
            + c.frame_out_of_range;
        assert_eq!(c.parse_errors, breakdown);
        assert_eq!(c.layer_outer_ipv4, 1);
        assert_eq!(c.layer_vxlan, 1);
        assert_eq!(c.layer_outer_udp, 1);
        let by_layer: u64 = c
            .fields()
            .iter()
            .filter(|(n, _)| n.starts_with("layer_"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(c.parse_errors, by_layer, "layer breakdown out of sync");
    }

    #[test]
    fn fields_cover_the_struct() {
        // Sentinel check: each field projected exactly once, in a stable
        // order shared by fields() and fields_mut().
        let mut c = TableCounters::default();
        for (i, (_, v)) in c.fields_mut().into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        let names: Vec<&str> = c.fields().iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate counter name");
        for (i, (_, v)) in c.fields().into_iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }
}
