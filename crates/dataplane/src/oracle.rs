//! The differential oracle.
//!
//! A packet served by the hardware executor must reach the same
//! [`Verdict`](sailfish_tables::types::Verdict) the reference software forwarder
//! (`sailfish_xgw_x86::SoftwareForwarder`) takes for the same packet —
//! including packets the hardware punts, which the fallback forwarder then
//! serves. Both tiers speak that one type, so [`differential_run`] replays
//! a frame sequence through both and compares them directly, reporting
//! the first disagreement verbatim.

use sailfish_net::GatewayPacket;

use crate::executor::Dataplane;

/// Outcome of a differential replay.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Frames replayed.
    pub packets: u64,
    /// Frames where executor and reference agreed.
    pub agreements: u64,
    /// Frames where they disagreed.
    pub mismatches: u64,
    /// Human-readable description of the first disagreement.
    pub first_mismatch: Option<String>,
}

impl OracleReport {
    /// Whether every packet agreed.
    pub fn holds(&self) -> bool {
        self.mismatches == 0 && self.packets > 0
    }
}

/// Replays `frames` through the executor (punts resolved through
/// `fallback`) and through the independent `reference` forwarder, packet
/// by packet, comparing their verdicts.
///
/// `fallback` and `reference` must be distinct instances over identical
/// tables: both are stateful (SNAT allocates bindings), and the oracle
/// compares decisions, not shared mutations.
pub fn differential_run(
    dataplane: &Dataplane,
    frames: &[&[u8]],
    fallback: &mut sailfish_xgw_x86::SoftwareForwarder,
    reference: &mut sailfish_xgw_x86::SoftwareForwarder,
) -> OracleReport {
    let mut report = OracleReport {
        packets: 0,
        agreements: 0,
        mismatches: 0,
        first_mismatch: None,
    };
    let mut now_ns = 0u64;
    for (i, frame) in frames.iter().enumerate() {
        let Ok(packet) = GatewayPacket::parse(frame) else {
            // Both paths reject unparsable frames by construction; they
            // are outside the decision comparison.
            continue;
        };
        now_ns += 1_000;
        report.packets += 1;
        let got = dataplane.decide(&packet, fallback, now_ns);
        let want = reference.process(&packet, now_ns);
        if got == want {
            report.agreements += 1;
        } else {
            report.mismatches += 1;
            if report.first_mismatch.is_none() {
                report.first_mismatch = Some(format!(
                    "frame {i}: executor {got:?} != reference {want:?} \
                     (vni {}, dst {})",
                    packet.vni, packet.inner.dst_ip
                ));
            }
        }
    }
    report
}
