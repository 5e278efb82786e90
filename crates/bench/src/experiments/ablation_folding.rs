//! Ablation: pipeline folding (§4.4, Fig 13).
//!
//! Folding trades half the throughput and double the latency for double
//! the effective memory. This sweep quantifies all three axes with the
//! calibrated chip model, plus the bridge cost of bad table placement.

use sailfish::compression::{estimate_alpm_stats, CompressionStep, MemoryScenario};
use sailfish::prelude::*;
use sailfish_asic::cost::{MatchKind, Storage, TableSpec};
use sailfish_asic::placement::{FoldStep, Layout, PlacedTable};

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

/// The two placements of the bridge-cost sub-ablation (also gated by the
/// `verify` experiment): a dependency chain across all three fold
/// boundaries, and the recommended grouped placement.
pub fn layouts(cfg: &TofinoConfig) -> (Layout, Layout) {
    let spec = |name: &str| {
        TableSpec::new(name, MatchKind::Exact, 56, 32, 1_000, Storage::SramHash)
            .expect("static ablation spec")
    };
    let mut chatty = Layout::new(cfg.clone(), true);
    for (name, step) in [
        ("a", FoldStep::IngressOuter),
        ("b", FoldStep::EgressLoop),
        ("c", FoldStep::IngressLoop),
        ("d", FoldStep::EgressOuter),
    ] {
        chatty.push(PlacedTable::new(spec(name), step));
    }
    let mut grouped = Layout::new(cfg.clone(), true);
    for (name, step) in [
        ("a", FoldStep::IngressOuter),
        ("b", FoldStep::IngressOuter),
        ("c", FoldStep::IngressLoop),
        ("d", FoldStep::IngressLoop),
    ] {
        let mut t = PlacedTable::new(spec(name), step);
        t.depends_on_previous = name == "b" || name == "d";
        grouped.push(t);
    }
    (chatty, grouped)
}

pub fn run(_scale: Scale) -> ExperimentRecord {
    let cfg = TofinoConfig::tofino_64t();
    let env = PerfEnvelope::tofino_64t();
    let scenario = MemoryScenario::paper_mix();
    let alpm = estimate_alpm_stats(scenario.route_entries, 24, 0.6);

    // Memory at a+b (folding+splitting) vs a hypothetical unfolded chip.
    let folded =
        sailfish::compression::occupancy_at(CompressionStep::FoldingSplit, &scenario, &cfg, &alpm);
    let unfolded =
        sailfish::compression::occupancy_at(CompressionStep::Initial, &scenario, &cfg, &alpm);

    let rows = vec![
        vec![
            "unfolded".into(),
            format!("{:.0}", env.max_bps(1500, false, 0) / 1e12),
            format!("{:.0}", env.max_pps(64, false, 0) / 1e6),
            format!("{:.2}", env.latency_ns(256, false) / 1000.0),
            format!("{:.0}%", unfolded.sram_pct),
            format!("{:.0}%", unfolded.tcam_pct),
        ],
        vec![
            "folded (+split)".into(),
            format!("{:.0}", env.max_bps(1500, true, 0) / 1e12),
            format!("{:.0}", env.max_pps(64, true, 0) / 1e6),
            format!("{:.2}", env.latency_ns(256, true) / 1000.0),
            format!("{:.0}%", folded.sram_pct),
            format!("{:.0}%", folded.tcam_pct),
        ],
    ];
    print_table(
        "Pipeline folding ablation (calibrated scenario, 75/25 mix)",
        &["Config", "Tbps", "Mpps", "Latency µs", "SRAM", "TCAM"],
        &rows,
    );

    // Bridge-cost sub-ablation: a placement whose dependent tables span
    // all three fold boundaries pays bridged bytes on the wire.
    let (chatty, grouped) = layouts(&cfg);
    println!(
        "\nbridging: dependency chain across all boundaries -> {} bridges ({} bytes); \
         grouped placement -> {} bridges",
        chatty.bridge_count(),
        chatty.bridge_bytes(),
        grouped.bridge_count()
    );
    let pps_no_bridge = env.max_pps(512, true, 0);
    let pps_bridged = env.max_pps(512, true, chatty.bridge_bytes());
    println!(
        "throughput at 512B: {:.0} Mpps clean vs {:.0} Mpps with bridging",
        pps_no_bridge / 1e6,
        pps_bridged / 1e6
    );

    let mut rec = ExperimentRecord::new("ablation_folding", "Pipeline folding trade-offs");
    rec.compare(
        "throughput halves",
        "6.4 -> 3.2 Tbps",
        format!(
            "{:.1} -> {:.1} Tbps",
            env.max_bps(1500, false, 0) / 1e12,
            env.max_bps(1500, true, 0) / 1e12
        ),
        (env.max_bps(1500, false, 0) / env.max_bps(1500, true, 0) - 2.0).abs() < 0.01,
    );
    rec.compare(
        "latency doubles (but stays O(µs))",
        "~2x, ~2µs absolute",
        format!(
            "{:.2} -> {:.2} µs",
            env.latency_ns(256, false) / 1000.0,
            env.latency_ns(256, true) / 1000.0
        ),
        env.latency_ns(256, true) < 3_000.0,
    );
    rec.compare(
        "memory per logical table quadruples (fold x split)",
        "102% -> 26% (same tables)",
        format!("{:.0}% -> {:.0}%", unfolded.sram_pct, folded.sram_pct),
        (unfolded.sram_pct / folded.sram_pct - 4.0).abs() < 0.3,
    );
    rec.compare(
        "grouping dependent tables in one gress avoids bridges",
        "recommended placement: 0 bridges",
        format!("{} vs {}", chatty.bridge_count(), grouped.bridge_count()),
        chatty.bridge_count() == 3 && grouped.bridge_count() == 0,
    );
    rec
}
