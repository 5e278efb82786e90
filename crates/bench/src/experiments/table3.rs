//! Table 3: memory occupancy of the two major tables after all §4.4
//! optimizations, plus the abstract's per-scenario reduction claims.

use sailfish::compression::{occupancy_at, CompressionStep, MemoryScenario};
use sailfish::prelude::*;
use sailfish_asic::placement::PipePair;
use sailfish_xgw_h::layout::major_tables;

use crate::record::ExperimentRecord;
use crate::scale::{Scale, calibrated_scenario, measured_region_alpm};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let cfg = TofinoConfig::tofino_64t();
    eprintln!("building region-scale topology and live ALPM...");
    let (_topology, alpm) = measured_region_alpm();
    let scenario = calibrated_scenario();

    // Per-table final costs (split across the whole chip like Fig 17).
    let mut layout = sailfish_asic::placement::Layout::new(cfg.clone(), true);
    for t in major_tables(scenario.route_entries, &alpm, scenario.vm_entries)
        .expect("major tables build")
    {
        layout.push(t);
    }
    layout.validate().expect("optimized layout fits");
    let outer = layout.pair_usage(PipePair::Outer);
    let looped = layout.pair_usage(PipePair::Loop);
    let total = layout.total_occupancy();

    print_table(
        "Table 3: memory occupancy after optimizations (chip-wide)",
        &["Table set", "SRAM %", "TCAM %"],
        &[
            vec![
                "VXLAN routing (ALPM) + VM-NC (digest) total".into(),
                format!("{:.0}", total.sram_pct),
                format!("{:.0}", total.tcam_pct),
            ],
            vec![
                "  of which outer pipes (0/2), words/rows".into(),
                format!("{}", outer.sram_words),
                format!("{}", outer.tcam_rows),
            ],
            vec![
                "  of which loop pipes (1/3), words/rows".into(),
                format!("{}", looped.sram_words),
                format!("{}", looped.tcam_rows),
            ],
        ],
    );

    // Reduction claims per IP scenario.
    let mut rec = ExperimentRecord::new("table3", "Occupancy after optimizations");
    rec.compare(
        "total SRAM %",
        "36",
        format!("{:.0}", total.sram_pct),
        (total.sram_pct - 36.0).abs() < 6.0,
    );
    rec.compare(
        "total TCAM %",
        "11",
        format!("{:.0}", total.tcam_pct),
        (total.tcam_pct - 11.0).abs() < 6.0,
    );

    for (name, scenario, sram_red, tcam_red) in [
        ("IPv4", MemoryScenario::all_v4(), 38.0, 96.0),
        ("75/25", MemoryScenario::paper_mix(), 65.0, 97.0),
        ("IPv6", MemoryScenario::all_v6(), 85.0, 98.0),
    ] {
        let initial = occupancy_at(CompressionStep::Initial, &scenario, &cfg, &alpm);
        let fin = occupancy_at(CompressionStep::All, &scenario, &cfg, &alpm);
        let sram = 100.0 * (1.0 - fin.sram_pct / initial.sram_pct);
        let tcam = 100.0 * (1.0 - fin.tcam_pct / initial.tcam_pct);
        println!(
            "{name}: SRAM {:.0}% -> {:.0}% (-{sram:.0}%), TCAM {:.0}% -> {:.0}% (-{tcam:.0}%)",
            initial.sram_pct, fin.sram_pct, initial.tcam_pct, fin.tcam_pct
        );
        rec.compare(
            format!("{name} SRAM reduction %"),
            format!("{sram_red:.0}"),
            format!("{sram:.0}"),
            (sram - sram_red).abs() < 8.0,
        );
        rec.compare(
            format!("{name} TCAM reduction %"),
            format!("{tcam_red:.0}"),
            format!("{tcam:.0}"),
            (tcam - tcam_red).abs() < 3.0,
        );
    }
    rec
}
