//! Table 4: overall memory consumption per pipeline pair with the full
//! production table complement (majors + service tables).

use sailfish::prelude::*;
use sailfish_xgw_h::layout::{production_layout, verify_layout};

use crate::record::ExperimentRecord;
use crate::scale::{Scale, calibrated_scenario, measured_region_alpm};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    eprintln!("building region-scale topology and live ALPM...");
    let (_topology, alpm) = measured_region_alpm();
    let scenario = calibrated_scenario();

    let layout = production_layout(
        TofinoConfig::tofino_64t(),
        scenario.route_entries,
        &alpm,
        scenario.vm_entries,
    )
    .expect("production layout builds");
    let report = verify_layout(&layout, "table4");
    assert!(
        report.is_clean(),
        "production layout must verify clean:\n{}",
        report.render()
    );
    let (outer, looped) = layout.occupancy();
    let total = layout.total_occupancy();

    print_table(
        "Table 4: overall memory resource consumption",
        &["Pipeline", "Match SRAM %", "TCAM %"],
        &[
            vec![
                "Pipeline 0/2".into(),
                format!("{:.0}", outer.sram_pct),
                format!("{:.0}", outer.tcam_pct),
            ],
            vec![
                "Pipeline 1/3".into(),
                format!("{:.0}", looped.sram_pct),
                format!("{:.0}", looped.tcam_pct),
            ],
            vec![
                "Sum".into(),
                format!("{:.0}", total.sram_pct),
                format!("{:.0}", total.tcam_pct),
            ],
        ],
    );
    println!(
        "\nbridges required by the placement: {}",
        layout.bridge_count()
    );

    let mut rec = ExperimentRecord::new("table4", "Overall memory consumption");
    rec.compare(
        "pipe 0/2 SRAM %",
        "70",
        format!("{:.0}", outer.sram_pct),
        (outer.sram_pct - 70.0).abs() < 10.0,
    );
    rec.compare(
        "pipe 0/2 TCAM %",
        "41",
        format!("{:.0}", outer.tcam_pct),
        (outer.tcam_pct - 41.0).abs() < 6.0,
    );
    rec.compare(
        "pipe 1/3 SRAM %",
        "68",
        format!("{:.0}", looped.sram_pct),
        (looped.sram_pct - 68.0).abs() < 10.0,
    );
    rec.compare(
        "pipe 1/3 TCAM %",
        "22",
        format!("{:.0}", looped.tcam_pct),
        (looped.tcam_pct - 22.0).abs() < 7.0,
    );
    rec.compare(
        "sum SRAM %",
        "69",
        format!("{:.0}", total.sram_pct),
        (total.sram_pct - 69.0).abs() < 10.0,
    );
    rec.compare(
        "sum TCAM %",
        "32",
        format!("{:.0}", total.tcam_pct),
        (total.tcam_pct - 32.0).abs() < 7.0,
    );
    rec.compare(
        "headroom remains (fits on chip)",
        "yes",
        if total.fits() { "yes" } else { "NO" }.to_string(),
        total.fits(),
    );
    rec
}
