//! Table 2: table size and occupancy of the *naive* placement in the
//! Tofino chip — the motivation for everything in §4.4.

use sailfish::compression::{estimate_alpm_stats, occupancy_at, CompressionStep};
use sailfish::prelude::*;
use sailfish_asic::cost::{MatchKind, Storage, TableSpec};
use sailfish_asic::mem::Occupancy;

use crate::record::ExperimentRecord;
use crate::scale::{calibrated_scenario, Scale};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let cfg = TofinoConfig::tofino_64t();
    let scenario = calibrated_scenario();

    // Per-table rows at the calibrated scale.
    let row = |name: &str, kind: MatchKind, key_bits: u32, entries: usize, storage: Storage| {
        let spec = TableSpec::new(name, kind, key_bits, 32, entries, storage).expect("spec");
        Occupancy::of(spec.cost(&cfg), &cfg)
    };
    let vxlan_v4 = row(
        "vxlan-v4",
        MatchKind::Lpm,
        56,
        scenario.route_entries,
        Storage::Tcam,
    );
    let vxlan_v6 = row(
        "vxlan-v6",
        MatchKind::Lpm,
        152,
        scenario.route_entries,
        Storage::Tcam,
    );
    let vmnc_v4 = row(
        "vmnc-v4",
        MatchKind::Exact,
        56,
        scenario.vm_entries,
        Storage::SramHash,
    );
    let vmnc_v6 = row(
        "vmnc-v6",
        MatchKind::Exact,
        152,
        scenario.vm_entries,
        Storage::SramHash,
    );

    print_table(
        "Table 2: naive on-chip occupancy (per pipeline, full copy)",
        &["Table", "Match", "IP", "Key bits", "SRAM %", "TCAM %"],
        &[
            vec![
                "VXLAN routing".into(),
                "LPM".into(),
                "IPv4".into(),
                "24+32".into(),
                "-".into(),
                format!("{:.0}", vxlan_v4.tcam_pct),
            ],
            vec![
                "VXLAN routing".into(),
                "LPM".into(),
                "IPv6".into(),
                "24+128".into(),
                "-".into(),
                format!("{:.0}", vxlan_v6.tcam_pct),
            ],
            vec![
                "VM-NC mapping".into(),
                "EXACT".into(),
                "IPv4".into(),
                "24+32".into(),
                format!("{:.0}", vmnc_v4.sram_pct),
                "-".into(),
            ],
            vec![
                "VM-NC mapping".into(),
                "EXACT".into(),
                "IPv6".into(),
                "24+128".into(),
                format!("{:.0}", vmnc_v6.sram_pct),
                "-".into(),
            ],
        ],
    );

    // The "Sum (75% IPv4, 25% IPv6)" row comes from the step engine.
    let alpm = estimate_alpm_stats(scenario.route_entries, 24, 0.6);
    let sum = occupancy_at(CompressionStep::Initial, &scenario, &cfg, &alpm);
    println!(
        "\nSum (75% IPv4, 25% IPv6): SRAM {:.0}%  TCAM {:.2}%",
        sum.sram_pct, sum.tcam_pct
    );
    println!("=> does not fit: {}", !sum.fits());

    let mut rec = ExperimentRecord::new("table2", "Naive on-chip occupancy");
    rec.compare(
        "VXLAN v4 TCAM %",
        "311",
        format!("{:.0}", vxlan_v4.tcam_pct),
        (vxlan_v4.tcam_pct - 311.0).abs() < 5.0,
    );
    rec.compare(
        "VXLAN v6 TCAM %",
        "622",
        format!("{:.0}", vxlan_v6.tcam_pct),
        (vxlan_v6.tcam_pct - 622.0).abs() < 5.0,
    );
    rec.compare(
        "VM-NC v4 SRAM %",
        "58",
        format!("{:.0}", vmnc_v4.sram_pct),
        (vmnc_v4.sram_pct - 58.0).abs() < 3.0,
    );
    rec.compare(
        "VM-NC v6 SRAM %",
        "233",
        format!("{:.0}", vmnc_v6.sram_pct),
        (vmnc_v6.sram_pct - 233.0).abs() < 5.0,
    );
    rec.compare(
        "Sum SRAM %",
        "102",
        format!("{:.0}", sum.sram_pct),
        (sum.sram_pct - 102.0).abs() < 3.0,
    );
    rec.compare(
        "Sum TCAM %",
        "388.75",
        format!("{:.2}", sum.tcam_pct),
        (sum.tcam_pct - 388.75).abs() < 5.0,
    );
    rec
}
