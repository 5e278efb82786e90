//! Fig 17: memory usage after step-by-step compression, with the ALPM
//! step measured on the *real* compressed structure built from a
//! region-scale topology.

use sailfish::compression::{occupancy_at, step_series, CompressionStep};
use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::{Scale, calibrated_scenario, measured_region_alpm};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let cfg = TofinoConfig::tofino_64t();
    eprintln!("building region-scale topology and live ALPM (this takes a moment)...");
    let (topology, alpm) = measured_region_alpm();
    eprintln!(
        "  topology: {} routes, {} vms; ALPM: {} partitions, fill {:.2}",
        topology.routes.len(),
        topology.vms.len(),
        alpm.tcam_entries,
        alpm.avg_fill
    );

    let scenario = calibrated_scenario();
    let series = step_series(&scenario, &cfg, &alpm);

    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|r| {
            vec![
                r.step.label().to_string(),
                format!("{:.0}", r.occupancy.sram_pct),
                format!("{:.0}", r.occupancy.tcam_pct),
            ]
        })
        .collect();
    print_table(
        "Fig 17: XGW-H memory occupancy after step-by-step compression",
        &["Optimization steps", "SRAM %", "TCAM %"],
        &rows,
    );
    println!("\na=pipeline folding, b=splitting between pipelines,");
    println!("c=IPv4/IPv6 pooling, d=entry compression, e=ALPM");

    // Paper values: (102,389) (51,194) (26,97) (18,156) (36,11).
    let paper = [
        (102.0, 389.0),
        (51.0, 194.0),
        (26.0, 97.0),
        (18.0, 156.0),
        (36.0, 11.0),
    ];
    let mut rec = ExperimentRecord::new("fig17", "Step-by-step table compression");
    for (r, (ps, pt)) in series.iter().zip(paper) {
        let (s, t) = (r.occupancy.sram_pct, r.occupancy.tcam_pct);
        rec.compare(
            format!("{} SRAM %", r.step.label()),
            format!("{ps:.0}"),
            format!("{s:.0}"),
            (s - ps).abs() <= ps * 0.15 + 1.0,
        );
        rec.compare(
            format!("{} TCAM %", r.step.label()),
            format!("{pt:.0}"),
            format!("{t:.0}"),
            (t - pt).abs() <= pt * 0.15 + 6.0,
        );
    }
    // The final configuration must fit with headroom.
    let final_occ = occupancy_at(CompressionStep::All, &scenario, &cfg, &alpm);
    rec.compare(
        "final configuration fits on chip",
        "yes",
        if final_occ.fits() { "yes" } else { "NO" }.to_string(),
        final_occ.fits(),
    );
    rec
}
