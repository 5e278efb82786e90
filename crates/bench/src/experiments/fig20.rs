//! Fig 20: balanced traffic distribution between the loop pipelines
//! (Egress Pipe 1 vs Pipe 3), viewed across clusters.

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::{sailfish_region, Scale};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let (mut region, flows) = sailfish_region(WorkloadConfig::default().internet_share);

    let report = region.offer(&flows, 1.0);
    let mut rows = Vec::new();
    let mut worst_dev = 0.0f64;
    for (c, (p1, p3)) in report
        .loop_pipe_bps
        .iter()
        .enumerate()
        .take(region.plan.clusters_needed())
    {
        let total = p1 + p3;
        if total == 0.0 {
            continue;
        }
        let share1 = p1 / total;
        worst_dev = worst_dev.max((share1 - 0.5).abs());
        rows.push(vec![
            format!("cluster {c}"),
            format!("{:.2}", p1 / 1e12),
            format!("{:.2}", p3 / 1e12),
            format!("{:.1}%", share1 * 100.0),
        ]);
    }
    print_table(
        "Fig 20: loop-pipe traffic split per cluster (VNI-parity splitting)",
        &["Cluster", "Pipe 1 Tbps", "Pipe 3 Tbps", "Pipe-1 share"],
        &rows,
    );

    let mut rec = ExperimentRecord::new("fig20", "Pipe balance across clusters");
    rec.compare(
        "worst pipe-share deviation from 50%",
        "small (visually even bars)",
        format!("{:.1} pts", worst_dev * 100.0),
        worst_dev < 0.15,
    );
    rec
}
