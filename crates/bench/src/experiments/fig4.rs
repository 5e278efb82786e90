//! Fig 4: CPU overload in an XGW-x86 during a festival week — the top-5
//! cores (of 32) on the gateway hosting the heavy hitters.

use sailfish::prelude::*;
use sailfish_sim::metrics::Series;

use crate::record::ExperimentRecord;
use crate::scale::{x86_festival_region, Scale};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let (region, flows) = x86_festival_region(500.0);

    // Find the node carrying the hottest core at baseline load.
    let baseline = region.offer(&flows, 1.0);
    let (hot_node, _) = baseline
        .node_reports
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.hottest_core().1))
        .fold((0, 0.0), |acc, (i, u)| if u > acc.1 { (i, u) } else { acc });

    // A week of samples, 8 per day.
    let days = 8;
    let samples = 8;
    let cores = region.nodes[hot_node].config().cores;
    let mut per_core: Vec<Series> = (0..cores)
        .map(|c| Series::new(format!("core-{c}")))
        .collect();
    for step in 0..days * samples {
        let day = step as f64 / samples as f64;
        let report = region.offer(&flows, festival_profile(day));
        for (c, u) in report.node_reports[hot_node].utilization.iter().enumerate() {
            per_core[c].push(day, (u * 100.0).min(100.0));
        }
    }

    // Rank cores by mean utilization; print the top 5 (as in the figure).
    let mut ranked: Vec<(usize, f64)> = per_core
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s.mean()))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let top5: Vec<usize> = ranked.iter().take(5).map(|(i, _)| *i).collect();

    let mut rows = Vec::new();
    for step in (0..days * samples).step_by(2) {
        let day = step as f64 / samples as f64;
        let mut row = vec![format!("{day:.2}")];
        for c in &top5 {
            row.push(format!("{:.0}", per_core[*c].points[step].1));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("day".to_string())
        .chain(top5.iter().map(|c| format!("core {c} %")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Fig 4: CPU consumption of the top-5 cores (hot gateway), festival week",
        &header_refs,
        &rows,
    );

    let hottest_mean = ranked[0].1;
    let second_mean = ranked[1].1;
    let rest_mean: f64 =
        ranked[5..].iter().map(|(_, m)| m).sum::<f64>() / (ranked.len() - 5) as f64;
    println!("\nhottest core mean {hottest_mean:.0}%, 2nd {second_mean:.0}%, other-cores mean {rest_mean:.0}%");

    let mut rec = ExperimentRecord::new("fig4", "Per-core CPU overload under heavy hitters");
    rec.compare(
        "one core persistently overused (mean > 80%)",
        "core 1 pinned near 100%",
        format!("{hottest_mean:.0}%"),
        hottest_mean > 80.0,
    );
    rec.compare(
        "other cores lightly loaded (mean of non-top5)",
        "well below the hot core",
        format!("{rest_mean:.0}%"),
        rest_mean < hottest_mean / 2.0,
    );
    rec
}
