//! Fig 6: CPU consumption of the 15 XGW-x86s in one region — the box
//! level is balanced (ECMP works) even while single cores overload
//! (Fig 4): "the load is unequally distributed among CPU cores", not
//! among gateways.

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::{x86_festival_region, Scale};
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let (region, flows) = x86_festival_region(500.0);

    let days = 8;
    let samples = 4;
    let nodes = region.nodes.len();
    let mut rows = Vec::new();
    let mut means = vec![0.0f64; nodes];
    for step in 0..days * samples {
        let day = step as f64 / samples as f64;
        let report = region.offer(&flows, festival_profile(day));
        // Per-node average core utilization: the box-level balance.
        let utils: Vec<f64> = report.node_reports.iter().map(|r| r.mean_utilization()).collect();
        for (n, u) in utils.iter().enumerate() {
            means[n] += u / (days * samples) as f64;
        }
        if step % samples == 0 {
            let mut row = vec![format!("{day:.1}")];
            row.extend(utils.iter().take(8).map(|u| format!("{:.0}", u * 100.0)));
            rows.push(row);
        }
    }
    let headers: Vec<String> = std::iter::once("day".to_string())
        .chain((0..8).map(|n| format!("gw{n} %")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Fig 6: mean CPU consumption per gateway (first 8 of 15 shown)",
        &header_refs,
        &rows,
    );

    let avg: f64 = means.iter().sum::<f64>() / nodes as f64;
    let max = means.iter().copied().fold(0.0f64, f64::max);
    let min = means.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "\nweek-long mean utilization: avg {:.0}%, min {:.0}%, max {:.0}%",
        avg * 100.0,
        min * 100.0,
        max * 100.0
    );

    let mut rec = ExperimentRecord::new("fig6", "Load is balanced across gateways");
    rec.compare(
        "max/avg gateway load",
        "≈1 (perfectly balanced)",
        format!("{:.2}", max / avg),
        max / avg < 2.0,
    );
    rec.compare(
        "min/avg gateway load",
        "≈1",
        format!("{:.2}", min / avg),
        min / avg > 0.4,
    );
    rec
}
