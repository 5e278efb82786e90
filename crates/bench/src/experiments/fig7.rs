//! Fig 7: in recorded CPU-overload scenes, the top-1/top-2 flows
//! dominate the overloaded core's traffic.

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let topology = Topology::generate(TopologyConfig::default());
    let region = SwCluster::new(15, 16, XgwX86Config::default(), SnatConfig::default()).unwrap();

    // Twelve "overload scenes": different seeds/heavy-hitter placements.
    let mut rows = Vec::new();
    let mut top1_dominant = 0;
    let mut top2_dominant = 0;
    let scenes = 12;
    for scene in 0..scenes {
        let flows = generate_flows(
            &topology,
            &WorkloadConfig {
                seed: 100 + scene as u64,
                flows: 30_000,
                total_gbps: 500.0,
                heavy_hitters: 2 + (scene % 3),
                heavy_hitter_gbps: 20.0 + scene as f64,
                zipf_s: 1.1,
                mouse_cap_gbps: Some(2.0),
                ..WorkloadConfig::default()
            },
        );
        let report = region.offer(&flows, 1.3);
        // The overloaded core across the region.
        let (node, core, _) = report
            .node_reports
            .iter()
            .enumerate()
            .map(|(n, r)| {
                let (c, u) = r.hottest_core();
                (n, c, u)
            })
            .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
            .expect("nodes exist");
        let r = &report.node_reports[node];
        let top1 = r.top_flow_share(core, 1) * 100.0;
        let top2 = r.top_flow_share(core, 2) * 100.0;
        let flows_on_core = r.flows_per_core[core].len();
        rows.push(vec![
            format!("{}", scene + 1),
            format!("{top1:.0}"),
            format!("{:.0}", top2 - top1),
            format!("{:.0}", 100.0 - top2),
            format!("{flows_on_core}"),
        ]);
        if top1 > 50.0 {
            top1_dominant += 1;
        }
        if top2 > 70.0 {
            top2_dominant += 1;
        }
    }
    print_table(
        "Fig 7: packet share on the overloaded core",
        &[
            "Scene",
            "Top-1 flow %",
            "Top-2 flow %",
            "Else %",
            "Flows on core",
        ],
        &rows,
    );

    let mut rec = ExperimentRecord::new("fig7", "Heavy hitters cause core overload");
    rec.compare(
        "scenes where the top-1 flow dominates (>50%)",
        "most of 12 scenes",
        format!("{top1_dominant}/12"),
        top1_dominant >= 8,
    );
    rec.compare(
        "scenes where top-2 flows carry >70%",
        "most of 12 scenes",
        format!("{top2_dominant}/12"),
        top2_dominant >= 8,
    );
    rec
}
