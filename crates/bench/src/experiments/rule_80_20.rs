//! §4.2's design-driving observation: "in a typical cloud region, 5% of
//! the table entries carry 95% of the traffic, and the remaining 95% of
//! the entries only carry 5% of the traffic."

use sailfish::prelude::*;
use std::collections::HashMap;

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: 50_000,
            total_gbps: 1_000.0,
            heavy_hitters: 0,
            ..WorkloadConfig::default()
        },
    );

    // Attribute traffic to table entries: one VM-NC entry per inner
    // destination IP.
    let mut per_entry: HashMap<core::net::IpAddr, f64> = HashMap::new();
    for f in &flows {
        *per_entry.entry(f.tuple.dst_ip).or_default() += f.bps();
    }
    let mut rates: Vec<f64> = per_entry.values().copied().collect();
    rates.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let total: f64 = rates.iter().sum();

    let mut rows = Vec::new();
    let mut share_at = |pct: f64| {
        let k = ((rates.len() as f64) * pct / 100.0).ceil() as usize;
        let share = rates.iter().take(k).sum::<f64>() / total * 100.0;
        rows.push(vec![
            format!("top {pct}% of entries"),
            format!("{k}"),
            format!("{share:.1}%"),
        ]);
        share
    };
    let top1 = share_at(1.0);
    let top5 = share_at(5.0);
    let top20 = share_at(20.0);
    print_table(
        "The 80/20 rule over table entries",
        &["Entry set", "Entries", "Traffic share"],
        &rows,
    );
    let _ = (top1, top20);

    let mut rec = ExperimentRecord::new("rule_80_20", "5% of entries carry 95% of traffic");
    rec.compare(
        "traffic share of the top-5% entries",
        "~95%",
        format!("{top5:.0}%"),
        top5 > 85.0,
    );
    rec.compare(
        "implication: a small hardware table absorbs almost everything",
        "hw/sw co-design is viable",
        format!("hardware holding 5% of entries would carry {top5:.0}% of traffic"),
        top5 > 85.0,
    );
    rec
}
