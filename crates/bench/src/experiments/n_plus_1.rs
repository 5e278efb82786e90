//! §8 (future work): the "N+1" hierarchical cache-cluster design — N
//! cache clusters with active entries plus one backup cluster with all
//! entries.

use sailfish_cluster::hierarchy::{evaluate, HierarchyConfig};

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

pub fn run(_scale: Scale) -> ExperimentRecord {
    // Sweep N at the paper's 25% active fraction.
    let mut rows = Vec::new();
    for n in 1..=8 {
        let r = evaluate(&HierarchyConfig {
            cache_clusters: n,
            ..HierarchyConfig::default()
        });
        rows.push(vec![
            format!("{n}+1"),
            format!("{:.3}", r.hit_ratio),
            format!("{:.2}x", r.performance_multiplier),
            format!("{:.2}x", r.cost_multiplier),
            format!("{:.2}", r.efficiency()),
        ]);
    }
    print_table(
        "N+1 hierarchical clusters (25% active entries, Zipf 1.5 activity)",
        &[
            "Config",
            "Hit ratio",
            "Performance",
            "Node cost",
            "Perf/cost",
        ],
        &rows,
    );

    // Ablation: how the activity skew changes the picture.
    let mut rows = Vec::new();
    for skew in [0.0, 0.8, 1.2, 1.5, 2.0] {
        let r = evaluate(&HierarchyConfig {
            activity_skew: skew,
            ..HierarchyConfig::default()
        });
        rows.push(vec![
            format!("{skew:.1}"),
            format!("{:.3}", r.hit_ratio),
            format!("{:.2}x", r.performance_multiplier),
            format!("{:.2}", r.efficiency()),
        ]);
    }
    print_table(
        "Ablation: activity skew (4+1 clusters)",
        &["Zipf s", "Hit ratio", "Performance", "Perf/cost"],
        &rows,
    );

    let paper = evaluate(&HierarchyConfig::default());
    let mut rec = ExperimentRecord::new("n_plus_1", "N+1 hierarchical cache clusters (§8)");
    rec.compare(
        "4 cache + 1 backup performance",
        "4x",
        format!("{:.2}x", paper.performance_multiplier),
        paper.performance_multiplier > 3.5,
    );
    rec.compare(
        "node cost",
        "2x",
        format!("{:.2}x", paper.cost_multiplier),
        (paper.cost_multiplier - 2.0).abs() < 0.01,
    );
    rec
}
