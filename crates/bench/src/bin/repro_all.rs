//! Runs every reproduction binary in sequence (the full paper sweep) and
//! summarizes the experiment records it produced.

use std::process::Command;

use sailfish_bench::record::ExperimentRecord;

const BINS: &[&str] = &[
    // The static analyzers gate everything else: every layout the suite
    // is about to exercise must be legal on the modeled hardware, and
    // every staged world / re-shard plan must prove black-hole-free and
    // within capacity before any push.
    "sailfish-verify",
    "verify_world_sweep",
    "table1_routes",
    "table2_initial_memory",
    "table3_optimized_memory",
    "table4_overall_memory",
    "fig4_core_overload",
    "fig5_x86_region_loss",
    "fig6_gateway_balance",
    "fig7_heavy_hitters",
    "fig8_trend",
    "fig17_compression_steps",
    "fig18_forwarding_perf",
    "fig19_sailfish_region_loss",
    "fig20_pipeline_balance_clusters",
    "fig21_pipeline_balance_time",
    "fig22_hw_sw_ratio",
    "fig23_update_freq",
    "rule_80_20",
    "n_plus_1_hierarchy",
    "fault_injection_sweep",
    "chaos_dataplane_sweep",
    "reshard_sweep",
    "snat_sweep",
    "tier_sweep",
    "dataplane_bench",
    "ablation_alpm_depth",
    "ablation_folding",
    "ablation_cache_vs_prealloc",
];

fn main() {
    let self_path = std::env::current_exe().expect("argv0");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();
    let mut failures = Vec::new();
    for bin in BINS {
        println!("\n################ {bin} ################");
        let status = Command::new(bin_dir.join(bin)).status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("{bin} failed: {other:?}");
                failures.push(*bin);
            }
        }
    }

    // Summarize the records.
    println!("\n================ SUMMARY ================");
    let dir = ExperimentRecord::output_dir();
    let mut total = 0;
    let mut holding = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .map(|rd| rd.flatten().collect::<Vec<_>>())
        .unwrap_or_default();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(rec) = ExperimentRecord::from_json_str(&text) else {
            continue;
        };
        let ok = rec.comparisons.iter().filter(|c| c.holds).count();
        total += rec.comparisons.len();
        holding += ok;
        println!(
            "  {:<10} {:>2}/{:<2} claims hold — {}",
            rec.id,
            ok,
            rec.comparisons.len(),
            rec.title
        );
    }
    println!("\n{holding}/{total} claims hold across all experiments");
    if !failures.is_empty() {
        eprintln!("failed binaries: {failures:?}");
        std::process::exit(1);
    }
}
