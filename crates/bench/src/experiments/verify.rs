//! Static layout verification: the diagnostics-grade analyzer
//! (`sailfish-verify`, [`sailfish_asic::verify`]) run over every layout
//! the reproduction suite ships plus the known-bad corpus.
//!
//! Two jobs:
//!
//! 1. **Gate**: every production layout (Table 3 majors, Table 4 full
//!    complement, the default cluster device load, both folding-ablation
//!    placements) must verify clean — an error diagnostic is a diverging
//!    claim, so it fails `repro` (non-zero exit).
//! 2. **Demonstrate**: the known-bad corpus must provoke exactly its
//!    pinned stable codes, proving the analyzer catches each failure
//!    class with an explainable report.
//!
//! The concatenated rendered reports land in
//! `experiments/verify_report.txt`; the file is byte-stable, and CI runs
//! `repro --tiny` twice and compares the two `experiments/` directories
//! to pin determinism.

use sailfish::compression::estimate_alpm_stats;
use sailfish::prelude::*;
use sailfish_asic::placement::Layout;
use sailfish_asic::verify::{known_bad_corpus, verify_with, Report};
use sailfish_xgw_h::layout::{major_tables, production_layout, verify_layout};

use crate::record::ExperimentRecord;
use crate::scale::{calibrated_scenario, Scale};

pub fn run(_scale: Scale) -> ExperimentRecord {
    let cfg = TofinoConfig::tofino_64t();
    let scenario = calibrated_scenario();
    // The deterministic ALPM estimate (same calibration as Fig 17);
    // no region-scale topology build, so the run stays fast and
    // byte-stable.
    let alpm = estimate_alpm_stats(scenario.route_entries, 24, 0.6);

    let mut rendered = String::new();
    let mut rec = ExperimentRecord::new("verify", "Static layout verification");

    // --- production layouts: all must verify clean ------------------
    let mut production: Vec<(&str, Report)> = Vec::new();

    let table4 = production_layout(
        cfg.clone(),
        scenario.route_entries,
        &alpm,
        scenario.vm_entries,
    )
    .expect("production layout builds");
    production.push((
        "table4-production",
        verify_layout(&table4, "table4-production"),
    ));

    let mut table3 = Layout::new(cfg.clone(), true);
    for t in major_tables(scenario.route_entries, &alpm, scenario.vm_entries)
        .expect("major tables build")
    {
        table3.push(t);
    }
    production.push(("table3-majors", verify_layout(&table3, "table3-majors")));

    let cluster_load = sailfish_xgw_h::layout::verify_device_load(&cfg, 240_000, 480_000)
        .expect("device load builds");
    production.push(("cluster-device-load", cluster_load));

    let (chatty, grouped) = super::ablation_folding::layouts(&cfg);
    production.push(("ablation-chatty", verify_layout(&chatty, "ablation-chatty")));
    production.push((
        "ablation-grouped",
        verify_layout(&grouped, "ablation-grouped"),
    ));

    for (name, report) in &production {
        let errors = report.errors().count();
        let warnings = report.warnings().count();
        println!(
            "{name}: {} ({errors} error(s), {warnings} warning(s))",
            if report.is_clean() {
                "clean"
            } else {
                "REJECTED"
            },
        );
        rec.compare(
            format!("{name} verifies clean"),
            "clean",
            if report.is_clean() {
                "clean".to_string()
            } else {
                format!("{errors} error(s)")
            },
            report.is_clean(),
        );
        rendered.push_str(&report.render());
        rendered.push('\n');
    }

    // --- known-bad corpus: every case must fire its pinned codes ----
    for case in known_bad_corpus(&cfg) {
        let report = verify_with(&case.layout, case.name, &case.options);
        let fired = case.expect.iter().all(|code| report.has(*code));
        let codes: Vec<&str> = case.expect.iter().map(|c| c.code()).collect();
        println!(
            "corpus/{}: {} (expects {})",
            case.name,
            if fired { "diagnosed" } else { "MISSED" },
            codes.join("+"),
        );
        rec.compare(
            format!("corpus '{}' emits {}", case.name, codes.join("+")),
            "diagnosed",
            if fired { "diagnosed" } else { "missed" }.to_string(),
            fired,
        );
        rendered.push_str(&report.render());
        rendered.push('\n');
    }

    rec.report = Some(rendered);
    rec
}
