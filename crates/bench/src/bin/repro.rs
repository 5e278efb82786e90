//! `repro [--tiny] [ID…]` — runs the named experiments, or all of them
//! when none is named, in registry order; writes `experiments/<id>.json`
//! and, where the experiment renders diagnostics, `<id>_report.txt`, and
//! prints the `N/M claims hold` summary. `--tiny` runs the CI smoke
//! scale. Exits 1 if any claim diverges or an artifact cannot be written,
//! 2 (listing the valid ids) if an id is unknown.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use sailfish_bench::record::{ExperimentRecord, Summary};
use sailfish_bench::{Scale, REGISTRY};

fn write(dir: &Path, id: &str, record: &ExperimentRecord) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{id}.json")), record.to_json().to_pretty())?;
    if let Some(report) = &record.report {
        fs::write(dir.join(format!("{id}_report.txt")), report)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut ids = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--tiny" {
            scale = Scale::Tiny;
        } else {
            ids.push(arg);
        }
    }
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| REGISTRY.iter().all(|(known, _)| known != id))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment id(s): {unknown:?}\nvalid ids: {}",
            valid.join(" ")
        );
        return ExitCode::from(2);
    }

    let dir = ExperimentRecord::output_dir();
    let mut records = Vec::new();
    let mut write_failed = false;
    for (id, run) in REGISTRY
        .iter()
        .filter(|(id, _)| ids.is_empty() || ids.iter().any(|want| want == id))
    {
        println!("\n################ {id} ################");
        let record = run(scale);
        if let Err(e) = write(&dir, id, &record) {
            eprintln!("could not write {id} into {}: {e}", dir.display());
            write_failed = true;
        }
        println!("\n{record}");
        records.push(record);
    }

    println!("\n================ SUMMARY ================");
    for r in &records {
        println!(
            "  {:<10} {:>2}/{:<2} claims hold — {}",
            r.id,
            r.comparisons.iter().filter(|c| c.holds).count(),
            r.comparisons.len(),
            r.title
        );
    }
    let summary = Summary::of(&records);
    println!("\n{summary}");
    if summary.passed() && !write_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
