//! Round-trip tests of the in-tree JSON reader/writer against every
//! real experiment record in `experiments/*.json` — the files the `repro`
//! binary writes and summarizes.

use std::path::PathBuf;

use sailfish_util::json::Json;

fn experiments_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/util; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("experiments");
    p
}

fn experiment_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ exists at the workspace root")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

/// Every record parses, and survives pretty- and compact-serialization
/// round trips unchanged.
#[test]
fn all_experiment_records_round_trip() {
    let files = experiment_files();
    assert!(
        files.len() >= 21,
        "expected the full experiment corpus, found {}",
        files.len()
    );
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed =
            Json::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        for (rendering, label) in [
            (parsed.to_pretty(), "pretty"),
            (parsed.to_compact(), "compact"),
        ] {
            let back = Json::parse(&rendering).unwrap_or_else(|e| {
                panic!(
                    "{} {label} rendering does not re-parse: {e}",
                    path.display()
                )
            });
            assert_eq!(
                back,
                parsed,
                "{} {label} round trip changed",
                path.display()
            );
        }
    }
}

/// Every record has the ExperimentRecord shape the tooling relies on:
/// string id/title and an array of {metric, paper, measured, holds}.
#[test]
fn all_experiment_records_have_expected_shape() {
    for path in experiment_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let v = Json::parse(&text).unwrap();
        let id = v.get("id").and_then(Json::as_str);
        assert!(id.is_some(), "{} missing id", path.display());
        assert_eq!(
            Some(format!("{}.json", id.unwrap())),
            path.file_name().map(|n| n.to_string_lossy().into_owned()),
            "file name and record id disagree"
        );
        assert!(v.get("title").and_then(Json::as_str).is_some());
        let comparisons = v.get("comparisons").and_then(Json::as_array).unwrap();
        assert!(
            !comparisons.is_empty(),
            "{} has no comparisons",
            path.display()
        );
        for c in comparisons {
            assert!(c.get("metric").and_then(Json::as_str).is_some());
            assert!(c.get("paper").and_then(Json::as_str).is_some());
            assert!(c.get("measured").and_then(Json::as_str).is_some());
            assert!(c.get("holds").and_then(Json::as_bool).is_some());
        }
    }
}

/// Re-serializing a parsed record in pretty form reproduces the on-disk
/// bytes (modulo a single trailing newline) — so records rewritten by a
/// rerun produce no spurious diffs.
#[test]
fn pretty_form_matches_on_disk_layout() {
    for path in experiment_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.to_pretty(),
            text.trim_end_matches('\n'),
            "{} would churn on rewrite",
            path.display()
        );
    }
}
