//! The registry and the committed `experiments/` directory agree: ids are
//! unique, every file is an artifact `repro` writes for a registered id,
//! and every id has its record. Nothing here runs an experiment.

use std::collections::BTreeSet;

use sailfish_bench::record::ExperimentRecord;
use sailfish_bench::REGISTRY;

#[test]
fn registry_ids_are_unique() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids.len(), REGISTRY.len(), "duplicate id in {ids:?}");
}

#[test]
fn experiments_dir_holds_exactly_the_registered_artifacts() {
    let ids: BTreeSet<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
    let files: BTreeSet<String> = std::fs::read_dir(ExperimentRecord::output_dir())
        .expect("experiments/ exists at the workspace root")
        .map(|entry| {
            entry
                .expect("readable directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 file name")
        })
        .collect();
    for file in &files {
        let id = file
            .strip_suffix("_report.txt")
            .or_else(|| file.strip_suffix(".json"));
        assert!(
            id.is_some_and(|id| ids.contains(id)),
            "experiments/{file} is not an artifact of a registered experiment"
        );
    }
    for id in &ids {
        assert!(
            files.contains(&format!("{id}.json")),
            "registered experiment {id} has no experiments/{id}.json"
        );
    }
}
