//! Machine-readable experiment records.
//!
//! Every experiment returns its paper-vs-measured comparison; `repro`
//! writes it to `experiments/<id>.json` in the workspace root, which
//! backs `EXPERIMENTS.md`. Records serialize through the in-tree
//! `sailfish_util::json` writer (the workspace builds offline with no
//! external crates), keeping the layout the existing files use.

use std::fmt;
use std::path::PathBuf;

use sailfish_util::json::Json;

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared (e.g. "SRAM % after a+b").
    pub metric: String,
    /// The paper's reported value, as printed in the paper.
    pub paper: String,
    /// Our measured/derived value.
    pub measured: String,
    /// Whether the shape/claim holds.
    pub holds: bool,
}

impl Comparison {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("metric".to_string(), Json::from(self.metric.clone())),
            ("paper".to_string(), Json::from(self.paper.clone())),
            ("measured".to_string(), Json::from(self.measured.clone())),
            ("holds".to_string(), Json::from(self.holds)),
        ])
    }
}

/// A full experiment record.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id (e.g. "fig17").
    pub id: String,
    /// Human title.
    pub title: String,
    /// The comparisons.
    pub comparisons: Vec<Comparison>,
    /// Rendered diagnostics `repro` writes beside the record as
    /// `<id>_report.txt` (the static analyzers'); not part of the JSON.
    pub report: Option<String>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentRecord {
            id: id.into(),
            title: title.into(),
            comparisons: Vec::new(),
            report: None,
        }
    }

    /// Whether every claim holds.
    pub fn holds(&self) -> bool {
        self.comparisons.iter().all(|c| c.holds)
    }

    /// Adds a comparison row.
    pub fn compare(
        &mut self,
        metric: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        holds: bool,
    ) -> &mut Self {
        self.comparisons.push(Comparison {
            metric: metric.into(),
            paper: paper.into(),
            measured: measured.into(),
            holds,
        });
        self
    }

    /// Serializes to the `experiments/*.json` layout.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("id".to_string(), Json::from(self.id.clone())),
            ("title".to_string(), Json::from(self.title.clone())),
            (
                "comparisons".to_string(),
                Json::Array(self.comparisons.iter().map(Comparison::to_json).collect()),
            ),
        ])
    }

    /// Directory the records land in (workspace `experiments/`).
    pub fn output_dir() -> PathBuf {
        // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.pop();
        p.pop();
        p.push("experiments");
        p
    }
}

/// The paper-vs-measured table.
impl fmt::Display for ExperimentRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] paper vs measured:", self.id)?;
        for c in &self.comparisons {
            let mark = if c.holds { "OK " } else { "DIVERGES" };
            writeln!(
                f,
                "  [{mark}] {:<42} paper: {:<22} measured: {}",
                c.metric, c.paper, c.measured
            )?;
        }
        write!(
            f,
            "  => {}",
            if self.holds() {
                "all claims hold"
            } else {
                "some claims diverge (see EXPERIMENTS.md)"
            }
        )
    }
}

/// Claims holding and claims made across a run's records: `repro`'s
/// summary line and its exit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Claims that hold.
    pub holding: usize,
    /// Claims made.
    pub total: usize,
    /// Records counted.
    pub records: usize,
}

impl Summary {
    /// Tallies `records`.
    pub fn of(records: &[ExperimentRecord]) -> Self {
        Summary {
            holding: records
                .iter()
                .map(|r| r.comparisons.iter().filter(|c| c.holds).count())
                .sum(),
            total: records.iter().map(|r| r.comparisons.len()).sum(),
            records: records.len(),
        }
    }

    /// The run passes only if every claim holds.
    pub fn passed(&self) -> bool {
        self.holding == self.total
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} claims hold across {} experiments",
            self.holding, self.total, self.records
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_diverging_claim_fails_the_run() {
        let mut good = ExperimentRecord::new("good", "Holds");
        good.compare("a", "1", "1", true)
            .compare("b", "2", "2", true);
        let mut bad = ExperimentRecord::new("bad", "Diverges");
        bad.compare("c", "3", "3", true)
            .compare("d", "4", "9", false);

        let passing = Summary::of(std::slice::from_ref(&good));
        assert!(passing.passed());
        assert_eq!(passing.to_string(), "2/2 claims hold across 1 experiments");

        let failing = Summary::of(&[good, bad.clone()]);
        assert!(!failing.passed());
        assert!(!bad.holds());
        assert_eq!(failing.to_string(), "3/4 claims hold across 2 experiments");
        assert!(bad.to_string().contains("[DIVERGES] d"));
    }

    #[test]
    fn output_dir_is_workspace_experiments() {
        let dir = ExperimentRecord::output_dir();
        assert!(dir.ends_with("experiments"));
    }
}
