//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! judged against the bounds the benchmark fixes.

use sailfish_util::json::Json;

use crate::metrics::{MetricDef, END_TO_END};
use crate::stats;
use crate::workload::WORKLOADS;

/// How B's median stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound.
    Improved,
    /// Within the bound of A, either way.
    Unchanged,
    /// Worse than A by more than the bound.
    Regressed,
    /// A's or B's own run-to-run quartile spread is wider than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One judged row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Median of A's runs — the base of every ratio in the row.
    pub base: f64,
    /// Median of B's runs.
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// Interquartile distance ÷ median of A's runs.
    pub spread_a: f64,
    /// Interquartile distance ÷ median of B's runs.
    pub spread_b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges B against A for one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (base, new) = (stats::median(a), stats::median(b));
    let (spread_a, spread_b) = (stats::iqr_rel(a), stats::iqr_rel(b));
    let change = if base == 0.0 {
        0.0
    } else {
        (new - base) / base.abs()
    };
    // Positive = worse, whichever direction is better.
    let worse = if def.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if spread_a.max(spread_b) > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        base,
        new,
        ratio: if base == 0.0 { 1.0 } else { new / base },
        spread_a,
        spread_b,
        verdict,
    }
}

/// Values of `metric` over the untraced runs of `workload` in a results
/// file written by `run`.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison table. `Ok(true)` when no row regressed and
/// none is unresolved.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("compare: A = {path_a} (base of every ratio), B = {path_b}");
    println!(
        "{:<12} {:<11} {:>13} {:>13} {:>8} {:>6} {:>9} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "B median",
        "B/A",
        "n A/B",
        "spread A",
        "spread B",
        "bound"
    );
    let mut clean = true;
    for spec in WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (
                values(&a, spec.name, def.name),
                values(&b, spec.name, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<12} {:<11} missing in {}",
                    spec.name,
                    def.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                clean = false;
                continue;
            }
            let row = judge(def, &va, &vb);
            clean &= matches!(row.verdict, Verdict::Improved | Verdict::Unchanged);
            println!(
                "{:<12} {:<11} {:>13.6} {:>13.6} {:>8.4} {:>6} {:>8.2}% {:>8.2}% {:>6.1}%  {} [{}, {} is better]",
                spec.name,
                def.name,
                row.base,
                row.new,
                row.ratio,
                format!("{}/{}", va.len(), vb.len()),
                row.spread_a * 100.0,
                row.spread_b * 100.0,
                def.bound * 100.0,
                row.verdict.label(),
                def.unit,
                if def.higher_is_better { "higher" } else { "lower" },
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MPPS: MetricDef = MetricDef {
        name: "fwd_mpps",
        unit: "Mpps",
        higher_is_better: true,
        bound: 0.10,
    };
    const MS: MetricDef = MetricDef {
        name: "install_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
    };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(judge(&MPPS, &steady, &steady).verdict, Verdict::Unchanged);
        // 12% lower throughput is a regression, 12% higher an improvement.
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.88).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 1.12).collect();
        assert_eq!(judge(&MPPS, &steady, &slower).verdict, Verdict::Regressed);
        assert_eq!(judge(&MPPS, &steady, &faster).verdict, Verdict::Improved);
        // For a lower-is-better metric the same ratios flip.
        let ms = [150.0, 152.0, 149.0, 151.0];
        let up: Vec<f64> = ms.iter().map(|v| v * 1.2).collect();
        let down: Vec<f64> = ms.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&MS, &ms, &up).verdict, Verdict::Regressed);
        assert_eq!(judge(&MS, &ms, &down).verdict, Verdict::Improved);
        // 8% worse stays inside a 10% bound.
        let a_bit: Vec<f64> = steady.iter().map(|v| v * 0.92).collect();
        let row = judge(&MPPS, &steady, &a_bit);
        assert_eq!(row.verdict, Verdict::Unchanged);
        assert!((row.ratio - 0.92).abs() < 1e-9 && (row.base - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        let steady = [10.0, 10.0, 10.0, 10.0, 10.0];
        assert_eq!(judge(&MPPS, &noisy, &steady).verdict, Verdict::Unresolved);
        assert_eq!(judge(&MPPS, &steady, &noisy).verdict, Verdict::Unresolved);
        // Even a large apparent regression is unresolved under that noise.
        let slower: Vec<f64> = noisy.iter().map(|v| v * 0.7).collect();
        assert_eq!(judge(&MPPS, &noisy, &slower).verdict, Verdict::Unresolved);
    }

    #[test]
    fn values_pick_untraced_runs_of_one_workload() {
        let doc = Json::parse(
            r#"{"runs":[
              {"workload":"hot_path","trace":0,"metrics":{"fwd_mpps":{"value":9.5,"unit":"Mpps"}}},
              {"workload":"hot_path","trace":1,"metrics":{"fwd_mpps":{"value":1.0,"unit":"Mpps"}}},
              {"workload":"churn","trace":0,"metrics":{"fwd_mpps":{"value":7.5,"unit":"Mpps"}}},
              {"workload":"hot_path","trace":0,"metrics":{"fwd_mpps":{"value":9.7,"unit":"Mpps"}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "hot_path", "fwd_mpps"), vec![9.5, 9.7]);
        assert_eq!(values(&doc, "churn", "fwd_mpps"), vec![7.5]);
        assert!(values(&doc, "churn", "rss_mb").is_empty());
    }
}
