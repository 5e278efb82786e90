//! The metric catalogue: every name `BENCHMARK.json` lists, with its
//! unit, direction and (end to end) regression bound. `compare` judges
//! against these; a unit test keeps `BENCHMARK.json` in step.

use sailfish_util::json::Json;

/// An end-to-end metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of "better".
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

/// The five end-to-end metrics, each reported per workload.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "fwd_mpps",
        unit: "Mpps",
        higher_is_better: true,
        bound: 0.25,
    },
    MetricDef {
        name: "punt_share",
        unit: "fraction",
        higher_is_better: false,
        bound: 0.01,
    },
    MetricDef {
        name: "install_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.05,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric the traced
/// run prints, prefix = module.
pub const PER_LAYER: [(&str, &str, bool); 50] = [
    ("net.view_parse_ns", "ns/frame", false),
    ("net.owned_parse_ns", "ns/frame", false),
    ("net.frame_errors", "count", false),
    ("cache.hit_ns", "ns/op", false),
    ("cache.miss_ns", "ns/op", false),
    ("cache.insert_evict_ns", "ns/op", false),
    ("cache.hit_ratio", "ratio", true),
    ("cache.resident_flows", "count", true),
    ("cluster.directory_ecmp_ns", "ns/op", false),
    ("engine.walk_ns", "ns/walk", false),
    ("engine.route_lookups_per_walk", "count", false),
    ("tables.route_lookup_ns", "ns/op", false),
    ("tables.vm_lookup_ns", "ns/op", false),
    ("tables.vm_conflict_share", "ratio", false),
    ("rewrite.apply_ns", "ns/frame", false),
    ("tier.place_ns", "ns/op", false),
    ("tier.dpu_share", "ratio", true),
    ("snat.offload_lookup_ns", "ns/op", false),
    ("snat.offload_hit_share", "ratio", true),
    ("snat.outbound_ns", "ns/event", false),
    ("snat.rebalance_ms", "ms", false),
    ("x86.process_ns", "ns/punt", false),
    ("punt.finish_ns_per_punt", "ns/punt", false),
    ("batch.execute_ns_per_pkt", "ns/pkt", false),
    ("batch.finish_ns_per_pkt", "ns/pkt", false),
    ("batch.pass_ns_per_pkt_p50", "ns/pkt", false),
    ("batch.pass_ns_per_pkt_p95", "ns/pkt", false),
    ("batch.pass_iqr_rel", "ratio", false),
    ("batch.allocs_per_pkt", "count", false),
    ("batch.mpps_2w", "Mpps", true),
    ("batch.virtual_ns_per_pkt", "ns/pkt", false),
    ("batch.unattributed_ns_per_pkt", "ns/pkt", false),
    ("epoch.pin_ns", "ns/op", false),
    ("epoch.build_ms_quiet", "ms", false),
    ("epoch.publish_us", "us", false),
    ("epoch.visible_us", "us", false),
    ("epoch.install_busy_ms", "ms", false),
    ("epoch.quiet_mpps", "Mpps", true),
    ("epoch.stalled_pass_share", "ratio", false),
    ("epoch.install_late_ms", "ms", false),
    ("epoch.violations", "count", false),
    ("epoch.state_mb", "MiB", false),
    ("cluster.plan_split_ms", "ms", false),
    ("cluster.install_ms", "ms", false),
    ("cluster.verify_reshard_ms", "ms", false),
    ("sim.topology_gen_s", "s", false),
    ("sim.flows_gen_s", "s", false),
    ("traffic.frames_emit_s", "s", false),
    ("dataplane.build_s", "s", false),
    ("trace.overhead_rel", "ratio", false),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Pairs measured values with the catalogue: every catalogued name must
/// be present exactly once (a missing one is a bug in the benchmark, so
/// it is reported, not defaulted).
pub fn catalogued(
    names: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|&(name, unit)| {
            let mut found = values.iter().filter(|(n, _)| *n == name);
            match (found.next(), found.next()) {
                (Some(&(_, value)), None) if value.is_finite() => Ok(Metric { name, value, unit }),
                (Some(&(_, value)), None) => Err(format!("metric {name} is not finite: {value}")),
                (None, _) => Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => Err(format!("metric {name} was measured twice")),
            }
        })
        .collect()
}

/// The `metrics` object of the result line.
pub fn to_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Object(vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is the contract the driver reads; it must list
    /// exactly what this crate prints, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(j, "name"), spec.name);
            assert_eq!(text(j, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), def.name);
            assert_eq!(text(j, "unit"), def.unit);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(j, "better"), better);
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
            assert!(def.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, higher)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(j, "name"), name);
            assert_eq!(text(j, "unit"), unit);
            assert_eq!(text(j, "better"), if higher { "higher" } else { "lower" });
        }
    }

    #[test]
    fn catalogued_rejects_missing_duplicate_and_nan() {
        let names = [("a", "s"), ("b", "ms")];
        let ok = catalogued(&names, &[("b", 2.0), ("a", 1.0)]).unwrap();
        assert_eq!(ok.iter().map(|m| m.name).collect::<Vec<_>>(), ["a", "b"]);
        assert!(catalogued(&names, &[("a", 1.0)]).is_err());
        assert!(catalogued(&names, &[("a", 1.0), ("a", 2.0), ("b", 1.0)]).is_err());
        assert!(catalogued(&names, &[("a", f64::NAN), ("b", 1.0)]).is_err());
    }
}
