//! Fig 18: forwarding performance of XGW-H vs XGW-x86 at roughly the
//! same unit price — throughput (>20x), packet rate (~72x), latency
//! (−95%), plus the line-rate crossovers and the 128B–1024B latency
//! spread reported in §5.1.
//!
//! The measured companion executes real VXLAN frames through the
//! behavioral dataplane in single- and multi-worker mode and checks
//! every decision against the reference XGW-x86 forwarder (the
//! differential oracle): 1.2M seeded packets at full scale, 20k at
//! `--tiny`. Its claims read the virtual cost model, so they are
//! deterministic; wall-clock throughput goes to stdout only.

use std::time::Instant;

use sailfish::prelude::*;
use sailfish_dataplane::executor::{software_forwarder, Dataplane, DataplaneConfig};
use sailfish_dataplane::oracle::differential_run;
use sailfish_dataplane::{traffic, RunReport};

use crate::record::ExperimentRecord;
use crate::scale::Scale;
use crate::table::print_table;

pub fn run(scale: Scale) -> ExperimentRecord {
    let hw = PerfEnvelope::tofino_64t();
    let sw = XgwX86Config::default();

    // Packet-size sweep.
    let sizes = [64usize, 128, 256, 512, 1024, 1500];
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&b| {
            let hw_pps = hw.max_pps(b, true, 0);
            let hw_bps = hw.max_bps(b, true, 0);
            let sw_pps = sw.max_pps(b);
            let sw_bps = sw.max_bps(b);
            vec![
                format!("{b}"),
                format!("{:.2}", hw_bps / 1e12),
                format!("{:.0}", hw_pps / 1e6),
                format!("{:.3}", sw_bps / 1e12),
                format!("{:.1}", sw_pps / 1e6),
                format!("{:.0}x", hw_bps / sw_bps),
                format!("{:.0}x", hw_pps / sw_pps),
            ]
        })
        .collect();
    print_table(
        "Fig 18(a)(b): throughput and packet rate vs packet size",
        &[
            "Bytes",
            "XGW-H Tbps",
            "XGW-H Mpps",
            "x86 Tbps",
            "x86 Mpps",
            "bps ratio",
            "pps ratio",
        ],
        &rows,
    );

    // Latency.
    let hw_lat_128 = hw.latency_ns(128, true);
    let hw_lat_1024 = hw.latency_ns(1024, true);
    let sw_lat = sw.latency_ns(0.3);
    print_table(
        "Fig 18(c): forwarding latency",
        &["Node", "Latency µs"],
        &[
            vec!["XGW-x86".into(), format!("{:.0}", sw_lat / 1000.0)],
            vec!["XGW-H (128B)".into(), format!("{:.3}", hw_lat_128 / 1000.0)],
            vec![
                "XGW-H (1024B)".into(),
                format!("{:.3}", hw_lat_1024 / 1000.0),
            ],
        ],
    );

    // Measured companion to the analytic envelope: execute real frames
    // through the behavioral executor under its virtual cost model,
    // single-worker vs multi-worker, against the differential oracle.
    let (flows_n, packets) = scale.pick((600, 20_000), (4_000, 1_200_000));
    let topology = Topology::generate(TopologyConfig::default());
    let flows = generate_flows(
        &topology,
        &WorkloadConfig {
            flows: flows_n,
            internet_share: 0.05,
            ..WorkloadConfig::default()
        },
    );
    let frames = traffic::frames_for_flows(&flows);
    let sched = traffic::schedule(&flows[..frames.len()], packets, 42);
    let seq: Vec<&[u8]> = sched.iter().map(|i| frames[*i].as_slice()).collect();
    let dp = Dataplane::build(&topology, DataplaneConfig::default());

    // Every executor decision (punts included) must match the reference
    // forwarder, packet by packet.
    let mut fb_oracle = software_forwarder(&topology);
    let mut reference = software_forwarder(&topology);
    let t0 = Instant::now();
    let oracle = differential_run(&dp, &seq, &mut fb_oracle, &mut reference);
    println!(
        "oracle: {} packets, {} agreements, {} mismatches ({:.2}s wall)",
        oracle.packets,
        oracle.agreements,
        oracle.mismatches,
        t0.elapsed().as_secs_f64()
    );
    if let Some(m) = &oracle.first_mismatch {
        eprintln!("first mismatch: {m}");
    }

    let mut fb_single = software_forwarder(&topology);
    let t1 = Instant::now();
    let single = dp.run_single(&seq, &mut fb_single);
    let single_wall = t1.elapsed().as_secs_f64();
    let mut fb_multi = software_forwarder(&topology);
    let t2 = Instant::now();
    let multi = dp.run_multi(&seq, &mut fb_multi);
    let multi_wall = t2.elapsed().as_secs_f64();
    let row = |label: &str, r: &RunReport, wall: f64| {
        vec![
            label.to_string(),
            format!("{}", r.workers),
            format!("{:.3}", r.virtual_mpps()),
            format!("{:.3}", r.packets as f64 / wall / 1e6),
            format!(
                "{:.1}%",
                100.0 * r.counters.cache_hits as f64 / r.counters.parsed.max(1) as f64
            ),
            format!(
                "{:.2}%",
                100.0 * r.fallback_packets as f64 / r.packets.max(1) as f64
            ),
        ]
    };
    print_table(
        "Fig 18(d): measured behavioral executor (virtual cost model)",
        &[
            "Mode",
            "Workers",
            "Virtual Mpps",
            "Wall Mpps",
            "Cache hits",
            "Fallback",
        ],
        &[
            row("single", &single, single_wall),
            row("multi", &multi, multi_wall),
        ],
    );

    let hw_small_pps = hw.max_pps(200, true, 0);
    let sw_small_pps = sw.max_pps(200);
    let mut rec = ExperimentRecord::new("fig18", "XGW-H vs XGW-x86 forwarding performance");
    rec.compare(
        "throughput ratio (bps, large packets)",
        ">20x (3.2 Tbps vs x86)",
        format!("{:.0}x", hw.max_bps(1500, true, 0) / sw.max_bps(1500)),
        hw.max_bps(1500, true, 0) / sw.max_bps(1500) > 20.0,
    );
    rec.compare(
        "packet-rate ratio (small packets)",
        "71-72x (1800 vs 25 Mpps)",
        format!("{:.0}x", hw_small_pps / sw_small_pps),
        (60.0..85.0).contains(&(hw_small_pps / sw_small_pps)),
    );
    rec.compare(
        "XGW-H peak packet rate",
        "1800 Mpps",
        format!("{:.0} Mpps", hw.max_pps(64, true, 0) / 1e6),
        (hw.max_pps(64, true, 0) / 1e6 - 1800.0).abs() < 10.0,
    );
    rec.compare(
        "latency reduction",
        "95% (40µs -> 2µs)",
        format!("{:.0}%", 100.0 * (1.0 - hw_lat_128 / sw_lat)),
        1.0 - hw_lat_128 / sw_lat > 0.9,
    );
    rec.compare(
        "XGW-H latency 128B..1024B",
        "2.173..2.303 µs",
        format!("{:.3}..{:.3} µs", hw_lat_128 / 1000.0, hw_lat_1024 / 1000.0),
        (2.0..2.3).contains(&(hw_lat_128 / 1000.0)) && (2.2..2.5).contains(&(hw_lat_1024 / 1000.0)),
    );
    rec.compare(
        "XGW-H line-rate crossover",
        "< 256B",
        format!("{}B", hw.line_rate_crossover_bytes()),
        hw.line_rate_crossover_bytes() < 256,
    );
    rec.compare(
        "XGW-x86 reaches line rate only above",
        "512B",
        (if sw.max_pps(512) < sw.total_pps() {
            "between 256B and 512B"
        } else {
            "above 512B"
        })
        .to_string(),
        sw.max_pps(512) < sw.total_pps() && (sw.max_pps(256) - sw.total_pps()).abs() < 1.0,
    );
    rec.compare(
        "differential oracle",
        "0 mismatches over every seeded packet",
        format!(
            "{} mismatches / {} packets",
            oracle.mismatches, oracle.packets
        ),
        oracle.holds(),
    );
    if scale == Scale::Full {
        rec.compare(
            "oracle scale",
            ">= 1M seeded packets",
            format!("{}", oracle.packets),
            oracle.packets >= 1_000_000,
        );
    }
    rec.compare(
        "decision digest independent of worker partitioning",
        "single == multi",
        format!(
            "{:016x} vs {:016x}",
            single.decision_digest, multi.decision_digest
        ),
        single.decision_digest == multi.decision_digest,
    );
    rec.compare(
        "multi-worker scaling (virtual time)",
        "> 1x over one worker",
        format!("{:.2}x", multi.virtual_mpps() / single.virtual_mpps()),
        multi.virtual_mpps() > single.virtual_mpps() * 1.2,
    );
    rec.compare(
        "hardware serves the bulk of traffic (80/20 split)",
        ">= 80% on-chip",
        format!(
            "{:.1}%",
            100.0 * single.counters.hw_forwarded as f64 / single.counters.parsed.max(1) as f64
        ),
        single.counters.hw_forwarded * 5 >= single.counters.parsed * 4,
    );
    rec.compare(
        "flow cache effectiveness",
        "> 90% hit rate on Zipf traffic",
        format!(
            "{:.1}%",
            100.0 * single.counters.cache_hits as f64 / single.counters.parsed.max(1) as f64
        ),
        single.counters.cache_hits * 10 >= single.counters.parsed * 9,
    );
    rec
}
