//! The repo benchmark: four gateway workloads, five end-to-end metrics
//! and an outside-in per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! sailfish-benchmark run [--workload W] [--seed N] [--seconds S]
//!                        [--trace [0|1]] [--smoke] [--repeats K]
//!                        [--out-dir DIR] [--out FILE]
//! sailfish-benchmark compare A.json B.json
//! ```
//!
//! With `--workload` one workload runs in this process and the last
//! line of standard output is the result object. Without it, every
//! workload runs in a child process of its own (so peak RSS does not
//! leak from one workload into the next) and the results are collected
//! into one file that `compare` reads.

#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

mod alloc;
mod compare;
mod gate;
mod layers;
mod metrics;
mod spans;
mod stats;
mod window;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use sailfish_util::json::Json;

use crate::gate::Ledger;
use crate::metrics::{catalogued, Metric, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::window::{InstallSample, Tracing, Window};
use crate::workload::{Spec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 2021;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 13.0;
/// `--seconds` under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Quiet installs after each round of a workload without churn.
const QUIET_INSTALLS: usize = 2;

const USAGE: &str = "usage: run.sh run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeats K] [--out-dir DIR] [--out FILE]\n       run.sh compare A.json B.json";

struct Args {
    workload: Option<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeats: usize,
    out_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        repeats: 1,
        out_dir: PathBuf::from("benchmark/out"),
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(workload::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--repeats" => {
                out.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
            }
            "--out-dir" => out.out_dir = PathBuf::from(value("--out-dir")?),
            "--out" => out.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => out.smoke = true,
            "--trace" => {
                // `--trace 0|1` (the driver's form) or bare `--trace`.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    out.seconds = seconds.unwrap_or(if out.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| match a.workload {
            Some(spec) => run_one(spec, &a),
            None => run_all(&a),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare::run(a, b),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn install_period(smoke: bool) -> Duration {
    if smoke {
        window::SMOKE_INSTALL_PERIOD
    } else {
        window::INSTALL_PERIOD
    }
}

/// Throughput slice length: two install periods.
fn slice_len(smoke: bool) -> Duration {
    install_period(smoke) * 2
}

fn medians(installs: &[InstallSample], f: impl Fn(&InstallSample) -> f64) -> f64 {
    stats::median(&installs.iter().map(f).collect::<Vec<_>>())
}

/// Prints the metric lines and the result object (the last line of
/// standard output). Returns whether the run was correct.
fn emit(spec: &Spec, metrics: &[Metric], ledger: &Ledger) -> bool {
    for m in metrics {
        println!("{} {} {} {}", spec.name, m.name, m.value, m.unit);
    }
    for note in &ledger.notes {
        println!("{} {note}", spec.name);
    }
    println!(
        "{} attempted_ops {} failed_ops {}",
        spec.name, ledger.attempted, ledger.failed
    );
    let doc = Json::Object(vec![
        ("correct".to_string(), Json::from(ledger.correct())),
        ("attempted".to_string(), Json::from(ledger.attempted.max(1))),
        ("failed".to_string(), Json::from(ledger.failed)),
        ("metrics".to_string(), metrics::to_json(metrics)),
    ]);
    println!("{}", doc.to_compact());
    ledger.correct()
}

/// One workload in this process: the untraced run (end-to-end metrics)
/// or the traced run (per-layer metrics).
fn run_one(spec: Spec, args: &Args) -> Result<bool, String> {
    println!("{}: {}", spec.name, spec.why);
    if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    }
}

fn run_untraced(spec: Spec, args: &Args) -> Result<bool, String> {
    let mut ledger = Ledger::default();
    let period = install_period(args.smoke);
    let slice = slice_len(args.smoke);

    // The run's seconds are split over SETUPS rounds, each on a set-up of
    // its own. That makes `setup_s` a median of several set-ups, and it
    // makes the window sample several memory placements: where the
    // allocator and the kernel happen to put the flow cache and the
    // frames moves a whole process's throughput by several percent, and
    // one placement per run would report that luck as the result.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut slices: Vec<f64> = Vec::new();
    let mut pass_ns_per_pkt: Vec<f64> = Vec::new();
    let mut quiet_installs: Vec<InstallSample> = Vec::new();
    let mut busy_installs: Vec<InstallSample> = Vec::new();
    let mut digest = None;
    let mut steady = None;
    for round in 0..SETUPS {
        // Never two regions at once: `rss_mb` is a peak.
        let mut setup = workload::set_up(spec, args.seed, args.smoke)?;
        setup_times.push(setup.timings.total_s);
        let expect = match digest {
            None => {
                println!(
                    "{}: {} flows, {} packets/pass, mean frame {:.1} B, {} VMs, {} routes",
                    spec.name,
                    spec.flows,
                    setup.sched.len(),
                    setup.mean_frame_bytes(),
                    setup.topology.vms.len(),
                    setup.topology.routes.len(),
                );
                if spec.service_tiers {
                    println!(
                        "{}: SNAT offload sealed: {} outbound events, {} entries, promoted at >= {} packets/pass",
                        spec.name, setup.snat.events, setup.snat.entries, setup.snat.promote_packets
                    );
                }
                *digest.insert(gate::correctness_gate(&setup, &mut ledger))
            }
            // Same seed, same inputs: later set-ups must decide alike.
            Some(d) => {
                gate::check_pass(&setup.cold, d, &mut ledger);
                d
            }
        };
        let win = window::run_window(
            &mut setup,
            args.seconds / SETUPS as f64,
            spec.churn.then_some(period),
            expect,
            None,
            &mut ledger,
        );
        gate::regime_guards(&setup, &win.last, &mut ledger);
        slices.extend(win.slice_mpps(slice));
        pass_ns_per_pkt.extend(win.pass_ns_per_pkt());
        busy_installs.extend(&win.installs);
        // `install_ms` comes from installs with nothing beside them, a few
        // after each window so the samples spread over the whole run.
        let which = round * QUIET_INSTALLS..(round + 1) * QUIET_INSTALLS;
        quiet_installs.extend(window::quiet_installs(
            &setup,
            which,
            &mut Recorder::with_capacity(0),
        ));
        steady = Some(win.last);
    }
    let steady = steady.ok_or("no round ran")?;
    let due = window::installs_in(args.seconds / SETUPS as f64, period) * SETUPS;
    window::account_installs(&quiet_installs, None, &mut ledger);
    window::account_installs(&busy_installs, spec.churn.then_some(due), &mut ledger);
    ledger.guard(!slices.is_empty(), || {
        format!(
            "{}: window too short for one {slice:?} throughput slice",
            spec.name
        )
    });

    let round2 = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    };
    println!("{}: set-ups {setup_times:?} s", spec.name);
    println!("{}: slice Mpps {:?}", spec.name, round2(&slices));
    let passes = Summary::of(&pass_ns_per_pkt);
    println!(
        "{}: {} passes, pass ns/pkt p50 {:.2} p{} {:.2}; hit ratio {:.5}",
        spec.name,
        passes.count,
        passes.p50,
        passes.tail_pct,
        passes.tail,
        gate::hit_ratio(&steady.counters),
    );
    for (what, installs) in [
        ("quiet, after each window", &quiet_installs),
        ("under traffic, due-time based", &busy_installs),
    ] {
        if installs.is_empty() {
            continue;
        }
        let ms: Vec<f64> = installs.iter().map(|i| i.install_ms).collect();
        let summary = Summary::of(&ms);
        println!(
            "{}: {} installs ({what}): install_ms p10 {:.3} p50 {:.3} p{} {:.3}, late_ms p50 {:.3}, build_ms p50 {:.3}; samples {:?}",
            spec.name,
            summary.count,
            window::install_ms(installs),
            summary.p50,
            summary.tail_pct,
            summary.tail,
            medians(installs, |i| i.late_ms),
            medians(installs, |i| i.build_ms),
            round2(&ms),
        );
    }

    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
    let metrics = catalogued(
        &names,
        &[
            ("fwd_mpps", window::fwd_mpps(&slices)),
            ("punt_share", gate::punt_share(&steady)),
            ("install_ms", window::install_ms(&quiet_installs)),
            ("rss_mb", layers::peak_rss_mib()),
            ("setup_s", stats::median(&setup_times)),
        ],
    )?;
    Ok(emit(&spec, &metrics, &ledger))
}

/// The traced run: shorter windows, spans recorded from this crate's
/// own code, a layer-by-layer replay pass, and the control-plane rows.
fn run_traced(spec: Spec, args: &Args) -> Result<bool, String> {
    let mut ledger = Ledger::default();
    let period = install_period(args.smoke);
    let mut setup = workload::set_up(spec, args.seed, args.smoke)?;
    let digest = gate::correctness_gate(&setup, &mut ledger);

    // Three windows share the run's seconds: a quiet untraced one (the
    // reference for overhead and for "stalled"), on `churn` an untraced
    // one with installs, and the traced one.
    let share = args.seconds * if spec.churn { 0.25 } else { 0.3 };
    let quiet = window::run_window(&mut setup, share, None, digest, None, &mut ledger);
    let busy_untraced: Option<Window> = spec.churn.then(|| {
        window::run_window(
            &mut setup,
            share * 1.5,
            Some(period),
            digest,
            None,
            &mut ledger,
        )
    });
    let mut worker_rec = Recorder::with_capacity(1 << 16);
    let mut controller_rec = Recorder::with_capacity(1 << 12);
    let traced = window::run_window(
        &mut setup,
        if spec.churn { share * 1.5 } else { share },
        spec.churn.then_some(period),
        digest,
        Some(Tracing {
            worker: &mut worker_rec,
            controller: &mut controller_rec,
        }),
        &mut ledger,
    );
    gate::regime_guards(&setup, &traced.last, &mut ledger);

    let replay = layers::replay(&setup, &mut worker_rec);
    let mpps_2w = layers::two_worker_mpps(&mut setup, args.seconds * 0.05);
    let state_mb = layers::epoch_state_mib(&setup);
    let quiet_installs = window::quiet_installs(&setup, 0..2 * QUIET_INSTALLS, &mut controller_rec);
    let busy_installs: Vec<InstallSample> = busy_untraced
        .iter()
        .flat_map(|w| w.installs.iter().copied())
        .chain(traced.installs.iter().copied())
        .collect();
    window::account_installs(&quiet_installs, None, &mut ledger);
    window::account_installs(&busy_installs, None, &mut ledger);
    // publish/visible are what an install costs *where it runs*: under
    // traffic on churn, quiet elsewhere.
    let install_path = if spec.churn {
        &busy_installs
    } else {
        &quiet_installs
    };
    let cluster = layers::cluster_ledger(args.seed, args.smoke).unwrap_or_else(|e| {
        println!("{}: cluster ledger skipped: {e}", spec.name);
        layers::ClusterLedger::default()
    });

    let reference = busy_untraced.as_ref().unwrap_or(&quiet);
    let per_pkt = |w: &Window| Summary::of(&w.pass_ns_per_pkt());
    let (quiet_p, ref_p, traced_p) = (per_pkt(&quiet), per_pkt(reference), per_pkt(&traced));
    let packets_traced = traced.pass_ns.len() as f64 * traced.pass_packets as f64;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let punts_per_pass = (traced.last.fallback_packets + traced.last.dpu_packets) as f64;
    let punts_traced = punts_per_pass * traced.pass_ns.len() as f64;
    let stalled = reference
        .pass_ns_per_pkt()
        .iter()
        .filter(|ns| **ns > 3.0 * quiet_p.p50)
        .count() as f64
        / ref_p.count.max(1) as f64;
    let recon = layers::reconcile(&replay, &traced.last, setup.config.batch_size, traced_p.p50);
    let c = &traced.last.counters;
    // p95 needs ten passes beyond it; with fewer, the best-supported
    // percentile stands in and the line below says which.
    let p95 = if traced_p.tail_pct >= 95.0 {
        stats::percentile_of(&traced.pass_ns_per_pkt(), 95.0)
    } else {
        traced_p.tail
    };
    println!(
        "{}: traced window {} passes (p95 row is p{}), reference {} passes, quiet {} passes; miss-side inputs from the {} pass; {} spans ({} dropped)",
        spec.name,
        traced_p.count,
        if traced_p.tail_pct >= 95.0 { 95.0 } else { traced_p.tail_pct },
        ref_p.count,
        quiet_p.count,
        if replay.steady_miss_inputs { "steady" } else { "cold" },
        worker_rec.spans().len() + controller_rec.spans().len(),
        worker_rec.dropped() + controller_rec.dropped(),
    );
    println!(
        "{}: reconciliation: measured {:.2} ns/pkt, sum(layer ns x count) {:.2} ns/pkt, unattributed {:.2} ns/pkt",
        spec.name, recon.measured_ns_per_pkt, recon.attributed_ns_per_pkt, recon.unattributed_ns_per_pkt
    );

    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    let values = [
        ("net.view_parse_ns", replay.view_parse.ns),
        ("net.owned_parse_ns", replay.owned_parse.ns),
        ("net.frame_errors", c.parse_errors as f64),
        ("cache.hit_ns", replay.cache_hit.ns),
        ("cache.miss_ns", replay.cache_miss.ns),
        ("cache.insert_evict_ns", replay.cache_insert.ns),
        ("cache.hit_ratio", gate::hit_ratio(c)),
        ("cache.resident_flows", setup.batch.cached_flows() as f64),
        ("cluster.directory_ecmp_ns", replay.directory_ecmp.ns),
        ("engine.walk_ns", replay.walk.ns),
        (
            "engine.route_lookups_per_walk",
            replay.route_lookups_per_walk,
        ),
        ("tables.route_lookup_ns", replay.route_lookup.ns),
        ("tables.vm_lookup_ns", replay.vm_lookup.ns),
        ("tables.vm_conflict_share", replay.vm_conflict_share),
        ("rewrite.apply_ns", replay.rewrite.ns),
        ("tier.place_ns", replay.tier_place.ns),
        (
            "tier.dpu_share",
            traced.last.dpu_packets as f64 / punts_per_pass.max(1.0),
        ),
        ("snat.offload_lookup_ns", replay.snat_lookup.ns),
        (
            "snat.offload_hit_share",
            c.snat_translations as f64 / c.punt_snat.max(1) as f64,
        ),
        ("snat.outbound_ns", setup.snat.outbound_ns),
        ("snat.rebalance_ms", setup.snat.rebalance_ms),
        ("x86.process_ns", replay.x86_process.ns),
        (
            "punt.finish_ns_per_punt",
            sum(&traced.finish_ns) / punts_traced.max(1.0),
        ),
        (
            "batch.execute_ns_per_pkt",
            sum(&traced.execute_ns) / packets_traced.max(1.0),
        ),
        (
            "batch.finish_ns_per_pkt",
            sum(&traced.finish_ns) / packets_traced.max(1.0),
        ),
        ("batch.pass_ns_per_pkt_p50", traced_p.p50),
        ("batch.pass_ns_per_pkt_p95", p95),
        (
            "batch.pass_iqr_rel",
            stats::iqr_rel(&traced.pass_ns_per_pkt()),
        ),
        (
            "batch.allocs_per_pkt",
            traced.execute_allocs as f64 / packets_traced.max(1.0),
        ),
        ("batch.mpps_2w", mpps_2w),
        (
            "batch.virtual_ns_per_pkt",
            traced.last.virtual_ns as f64 / traced.last.packets.max(1) as f64,
        ),
        (
            "batch.unattributed_ns_per_pkt",
            recon.unattributed_ns_per_pkt,
        ),
        ("epoch.pin_ns", replay.pin.ns),
        (
            "epoch.build_ms_quiet",
            medians(&quiet_installs, |i| i.build_ms),
        ),
        ("epoch.publish_us", medians(install_path, |i| i.publish_us)),
        ("epoch.visible_us", medians(install_path, |i| i.visible_us)),
        ("epoch.install_busy_ms", window::install_ms(&busy_installs)),
        (
            "epoch.quiet_mpps",
            window::fwd_mpps(&quiet.slice_mpps(slice_len(args.smoke))),
        ),
        ("epoch.stalled_pass_share", stalled),
        (
            "epoch.install_late_ms",
            medians(&busy_installs, |i| i.late_ms),
        ),
        (
            "epoch.violations",
            (quiet.epoch_violations + reference.epoch_violations + traced.epoch_violations) as f64,
        ),
        ("epoch.state_mb", state_mb),
        ("cluster.plan_split_ms", cluster.plan_split_ms),
        ("cluster.install_ms", cluster.install_ms),
        ("cluster.verify_reshard_ms", cluster.verify_reshard_ms),
        ("sim.topology_gen_s", setup.timings.topology_gen_s),
        ("sim.flows_gen_s", setup.timings.flows_gen_s),
        ("traffic.frames_emit_s", setup.timings.frames_emit_s),
        ("dataplane.build_s", setup.timings.dataplane_build_s),
        ("trace.overhead_rel", traced_p.p50 / ref_p.p50.max(1e-12)),
    ];
    let metrics = catalogued(&names, &values)?;
    ledger.guard(
        spec.name != "hot_path" || traced.execute_allocs == 0,
        || {
            format!(
                "hot_path: {} heap allocations inside execute, must be 0",
                traced.execute_allocs
            )
        },
    );

    worker_rec.absorb(controller_rec);
    write_trace(&args.out_dir, &spec, args, &worker_rec, &metrics, &recon)?;
    Ok(emit(&spec, &metrics, &ledger))
}

fn write_trace(
    dir: &Path,
    spec: &Spec,
    args: &Args,
    rec: &Recorder,
    metrics: &[Metric],
    recon: &layers::Reconciliation,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", spec.name));
    let doc = Json::Object(vec![
        ("workload".to_string(), Json::from(spec.name)),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("smoke".to_string(), Json::from(args.smoke)),
        (
            "reconciliation".to_string(),
            Json::Object(vec![
                (
                    "measured_ns_per_pkt".to_string(),
                    Json::Num(recon.measured_ns_per_pkt),
                ),
                (
                    "attributed_ns_per_pkt".to_string(),
                    Json::Num(recon.attributed_ns_per_pkt),
                ),
                (
                    "unattributed_ns_per_pkt".to_string(),
                    Json::Num(recon.unattributed_ns_per_pkt),
                ),
            ]),
        ),
        ("metrics".to_string(), metrics::to_json(metrics)),
        (
            "trace".to_string(),
            spans::to_json(rec.spans(), rec.dropped()),
        ),
    ]);
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}: wrote {}", spec.name, path.display());
    Ok(())
}

/// Every workload, each in a child process of its own, `--repeats`
/// times with consecutive seeds; with `--trace` each untraced run is
/// followed by its traced run. Results land in one file for `compare`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for spec in WORKLOADS {
        for repeat in 0..args.repeats.max(1) as u64 {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let seed = args.seed + repeat;
                let mut cmd = Command::new(&exe);
                cmd.args(["run", "--workload", spec.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&args.out_dir);
                if args.smoke {
                    cmd.arg("--smoke");
                }
                // `output` waits for the child and reaps it.
                let output = cmd
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", spec.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let last = lines.pop().unwrap_or("");
                for line in lines {
                    println!("{line}");
                }
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                let Ok(Json::Object(mut fields)) = Json::parse(last) else {
                    println!(
                        "{}: no result line (exit {:?})",
                        spec.name,
                        output.status.code()
                    );
                    all_correct = false;
                    continue;
                };
                all_correct &= output.status.success();
                fields.insert(0, ("trace".to_string(), Json::from(u64::from(trace))));
                fields.insert(0, ("seed".to_string(), Json::from(seed)));
                fields.insert(0, ("workload".to_string(), Json::from(spec.name)));
                runs.push(Json::Object(fields));
            }
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("results.json"));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let doc = Json::Object(vec![
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("smoke".to_string(), Json::from(args.smoke)),
        (
            "threads_available".to_string(),
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("runs".to_string(), Json::Array(runs)),
    ]);
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
