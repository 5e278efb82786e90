//! The timed window: a closed-loop worker running passes back to back,
//! and — on `churn` — an open-loop controller thread issuing paced
//! epoch installs beside it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sailfish_dataplane::batch::BatchExecutor;
use sailfish_dataplane::executor::{Dataplane, DataplaneConfig};
use sailfish_dataplane::{EpochState, RunReport, WorldView};
use sailfish_sim::Topology;
use sailfish_xgw_x86::SoftwareForwarder;

use crate::alloc::thread_allocations;
use crate::gate::{check_pass, Ledger};
use crate::spans::{Recorder, SpanId};
use crate::stats;
use crate::workload::Setup;

/// Installs are paced, not back to back: on a 2-vCPU box back-to-back
/// installs are bimodal (the builder starves the worker, then the
/// worker starves the builder), which measures the scheduler.
pub const INSTALL_PERIOD: Duration = Duration::from_millis(500);
/// Install period under `--smoke` (default-topology builds take ms).
pub const SMOKE_INSTALL_PERIOD: Duration = Duration::from_millis(100);

/// One install, timed from when it was *due*.
#[derive(Debug, Clone, Copy)]
pub struct InstallSample {
    /// How late the controller started it, ms (generator lateness).
    pub late_ms: f64,
    /// `EpochState::build_with_world` + `tags_consistent`, ms.
    pub build_ms: f64,
    /// `Dataplane::publish`, µs.
    pub publish_us: f64,
    /// Publish return → first `pin()` showing the new epoch, µs.
    pub visible_us: f64,
    /// Due time → first `pin()` showing the new epoch, ms.
    pub install_ms: f64,
    /// Whether the staged state passed `tags_consistent` and became
    /// visible.
    pub ok: bool,
}

/// The degraded world of install `k`: odd installs lose one rotating
/// device, even installs are healthy, so every install really rebuilds
/// and no two consecutive epochs are equal.
fn world_of(k: usize, config: &DataplaneConfig) -> WorldView {
    let mut world = WorldView::healthy();
    if k % 2 == 1 {
        let n = k / 2;
        let cluster = n % config.clusters.max(1);
        let device = (n / config.clusters.max(1)) % config.devices_per_cluster.max(1);
        world.dead_devices.insert((cluster, device));
    }
    world
}

/// Runs install `k`, due at `due`: `next_epoch` → build → consistency
/// check → publish → poll `pin()` until the new epoch shows.
pub fn install_once(
    dp: &Dataplane,
    topology: &Topology,
    config: &DataplaneConfig,
    k: usize,
    due: Instant,
    rec: &mut Recorder,
) -> InstallSample {
    let root = rec.begin("install", None, k as u32);
    let started = Instant::now();
    let epoch = dp.next_epoch();
    let span = rec.begin("epoch.build", root, k as u32);
    let state = EpochState::build_with_world(topology, config, epoch, &world_of(k, config));
    let consistent = state.tags_consistent();
    rec.end(span);
    let build_ms = started.elapsed().as_secs_f64() * 1e3;
    if !consistent {
        rec.end(root);
        return InstallSample {
            late_ms: started.saturating_duration_since(due).as_secs_f64() * 1e3,
            build_ms,
            publish_us: 0.0,
            visible_us: 0.0,
            install_ms: 0.0,
            ok: false,
        };
    }
    let span = rec.begin("epoch.publish", root, k as u32);
    let t = Instant::now();
    dp.publish(state);
    let publish_us = t.elapsed().as_secs_f64() * 1e6;
    rec.end(span);
    let span = rec.begin("epoch.visible", root, k as u32);
    let t = Instant::now();
    // Bounded poll: a publish that never shows is a failed install.
    let mut visible = false;
    for _ in 0..1_000_000 {
        if dp.pin().epoch >= epoch {
            visible = true;
            break;
        }
        std::hint::spin_loop();
    }
    let visible_us = t.elapsed().as_secs_f64() * 1e6;
    rec.end(span);
    rec.end(root);
    InstallSample {
        late_ms: started.saturating_duration_since(due).as_secs_f64() * 1e3,
        build_ms,
        publish_us,
        visible_us,
        install_ms: due.elapsed().as_secs_f64() * 1e3,
        ok: visible,
    }
}

/// Span sinks of a traced window; `None` for the untraced run.
pub struct Tracing<'a> {
    /// The worker's recorder (pass → execute | finish).
    pub worker: &'a mut Recorder,
    /// The controller's recorder (install → build | publish | visible).
    pub controller: &'a mut Recorder,
}

/// What one timed window measured.
pub struct Window {
    /// Wall ns of each pass (`BatchExecutor::run`).
    pub pass_ns: Vec<f64>,
    /// Wall ns of each pass's `execute` (traced windows only).
    pub execute_ns: Vec<f64>,
    /// Wall ns of each pass's `finish` (traced windows only).
    pub finish_ns: Vec<f64>,
    /// Heap allocations the worker thread made inside `execute`.
    pub execute_allocs: u64,
    /// Packets per pass.
    pub pass_packets: u64,
    /// The last pass's report.
    pub last: RunReport,
    /// Sum of `epoch_violations` over every pass.
    pub epoch_violations: u64,
    /// Installs issued beside the window (empty without churn).
    pub installs: Vec<InstallSample>,
}

impl Window {
    /// Aggregate Mpps of each consecutive slice of at least `slice` wall
    /// time: packets of the passes in the slice ÷ their wall time, so a
    /// stalled pass (or an install beside it) lowers its slice. A last
    /// partial slice is left out.
    pub fn slice_mpps(&self, slice: Duration) -> Vec<f64> {
        let target = slice.as_nanos() as f64;
        let mut out = Vec::new();
        let (mut ns, mut passes) = (0.0f64, 0u64);
        for pass in &self.pass_ns {
            ns += pass;
            passes += 1;
            if ns >= target {
                out.push(passes as f64 * self.pass_packets as f64 / ns * 1e3);
                (ns, passes) = (0.0, 0);
            }
        }
        out
    }

    /// ns per packet of each pass.
    pub fn pass_ns_per_pkt(&self) -> Vec<f64> {
        let n = self.pass_packets.max(1) as f64;
        self.pass_ns.iter().map(|ns| ns / n).collect()
    }
}

/// `fwd_mpps`: the upper-decile slice. Aggregating inside a slice keeps
/// the program's own stalls and install interference in the figure
/// (every slice spans two install periods). Across slices the noise of a
/// shared box is one-sided — a neighbour only ever slows a slice, for
/// seconds at a time — so the decile on the side the noise cannot reach
/// repeats where the median and the whole-window aggregate do not, while
/// one lucky slice (the maximum) does not set the figure either.
pub fn fwd_mpps(slices: &[f64]) -> f64 {
    stats::percentile_of(slices, 90.0)
}

/// `install_ms`: the lower decile of due-time → visible latency over a
/// set of installs, for the same reason: interference from outside the
/// process only ever lengthens an install. 0 for an empty set.
pub fn install_ms(installs: &[InstallSample]) -> f64 {
    let ms: Vec<f64> = installs.iter().map(|i| i.install_ms).collect();
    stats::percentile_of(&ms, 10.0)
}

fn timed_pass(
    batch: &mut BatchExecutor,
    dp: &Dataplane,
    seq: &[&[u8]],
    fallback: &mut SoftwareForwarder,
    trace: Option<(&mut Recorder, u32)>,
    out: &mut Window,
) -> RunReport {
    match trace {
        None => {
            let t = Instant::now();
            let report = batch.run(dp, seq, fallback);
            out.pass_ns.push(t.elapsed().as_nanos() as f64);
            report
        }
        Some((rec, req)) => {
            let root: Option<SpanId> = rec.begin("pass", None, req);
            let span = rec.begin("batch.execute", root, req);
            let allocs = thread_allocations();
            batch.execute(dp, seq);
            out.execute_allocs += thread_allocations() - allocs;
            out.execute_ns.push(rec.end(span) as f64);
            let span = rec.begin("batch.finish", root, req);
            let report = batch.finish(seq, fallback);
            out.finish_ns.push(rec.end(span) as f64);
            out.pass_ns.push(rec.end(root) as f64);
            report
        }
    }
}

/// Runs passes back to back for `seconds` (closed loop: the next pass
/// starts when the previous returns). With an install `period`, a
/// controller thread issues one install per period, each timed from its
/// due time, and the worker keeps going until the last install is
/// visible so every install overlaps traffic.
pub fn run_window(
    setup: &mut Setup,
    seconds: f64,
    period: Option<Duration>,
    expect_digest: u64,
    mut tracing: Option<Tracing<'_>>,
    ledger: &mut Ledger,
) -> Window {
    let seq = setup.frames.sequence(&setup.sched);
    let (dp, topology, config) = (&setup.dp, &setup.topology, &setup.config);
    let (batch, fallback) = (&mut setup.batch, &mut setup.fallback);
    let mut out = Window {
        pass_ns: Vec::with_capacity(1 << 16),
        execute_ns: Vec::with_capacity(1 << 16),
        finish_ns: Vec::with_capacity(1 << 16),
        execute_allocs: 0,
        pass_packets: seq.len() as u64,
        last: setup.cold.clone(),
        epoch_violations: 0,
        installs: Vec::new(),
    };
    let window = Duration::from_secs_f64(seconds);
    let controller_done = AtomicBool::new(period.is_none());
    let (mut worker_rec, mut controller_rec) = match tracing.as_mut() {
        Some(t) => (Some(&mut *t.worker), Some(&mut *t.controller)),
        None => (None, None),
    };

    std::thread::scope(|scope| {
        let start = Instant::now();
        let controller = period.map(|period| {
            let done = &controller_done;
            let rec = controller_rec.take();
            scope.spawn(move || {
                let mut scratch = Recorder::with_capacity(0);
                let rec = rec.unwrap_or(&mut scratch);
                let mut samples = Vec::new();
                for k in 0..installs_in(seconds, period) {
                    let due = start + period * (k as u32 + 1);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    samples.push(install_once(dp, topology, config, k, due, rec));
                }
                done.store(true, Ordering::SeqCst);
                samples
            })
        });

        let mut req = 0u32;
        while start.elapsed() < window || !controller_done.load(Ordering::SeqCst) {
            let trace = worker_rec.as_deref_mut().map(|r| (r, req));
            let report = timed_pass(batch, dp, &seq, fallback, trace, &mut out);
            out.epoch_violations += report.counters.epoch_violations;
            check_pass(&report, expect_digest, ledger);
            out.last = report;
            req += 1;
        }
        if let Some(handle) = controller {
            match handle.join() {
                Ok(samples) => out.installs = samples,
                Err(_) => ledger.fail(1, || "install controller thread panicked".to_string()),
            }
        }
    });
    out
}

/// Installs `which` with no traffic beside them, each due the moment it
/// starts — the install path of workloads without churn. The range
/// numbers them across rounds, so the degraded worlds keep alternating.
pub fn quiet_installs(
    setup: &Setup,
    which: std::ops::Range<usize>,
    rec: &mut Recorder,
) -> Vec<InstallSample> {
    which
        .map(|k| {
            install_once(
                &setup.dp,
                &setup.topology,
                &setup.config,
                k,
                Instant::now(),
                rec,
            )
        })
        .collect()
}

/// Installs a window of `seconds` issues: one per `period`, each due
/// early enough to have a full period left inside the window.
pub fn installs_in(seconds: f64, period: Duration) -> usize {
    ((seconds / period.as_secs_f64()).floor() as usize).saturating_sub(1)
}

/// Counts installs into the ledger and, given how many the windows were
/// due to issue under traffic, applies the install guards.
pub fn account_installs(
    installs: &[InstallSample],
    due_under_traffic: Option<usize>,
    ledger: &mut Ledger,
) {
    ledger.attempted += installs.len() as u64;
    ledger.fail(installs.iter().filter(|i| !i.ok).count() as u64, || {
        "installs that failed tags_consistent or never became visible".to_string()
    });
    if let Some(expected) = due_under_traffic {
        ledger.guard(installs.len() >= expected.max(1), || {
            format!(
                "churn: {} installs became visible, {} were due",
                installs.len(),
                expected.max(1)
            )
        });
        let late = stats::median(&installs.iter().map(|i| i.late_ms).collect::<Vec<_>>());
        ledger.guard(late < 10.0, || {
            format!("churn: median install lateness {late:.3} ms >= 10 ms")
        });
    }
}
