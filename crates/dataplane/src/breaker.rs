//! Per-tier circuit breakers for the degradation ladder.
//!
//! The punt meter protects a software tier from a sustained hardware-miss
//! storm, but a raw token bucket keeps charging the handoff cost for
//! every packet it rejects. The breaker wraps the meter with the classic
//! three-state machine: after enough *consecutive* meter rejections it
//! **opens** and sheds punts outright for a cool-down window, then probes
//! the meter again through a **half-open** trial phase before closing.
//! All transitions run on the worker's deterministic virtual clock, so
//! single-worker runs and replays are byte-identical.
//!
//! A worker runs one **named instance per protected tier** — the x86
//! fallback (`"x86"`) and the DPU middle tier (`"dpu"`) each get their
//! own meter, state machine, and stats, fully independent of each other
//! ([`PuntBreaker::named`]). Half-open trial packets that *are* admitted
//! drain the token bucket like any other punt; when a later trial in the
//! same probe cycle fails, the breaker credits those tokens back before
//! reopening, so a failed probe can never leave the bucket partially
//! drained across reopen cycles (which would make every subsequent probe
//! fail spuriously and latch the breaker open).

use sailfish_tables::meter::Meter;

/// Public view of the breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Punts flow through the meter normally.
    Closed,
    /// Punts are shed without consulting the meter.
    Open,
    /// A limited number of trial punts probe the meter.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// What the breaker decided for one punt attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The punt proceeds to the x86 tier.
    Admitted,
    /// The meter rejected the punt (breaker still closed/half-open).
    ShedMeter,
    /// The breaker was open: shed without consulting the meter.
    ShedOpen,
}

/// Breaker tuning. Defaults are generous enough that runs under the
/// default (effectively unlimited) punt meter never trip it.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive meter rejections that open the breaker.
    pub open_threshold: u32,
    /// Cool-down in virtual nanoseconds while open.
    pub open_ns: u64,
    /// Successful trials required to close again from half-open.
    pub half_open_trials: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            open_threshold: 32,
            open_ns: 5_000_000,
            half_open_trials: 8,
        }
    }
}

/// Lifetime transition counts, for reports and alert ordering checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/half-open → open transitions.
    pub opened: u64,
    /// Open → half-open transitions (cool-down expired).
    pub half_opened: u64,
    /// Half-open → closed transitions (trials succeeded).
    pub closed: u64,
    /// Punts shed while open.
    pub shed_open: u64,
    /// Punts rejected by the meter.
    pub shed_meter: u64,
}

impl BreakerStats {
    /// Accumulates another breaker's stats (worker merge).
    pub fn merge(&mut self, other: &BreakerStats) {
        self.opened += other.opened;
        self.half_opened += other.half_opened;
        self.closed += other.closed;
        self.shed_open += other.shed_open;
        self.shed_meter += other.shed_meter;
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open { until_ns: u64 },
    HalfOpen { remaining: u32 },
}

/// The token-bucket-backed three-state breaker guarding one tier's punt
/// path. Instances are named so a worker can run several side by side
/// (x86 fallback, DPU pool) with independent deterministic state.
#[derive(Debug)]
pub struct PuntBreaker {
    name: &'static str,
    meter: Meter,
    config: BreakerConfig,
    state: State,
    consecutive_rejects: u32,
    /// Bytes drained by admitted trials of the current half-open probe
    /// cycle; credited back to the meter if the cycle fails.
    half_open_drained: u64,
    stats: BreakerStats,
}

impl PuntBreaker {
    /// Creates a closed breaker over `meter` with the default name
    /// (`"x86"`, the historical single-instance punt path).
    pub fn new(meter: Meter, config: BreakerConfig) -> Self {
        Self::named("x86", meter, config)
    }

    /// Creates a closed breaker named `name` over `meter`. Each named
    /// instance carries its own meter, state machine, and stats.
    pub fn named(name: &'static str, meter: Meter, config: BreakerConfig) -> Self {
        PuntBreaker {
            name,
            meter,
            config,
            state: State::Closed,
            consecutive_rejects: 0,
            half_open_drained: 0,
            stats: BreakerStats::default(),
        }
    }

    /// The tier this breaker guards.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The current position.
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Lifetime transition and shed counts.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Decides one punt of `bytes` at virtual time `now_ns`.
    pub fn admit(&mut self, now_ns: u64, bytes: usize) -> Admission {
        if let State::Open { until_ns } = self.state {
            if now_ns < until_ns {
                self.stats.shed_open += 1;
                return Admission::ShedOpen;
            }
            // Cool-down over: probe the meter through trial punts.
            self.state = State::HalfOpen {
                remaining: self.config.half_open_trials.max(1),
            };
            self.stats.half_opened += 1;
        }

        if self.meter.offer(now_ns, bytes) {
            self.consecutive_rejects = 0;
            if let State::HalfOpen { remaining } = self.state {
                self.half_open_drained = self.half_open_drained.saturating_add(bytes as u64);
                let left = remaining.saturating_sub(1);
                if left == 0 {
                    self.state = State::Closed;
                    self.stats.closed += 1;
                    self.half_open_drained = 0;
                } else {
                    self.state = State::HalfOpen { remaining: left };
                }
            }
            return Admission::Admitted;
        }

        match self.state {
            State::HalfOpen { .. } => {
                // A failed trial reopens immediately. The cycle's earlier
                // admitted trials already drained the bucket; credit them
                // back so the failed probe leaves the meter exactly as it
                // found it — otherwise each reopen starts the next probe
                // with a shallower bucket and the breaker latches open.
                // The shed is attributed to the open transition (the
                // admission returned), not to the meter.
                self.meter.credit(self.half_open_drained);
                self.half_open_drained = 0;
                self.state = State::Open {
                    until_ns: now_ns + self.config.open_ns,
                };
                self.stats.opened += 1;
                self.stats.shed_open += 1;
                Admission::ShedOpen
            }
            State::Closed => {
                self.stats.shed_meter += 1;
                self.consecutive_rejects += 1;
                if self.consecutive_rejects >= self.config.open_threshold.max(1) {
                    self.state = State::Open {
                        until_ns: now_ns + self.config.open_ns,
                    };
                    self.stats.opened += 1;
                    self.consecutive_rejects = 0;
                }
                Admission::ShedMeter
            }
            State::Open { .. } => unreachable!("open state handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A meter so slow it rejects everything after the first byte-sized
    /// burst: 1 byte/s, 1-byte burst.
    fn starved() -> Meter {
        Meter::new(8, 1)
    }

    /// A meter that admits everything at these sizes.
    fn generous() -> Meter {
        Meter::new(400_000_000_000, 1 << 31)
    }

    fn config() -> BreakerConfig {
        BreakerConfig {
            open_threshold: 3,
            open_ns: 1_000,
            half_open_trials: 2,
        }
    }

    #[test]
    fn generous_meter_never_trips() {
        let mut b = PuntBreaker::new(generous(), config());
        for t in 0..1_000u64 {
            assert_eq!(b.admit(t, 1500), Admission::Admitted);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats(), BreakerStats::default());
    }

    #[test]
    fn consecutive_rejects_open_the_breaker() {
        let mut b = PuntBreaker::new(starved(), config());
        // First offer drains the 1-byte burst and is rejected for 1500B.
        assert_eq!(b.admit(0, 1500), Admission::ShedMeter);
        assert_eq!(b.admit(1, 1500), Admission::ShedMeter);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(2, 1500), Admission::ShedMeter);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().opened, 1);
        // While open, punts shed without touching the meter.
        assert_eq!(b.admit(3, 1500), Admission::ShedOpen);
        assert_eq!(b.stats().shed_open, 1);
    }

    #[test]
    fn half_open_probes_then_closes_on_success() {
        let mut b = PuntBreaker::new(generous(), config());
        // Force open by swapping in rejections: use a starved breaker to
        // reach Open, then advance time past the cool-down.
        let mut s = PuntBreaker::new(starved(), config());
        for t in 0..3u64 {
            s.admit(t, 1500);
        }
        assert_eq!(s.state(), BreakerState::Open);
        // After the cool-down the starved meter still rejects: the trial
        // fails and the breaker reopens.
        assert_eq!(s.admit(5_000, 1500), Admission::ShedOpen);
        assert_eq!(s.state(), BreakerState::Open);
        assert_eq!(s.stats().half_opened, 1);
        assert_eq!(s.stats().opened, 2);

        // With a generous meter the trials succeed and the breaker closes.
        for t in 0..3u64 {
            b.admit(t, 1500);
        }
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "generous meter stays closed"
        );
    }

    #[test]
    fn half_open_success_path_closes_after_trials() {
        // Meter with a burst big enough for exactly a few trial packets
        // after refill: 8000 bps = 1000 bytes/s, burst 3000 bytes.
        let meter = Meter::new(8_000, 3_000);
        let mut b = PuntBreaker::new(meter, config());
        // Drain the burst (2 admissions of 1500B), then three rejects.
        assert_eq!(b.admit(0, 1500), Admission::Admitted);
        assert_eq!(b.admit(0, 1500), Admission::Admitted);
        for _ in 0..3 {
            assert_eq!(b.admit(1, 1500), Admission::ShedMeter);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Wait long enough for the cool-down AND a full meter refill:
        // 4 seconds refills 4000 bytes, capped at the 3000-byte burst
        // (3 s would refill one token short after integer flooring).
        let later = 4_000_000_000u64;
        assert_eq!(b.admit(later, 1500), Admission::Admitted);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(later, 1500), Admission::Admitted);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().closed, 1);
        assert_eq!(b.stats().half_opened, 1);
    }

    #[test]
    fn named_instances_keep_independent_state() {
        let mut x86 = PuntBreaker::named("x86", generous(), config());
        let mut dpu = PuntBreaker::named("dpu", starved(), config());
        assert_eq!(x86.name(), "x86");
        assert_eq!(dpu.name(), "dpu");
        // Drive both on the same virtual clock: the starved tier opens,
        // the generous one never notices.
        for t in 0..8u64 {
            x86.admit(t, 1500);
            dpu.admit(t, 1500);
        }
        assert_eq!(x86.state(), BreakerState::Closed);
        assert_eq!(x86.stats(), BreakerStats::default());
        assert_eq!(dpu.state(), BreakerState::Open);
        assert!(dpu.stats().opened >= 1);
        // The default constructor keeps the historical x86 identity.
        assert_eq!(PuntBreaker::new(generous(), config()).name(), "x86");
    }

    #[test]
    fn failed_probe_refunds_the_trial_drain() {
        // 8 kbit/s = 1000 B/s, burst 3000 B, 3 trials: after a refill the
        // probe admits two 1500-byte trials (draining the bucket to zero)
        // and the third fails. The failed cycle must credit the 3000
        // drained bytes back, so the *next* probe cycle starts from the
        // same full bucket instead of failing instantly forever.
        let meter = Meter::new(8_000, 3_000);
        let mut b = PuntBreaker::new(
            meter,
            BreakerConfig {
                open_threshold: 1,
                open_ns: 1_000,
                half_open_trials: 3,
            },
        );
        assert_eq!(b.admit(0, 1500), Admission::Admitted);
        assert_eq!(b.admit(0, 1500), Admission::Admitted);
        assert_eq!(b.admit(0, 1500), Admission::ShedMeter);
        assert_eq!(b.state(), BreakerState::Open);

        // 4 s refills past the burst cap: the bucket is full again.
        let t1 = 4_000_000_000u64;
        assert_eq!(b.admit(t1, 1500), Admission::Admitted);
        assert_eq!(b.admit(t1, 1500), Admission::Admitted);
        // Third trial finds an empty bucket: the cycle fails and reopens,
        // crediting the 3000 bytes its first two trials drained.
        assert_eq!(b.admit(t1, 1500), Admission::ShedOpen);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().shed_open, 1, "failed probe sheds as open");

        // Immediately after the cool-down — with *no* meaningful refill
        // time elapsed — the next probe cycle sees the same full bucket
        // and makes identical progress. Without the refund it would
        // start 3000 bytes short and shed its first trial.
        let t2 = t1 + 1_000;
        assert_eq!(b.admit(t2, 1500), Admission::Admitted);
        assert_eq!(b.admit(t2, 1500), Admission::Admitted);
        assert_eq!(b.stats().half_opened, 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::HalfOpen.label(), "half_open");
    }
}
