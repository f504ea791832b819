//! Machine-speed normalisation of host times.
//!
//! The VMs this benchmark runs on change speed in regimes that last
//! seconds to tens of seconds: a fixed dispatch-bound loop takes from 1×
//! to 1.9× its fastest time, and a 10 s run can sit entirely in a slow
//! regime. Raw host times then differ by more between runs than any
//! bound a regression check could use.
//!
//! So the benchmark times a fixed probe of its own, a tiny
//! register-machine interpreter, at most every [`PROBE_EVERY`]. The
//! speed factor is `REFERENCE_NS / median(last PROBE_WINDOW probes)`,
//! above 1 when the machine runs faster than the reference. Every host
//! time is recorded as `raw × factor^k`, where `k` is how strongly that
//! kind of work follows the probe: the slope of log(run median) on
//! log(run factor), fitted per workload over 6–8 unscaled 10 s runs of
//! each workload on a 2-vCPU 2.1 GHz VM and averaged over the workloads
//! (the constants below, with the per-workload range). A time in
//! microseconds is thus "microseconds on a machine where the probe takes
//! [`REFERENCE_NS`]". The probe runs no code of the program under test,
//! so a change to the program cannot move it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Probe time the scaled times are expressed against: about the
/// probe's median on a 2-vCPU 2.1 GHz VM.
pub const REFERENCE_NS: f64 = 40_000.0;

/// Serving and profiling rounds (guest interpretation dominates):
/// measured slopes 0.93–1.99.
pub const SERVING: f64 = 1.25;

/// Customize cycles, their phases and handler builds: 0.41–1.21.
pub const CUSTOMIZE: f64 = 0.75;

/// Whole rollouts, their soak and promotion wave: 1.20–1.75.
pub const ROLLOUT: f64 = 1.5;

/// Promote windows (freeze, shared-image restore, commit): 1.02–3.02.
pub const PROMOTE: f64 = 2.0;

/// Fleet set-up (boot, warm-up, first cycle): 0.73–1.63.
pub const SETUP: f64 = 1.0;

/// Minimum host time between probes.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// Probes the scale factor is the median of.
const PROBE_WINDOW: usize = 9;

/// Dispatch steps of one probe.
const PROBE_STEPS: u64 = 20_000;

/// The probe's work: a tiny register-machine interpreter.
fn interpret() {
    const CODE: [u8; 16] = [0, 1, 2, 3, 0, 2, 1, 3, 4, 0, 1, 5, 2, 3, 4, 5];
    let mut regs = [1u64; 8];
    let mut mem = vec![0u64; 2048];
    let mut pc = 0usize;
    for step in 0..PROBE_STEPS {
        match CODE[pc & 15] {
            0 => regs[(step & 7) as usize] = regs[((step + 1) & 7) as usize].wrapping_add(step),
            1 => regs[2] ^= regs[3].rotate_left(7),
            2 => {
                let addr = (regs[4] as usize) & 2047;
                mem[addr] = mem[addr].wrapping_add(regs[1]);
            }
            3 => {
                regs[4] = regs[4]
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1)
            }
            4 => {
                if regs[2] & 1 == 0 {
                    pc = pc.wrapping_add(3);
                }
            }
            _ => regs[5] = mem[(regs[4] >> 7) as usize & 2047],
        }
        pc = pc.wrapping_add(1);
    }
    std::hint::black_box((&regs, &mem));
}

/// Host time of one probe in nanoseconds. An untimed pass first brings
/// the probe's code and data into cache, so the timed pass measures the
/// machine's speed, not how much of the cache the program just evicted.
fn probe() -> f64 {
    interpret();
    let started = Instant::now();
    interpret();
    started.elapsed().as_nanos() as f64
}

/// The current machine-speed scale factor.
#[derive(Debug)]
pub struct Speed {
    recent: VecDeque<f64>,
    last: Option<Instant>,
    factor: f64,
    factors: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed {
            recent: VecDeque::with_capacity(PROBE_WINDOW),
            last: None,
            factor: 1.0,
            factors: Vec::new(),
        }
    }
}

impl Speed {
    /// Probes the machine if the last probe is older than
    /// [`PROBE_EVERY`] and updates the factor.
    pub fn update(&mut self) {
        if self.last.is_some_and(|last| last.elapsed() < PROBE_EVERY) {
            return;
        }
        if self.recent.len() == PROBE_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(probe());
        self.last = Some(Instant::now());
        let window: Vec<f64> = self.recent.iter().copied().collect();
        self.factor = REFERENCE_NS / crate::stats::median(&window);
        self.factors.push(self.factor);
    }

    /// `ns` of host time of a kind with elasticity `k`, scaled to the
    /// reference machine.
    pub fn scale(&self, ns: f64, k: f64) -> f64 {
        ns * self.factor.powf(k)
    }

    /// The median factor over the run: above 1 on a machine (or in a
    /// regime) faster than the reference.
    pub fn median_factor(&self) -> f64 {
        crate::stats::median(&self.factors)
    }
}
