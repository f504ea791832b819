//! Fixed-work fleet benchmark for the DynaCut reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One process, one thread. A run boots 8-replica Redis fleets in one
//! simulated kernel each and drives them with a seeded closed-loop
//! client. Every run does a fixed amount of work — a number of rounds
//! per operation kind proportional to `--seconds` — never a set
//! duration, so fleet state that grows per operation is the same at the
//! end of every run. The workload's main driver does most of the work;
//! short tail doses of the other operation kinds, each on a fleet of its
//! own and spread through the run, make every metric measured on every
//! workload. Host times are scaled to a reference machine speed
//! (`speed.rs`); a table with sample counts goes to standard error.
//!
//! The last line of standard output is one JSON object: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`.

mod drive;
mod speed;
mod stats;
mod traffic;

use drive::{Driver, Op, Recorder, COUNTERS};
use stats::{median, quantile, ratio, result_line, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use traffic::Class;

/// Set-ups of the main driver per run, spread over the run; `setup_s`
/// is their median.
const SETUPS: u64 = 5;

/// The workloads, by the operation of their main driver.
const WORKLOADS: [(&str, Op); 4] = [
    ("serve", Op::Serve),
    ("churn", Op::Cycle),
    ("rollout", Op::Rollout),
    ("profile", Op::Identify),
];

/// Rounds per second of `--seconds` an operation kind runs, as the
/// workload's main driver or as a tail dose. Sized so that a run takes
/// about `--seconds` on a 2-vCPU 2.1 GHz VM; the counts, not the
/// duration, are what every run repeats.
fn rounds_per_second(op: Op, main: bool) -> u64 {
    match (op, main) {
        (Op::Serve, true) => 90,
        (Op::Cycle, true) => 17,
        (Op::Rollout, true) => 7,
        (Op::Identify, true) => 300,
        (Op::Serve, false) => 0,
        (Op::Cycle, false) => 7,
        (Op::Rollout, false) => 2,
        (Op::Identify, false) => 10,
    }
}

struct Args {
    main: Op,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: dynacut-perfbench --workload <serve|churn|rollout|profile> \
                     --seed <n> --seconds <1-60> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let &(_, main) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    Ok(Args {
        main,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process in MiB (`ru_maxrss`, the VmHWM).
fn rss_peak_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two timevals, then fourteen longs), `usage` is a
    // valid exclusive pointer for the call, and RUSAGE_SELF (0) only
    // writes that struct.
    let status = unsafe { getrusage(0, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss_kib as f64 / 1024.0
}

/// Sets up the workload's main fleet and records the (scaled) time it
/// took.
fn timed_setup(rec: &mut Recorder, setup_s: &mut Vec<f64>, args: &Args) -> Driver {
    rec.speed.update();
    let started = Instant::now();
    let driver = Driver::setup(args.main, true, args.seed);
    setup_s.push(
        rec.speed
            .scale(started.elapsed().as_secs_f64(), speed::SETUP),
    );
    driver
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rec = Recorder {
        trace: args.trace,
        ..Recorder::default()
    };

    let mut setup_s = Vec::new();
    let main = timed_setup(&mut rec, &mut setup_s, &args);
    let mut drivers = vec![main];
    for (tail, op) in [Op::Cycle, Op::Rollout, Op::Identify]
        .into_iter()
        .filter(|&op| op != args.main)
        .enumerate()
    {
        drivers.push(Driver::setup(
            op,
            false,
            args.seed.wrapping_add(1 + tail as u64),
        ));
    }

    // Tail rounds are spread evenly through the main driver's rounds, and
    // the extra set-ups through the run, so every metric samples the
    // machine over the whole run rather than in one stretch.
    let totals: Vec<u64> = drivers
        .iter()
        .enumerate()
        .map(|(index, driver)| rounds_per_second(driver.op(), index == 0) * args.seconds)
        .collect();
    let mut done = vec![0u64; drivers.len()];
    let steps: u64 = totals.iter().sum();
    let measured = Instant::now();
    for step in 0..steps {
        if step > 0 && step % steps.div_ceil(SETUPS) == 0 {
            drop(timed_setup(&mut rec, &mut setup_s, &args));
        }
        let next = (0..drivers.len())
            .filter(|&index| done[index] < totals[index])
            .min_by(|&a, &b| {
                let progress = |index: usize| (done[index] + 1) as f64 / totals[index] as f64;
                progress(a).total_cmp(&progress(b))
            })
            .expect("steps count every round");
        drivers[next].round(&mut rec);
        done[next] += 1;
    }
    for driver in drivers {
        driver.finish(&mut rec);
    }
    let run_s = measured.elapsed().as_secs_f64();

    let metrics = if args.trace {
        per_layer(&rec, run_s)
    } else {
        end_to_end(&rec, &setup_s)
    };
    let attempted = rec.requests + rec.rounds;
    eprint!("{}", metrics.table());
    println!(
        "{}",
        result_line(rec.mismatches == 0, attempted, rec.mismatches, &metrics)
    );
    ExitCode::SUCCESS
}

/// Main-driver requests per second of (scaled) serving time.
fn serve_rps(rec: &Recorder) -> f64 {
    ratio(rec.latency_ns.len() as f64, rec.serving_ns / 1e9)
}

/// Guest instructions retired per microsecond of (scaled) serving time.
fn guest_mips(rec: &Recorder) -> f64 {
    ratio(rec.serving_insns as f64, rec.serving_ns / 1e3)
}

fn end_to_end(rec: &Recorder, setup_s: &[f64]) -> Metrics {
    let attempted = (rec.requests + rec.rounds) as f64;
    let failed = (rec.mismatches + rec.failed_rounds) as f64;
    let mut m = Metrics::default();
    m.put_over("setup_s", median(setup_s), "s", setup_s.len());
    m.put("rss_peak_mb", rss_peak_mb(), "MiB");
    m.put("ok_share", 1.0 - failed / attempted, "ratio");
    let requests = rec.latency_ns.len();
    m.put_over("serve_rps", serve_rps(rec), "1/s", requests);
    m.put_over(
        "serve_us_p50",
        median(&rec.latency_ns) / 1e3,
        "us",
        requests,
    );
    m.put_over(
        "serve_us_p99",
        quantile(&rec.latency_ns, 0.99) / 1e3,
        "us",
        requests,
    );
    m.put_over("guest_mips", guest_mips(rec), "MIPS", requests);
    let cycles = rec.cycle_ns.len();
    m.put_over("cycle_ms_p50", median(&rec.cycle_ns) / 1e6, "ms", cycles);
    m.put_over(
        "cycle_ms_p90",
        quantile(&rec.cycle_ns, 0.9) / 1e6,
        "ms",
        cycles,
    );
    let windows = rec.freeze_ns.len();
    m.put_over("freeze_us_p50", median(&rec.freeze_ns) / 1e3, "us", windows);
    m.put_over(
        "freeze_us_p90",
        quantile(&rec.freeze_ns, 0.9) / 1e3,
        "us",
        windows,
    );
    let rollouts = rec.rollout_ns.len();
    m.put_over(
        "rollout_ms_p50",
        median(&rec.rollout_ns) / 1e6,
        "ms",
        rollouts,
    );
    let promotes = rec.promote_ns.len();
    m.put_over(
        "promote_us_p50",
        median(&rec.promote_ns) / 1e3,
        "us",
        promotes,
    );
    let rounds = rec.identify_ns.len();
    m.put_over(
        "identify_ms_p50",
        median(&rec.identify_ns) / 1e6,
        "ms",
        rounds,
    );
    m
}

fn per_layer(rec: &Recorder, run_s: f64) -> Metrics {
    let layer = &rec.layer;
    let counter = |name: &str| {
        let index = COUNTERS
            .iter()
            .position(|&c| c == name)
            .expect("counter is listed");
        layer.counters[index] as f64
    };
    let main_requests = rec.latency_ns.len() as f64;
    let phase_us = |phase: &str| {
        layer
            .phase_ns
            .get(phase)
            .map_or(0.0, |samples| median(samples) / 1e3)
    };
    let per_report_kib = |bytes: u64| ratio(bytes as f64, layer.group_reports as f64) / 1024.0;
    let mut m = Metrics::default();

    m.put("vm.connect_us_p50", median(&layer.connect_ns) / 1e3, "us");
    m.put("vm.request_us_p50", median(&layer.request_ns) / 1e3, "us");
    m.put("vm.close_us_p50", median(&layer.close_ns) / 1e3, "us");
    m.put(
        "vm.insns_per_request",
        ratio(rec.serving_insns as f64, main_requests),
        "count",
    );
    m.put("vm.pump_us", median(&layer.pump_ns) / 1e3, "us");
    m.put(
        "vm.idle_spin_insns",
        ratio(layer.spin_insns as f64, layer.pump_ns.len() as f64),
        "count",
    );
    m.put("bench.serve_us_p50", median(&rec.latency_ns) / 1e3, "us");
    m.put(
        "bench.serve_us_p99",
        quantile(&rec.latency_ns, 0.99) / 1e3,
        "us",
    );
    for class in Class::ALL {
        let samples = &layer.class_ns[class.index()];
        m.put(
            format!("class.{}_us_p50", class.name()),
            median(samples) / 1e3,
            "us",
        );
        m.put(
            format!("class.{}_us_p99", class.name()),
            quantile(samples, 0.99) / 1e3,
            "us",
        );
    }

    let hits = counter("block_cache.hits");
    m.put(
        "bcache.hit_ratio",
        ratio(hits, hits + counter("block_cache.misses")),
        "ratio",
    );
    m.put(
        "bcache.superblocks",
        counter("block_cache.superblocks"),
        "count",
    );
    m.put(
        "bcache.invalidations",
        counter("block_cache.invalidations"),
        "count",
    );
    m.put(
        "bcache.version_swaps",
        counter("block_cache.version_swaps"),
        "count",
    );
    m.put(
        "bcache.capacity_evictions",
        counter("block_cache.capacity_evictions"),
        "count",
    );
    m.put("sched.quanta", counter("sched.quanta"), "count");
    m.put("sched.preemptions", counter("sched.preemptions"), "count");
    m.put("sched.wakeups", counter("sched.wakeups"), "count");
    m.put("sched.boosts", counter("sched.boosts"), "count");
    m.put("sched.idle_ns", counter("sched.idle_ns"), "guest_ns");
    m.put("mem.vmas_per_replica", layer.vmas_per_replica, "count");
    m.put("mem.pages_per_replica", layer.pages_per_replica, "count");
    m.put("mem.cow_faults", layer.cow_faults as f64, "count");
    m.put("mem.shared_pages", layer.shared_pages_per_replica, "count");

    m.put("criu.pre_dump_us", phase_us("pre_dump"), "us");
    m.put("criu.freeze_us", phase_us("freeze"), "us");
    m.put("criu.dump_us", phase_us("dump"), "us");
    m.put("criu.restore_prepare_us", phase_us("restore_prepare"), "us");
    m.put("criu.restore_commit_us", phase_us("restore_commit"), "us");
    m.put("criu.baseline_store_us", phase_us("baseline_store"), "us");
    m.put("criu.frozen_kib", per_report_kib(layer.frozen_bytes), "KiB");
    m.put(
        "criu.prewritten_kib",
        per_report_kib(layer.prewritten_bytes),
        "KiB",
    );
    m.put("criu.stored_kib", per_report_kib(layer.stored_bytes), "KiB");
    m.put(
        "criu.restore_copied_kib",
        per_report_kib(layer.restore_copied_bytes),
        "KiB",
    );
    m.put("criu.image_kib", per_report_kib(layer.image_bytes), "KiB");
    m.put("criu.ckpt_store_len", layer.ckpt_store_len as f64, "count");
    m.put(
        "criu.store_unique_pages",
        layer.store_unique_pages as f64,
        "count",
    );
    m.put(
        "criu.dedup_ratio",
        ratio(
            layer.store_logical_bytes as f64,
            layer.store_unique_bytes as f64,
        ),
        "ratio",
    );

    m.put("core.image_edit_us", phase_us("image_edit"), "us");
    m.put("core.inject_us", phase_us("inject"), "us");
    m.put("core.injections", layer.injections as f64, "count");
    m.put("core.canary_cycle_us", median(&layer.canary_ns) / 1e3, "us");
    m.put("core.soak_us", median(&layer.soak_ns) / 1e3, "us");
    m.put("core.promote_wave_us", median(&layer.wave_ns) / 1e3, "us");
    m.put(
        "core.verifier_reports",
        layer.verifier_reports as f64,
        "count",
    );
    m.put(
        "obj.build_handler_us",
        median(&layer.build_handler_ns) / 1e3,
        "us",
    );

    m.put("trace.nudge_us", median(&layer.nudge_ns) / 1e3, "us");
    m.put("trace.log_blocks", median(&layer.log_blocks), "count");
    m.put(
        "trace.traced_insns_per_request",
        ratio(layer.traced_insns as f64, layer.traced_requests as f64),
        "count",
    );
    m.put(
        "analysis.cov_from_log_us",
        median(&layer.cov_ns) / 1e3,
        "us",
    );
    m.put("analysis.diff_us", median(&layer.diff_ns) / 1e3, "us");
    m.put(
        "analysis.feature_blocks",
        median(&layer.feature_blocks),
        "count",
    );

    m.put("bench.serve_rps", serve_rps(rec), "1/s");
    m.put("bench.speed_factor", rec.speed.median_factor(), "ratio");
    m.put("bench.run_s", run_s, "s");
    m
}
