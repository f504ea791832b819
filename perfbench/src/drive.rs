//! Fleet drivers. A driver owns one freshly booted 8-replica Redis fleet
//! in one `Kernel`, the DynaCut session that customizes it, and the
//! round loop of one operation kind. Load comes from one closed-loop
//! client in this thread: each request is connect → request → close and
//! the next one starts only after it returns.

use crate::speed::{Speed, CUSTOMIZE, PROMOTE, ROLLOUT, SERVING};
use crate::traffic::{Class, Mix, Request, Traffic, KEYS, SERVE_MIX, WANTED_MIX};
use dynacut::{
    build_fault_handler, build_verifier_library, CustomizeReport, Downtime, DynaCut, EventKind,
    FaultPolicy, Feature, FleetOptions, Phase, RewritePlan, RolloutDecision, RolloutPlan,
};
use dynacut_analysis::{feature_blocks, CovGraph};
use dynacut_apps::redis;
use dynacut_bench::workloads::{boot_fleet, FleetWorkload};
use dynacut_trace::Tracer;
use dynacut_vm::{ClientConn, Kernel, ProcState};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Replicas per fleet.
pub const REPLICAS: usize = 8;

/// Guest-time budget of one request; a reply line not complete by then
/// fails the check.
const REQUEST_BUDGET_NS: u64 = 10_000_000;

/// Guest time of each idle pump that ends a round. A replica that saw
/// its last client close needs well under a microsecond to get back to
/// `accept`, so a fleet not quiescent after this is stuck.
const SETTLE_NS: u64 = 100_000;

/// Requests of the warm-up that follows the per-key seeding.
const WARM_REQUESTS: usize = 400;

/// The figures rollout experiment's pacing: 4 soak slices of 200 µs.
const ROLLOUT_PLAN: RolloutPlan = RolloutPlan {
    soak_slices: 4,
    serve_slice_ns: 200_000,
};

/// Kernel counters reported per layer, as deltas over the measured part
/// of the main driver.
pub const COUNTERS: [&str; 12] = [
    "insns_retired",
    "block_cache.hits",
    "block_cache.misses",
    "block_cache.superblocks",
    "block_cache.invalidations",
    "block_cache.version_swaps",
    "block_cache.capacity_evictions",
    "sched.quanta",
    "sched.preemptions",
    "sched.wakeups",
    "sched.boosts",
    "sched.idle_ns",
];

/// What one round of a driver does after (or instead of) its burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Serve a burst; nothing else.
    Serve,
    /// Serve a burst, then one `customize_fleet` that alternately
    /// enables and disables CONFIG.
    Cycle,
    /// Serve a burst, then one canary → soak → promote rollout that
    /// alternately disables and enables SETRANGE in verifier mode.
    Rollout,
    /// One profiling round: traced wanted phase, traced CONFIG phase,
    /// tracediff, feature.
    Identify,
}

impl Op {
    /// Requests served before the round's operation.
    fn burst(self) -> usize {
        match self {
            Op::Serve => 250,
            Op::Cycle | Op::Rollout => 24,
            Op::Identify => 32,
        }
    }

    fn mix(self) -> Mix {
        match self {
            Op::Serve | Op::Cycle | Op::Rollout => SERVE_MIX,
            Op::Identify => WANTED_MIX,
        }
    }
}

/// CONFIG requests in a profiling round's undesired phase.
const IDENTIFY_UNDESIRED: usize = 8;

/// Per-layer samples, collected in traced runs (and, where cheap, in
/// every run).
#[derive(Default)]
pub struct Layers {
    pub connect_ns: Vec<f64>,
    pub request_ns: Vec<f64>,
    pub close_ns: Vec<f64>,
    pub class_ns: [Vec<f64>; Class::ALL.len()],
    pub pump_ns: Vec<f64>,
    pub spin_insns: u64,
    pub counters: [u64; COUNTERS.len()],
    pub vmas_per_replica: f64,
    pub pages_per_replica: f64,
    pub shared_pages_per_replica: f64,
    pub cow_faults: u64,
    pub phase_ns: BTreeMap<&'static str, Vec<f64>>,
    pub group_reports: u64,
    pub frozen_bytes: u64,
    pub prewritten_bytes: u64,
    pub stored_bytes: u64,
    pub restore_copied_bytes: u64,
    pub image_bytes: u64,
    pub injections: u64,
    pub ckpt_store_len: u64,
    pub store_unique_pages: u64,
    pub store_logical_bytes: u64,
    pub store_unique_bytes: u64,
    pub canary_ns: Vec<f64>,
    pub soak_ns: Vec<f64>,
    pub wave_ns: Vec<f64>,
    pub verifier_reports: u64,
    pub build_handler_ns: Vec<f64>,
    pub nudge_ns: Vec<f64>,
    pub log_blocks: Vec<f64>,
    pub traced_insns: u64,
    pub traced_requests: u64,
    pub cov_ns: Vec<f64>,
    pub diff_ns: Vec<f64>,
    pub feature_blocks: Vec<f64>,
}

/// Everything a run measures.
#[derive(Default)]
pub struct Recorder {
    /// Time each serving call and build the handler libraries too (the
    /// per-layer run).
    pub trace: bool,
    pub requests: u64,
    pub mismatches: u64,
    pub rounds: u64,
    /// Rounds that left a replica not blocked in `accept`, rollouts that
    /// demoted, and profiling rounds that missed the CONFIG handler.
    pub failed_rounds: u64,
    /// Machine-speed scaling applied to every host time recorded.
    pub speed: Speed,
    pub latency_ns: Vec<f64>,
    /// Scaled host time spent inside serving calls of the main driver,
    /// and the guest instructions retired meanwhile.
    pub serving_ns: f64,
    pub serving_insns: u64,
    pub cycle_ns: Vec<f64>,
    pub freeze_ns: Vec<f64>,
    pub rollout_ns: Vec<f64>,
    pub promote_ns: Vec<f64>,
    pub identify_ns: Vec<f64>,
    pub layer: Layers,
}

impl Recorder {
    /// Host nanoseconds since `started` of work with elasticity `k`,
    /// scaled to the reference machine speed.
    fn since(&self, started: Instant, k: f64) -> f64 {
        self.span(started.elapsed(), k)
    }

    /// A host duration of work with elasticity `k`, scaled.
    fn span(&self, elapsed: Duration, k: f64) -> f64 {
        self.speed.scale(elapsed.as_nanos() as f64, k)
    }

    fn group_report(&mut self, report: &CustomizeReport) {
        for (phase, elapsed) in &report.phases {
            let ns = self.span(*elapsed, CUSTOMIZE);
            self.layer
                .phase_ns
                .entry(phase.name())
                .or_default()
                .push(ns);
        }
        let layer = &mut self.layer;
        layer.group_reports += 1;
        layer.frozen_bytes += report.frozen_page_bytes as u64;
        layer.prewritten_bytes += report.prewritten_page_bytes as u64;
        layer.stored_bytes += report.stored_page_bytes.unwrap_or(0) as u64;
        layer.restore_copied_bytes += report.restore_copied_bytes as u64;
        layer.image_bytes += report.image_bytes as u64;
        layer.injections += report.handler_bases.len() as u64;
    }
}

/// Sends one command and reads its reply line. A reply may arrive in
/// several writes (GET writes the value, then the newline), so the
/// client keeps pumping until the line is complete or the guest-time
/// budget runs out; an incomplete reply fails the check.
fn exchange(kernel: &mut Kernel, conn: ClientConn, command: &[u8]) -> Vec<u8> {
    let deadline = kernel.clock_ns() + REQUEST_BUDGET_NS;
    let mut reply = kernel
        .client_request(conn, command, REQUEST_BUDGET_NS)
        .expect("connection is open");
    while !reply.ends_with(b"\n") && kernel.clock_ns() < deadline {
        kernel.run_for(kernel.pump_chunk_ns().min(deadline - kernel.clock_ns()));
        reply.extend(kernel.client_recv(conn).expect("connection is known"));
    }
    reply
}

fn counter(kernel: &Kernel, name: &str) -> u64 {
    kernel.flight().metrics().counter(name)
}

/// One fleet and the round loop of one operation kind.
pub struct Driver {
    op: Op,
    /// The workload's main driver: serving samples and vm-layer samples
    /// come from it only.
    main: bool,
    fleet: FleetWorkload,
    session: DynaCut,
    tracer: Option<Tracer>,
    traffic: Traffic,
    /// CONFIG, redirected to the error reply while disabled.
    config: Feature,
    setrange: Feature,
    /// Whether the feature this driver toggles is currently disabled.
    disabled: bool,
    /// The connection of the last request served.
    last_conn: Option<ClientConn>,
    counters_at_start: [u64; COUNTERS.len()],
}

impl Driver {
    /// Boots the fleet and brings it to the steady state its rounds
    /// start from: every key stored on every replica, block caches warm,
    /// and for `Serve` and `Cycle` CONFIG disabled by one fleet cycle.
    ///
    /// # Panics
    ///
    /// Panics if the fleet gives a wrong reply or a customization fails
    /// before measuring starts.
    pub fn setup(op: Op, main: bool, seed: u64) -> Driver {
        let mut fleet = boot_fleet(REPLICAS);
        let tracer = (op == Op::Identify).then(|| {
            let tracer = Tracer::install(&mut fleet.kernel);
            for pid in fleet.pids() {
                tracer.track(&fleet.kernel, pid).expect("replica is live");
            }
            tracer
        });
        let session = DynaCut::new(fleet.registry.clone()).with_incremental();
        let config = Feature::from_function("CONFIG", &fleet.exe, "rd_cmd_config")
            .and_then(|f| f.redirect_to_function(&fleet.exe, redis::ERROR_HANDLER))
            .expect("redis has CONFIG and an error handler");
        let setrange = Feature::from_function("SETRANGE", &fleet.exe, "rd_cmd_setrange")
            .expect("redis has SETRANGE");
        let mut driver = Driver {
            op,
            main: false,
            fleet,
            session,
            tracer,
            traffic: Traffic::new(seed),
            config,
            setrange,
            disabled: false,
            last_conn: None,
            counters_at_start: [0; COUNTERS.len()],
        };
        let mut warm = Recorder::default();
        // Accepts rotate through the replicas, so REPLICAS consecutive
        // SETs of one key store it on (nearly) every replica: GETs hit.
        for key in 0..KEYS {
            for _ in 0..REPLICAS {
                let request = driver.traffic.request_on(Class::Set, key);
                driver.serve(&mut warm, &request);
            }
        }
        driver.burst(&mut warm, WARM_REQUESTS, |traffic| traffic.next(op.mix()));
        if matches!(op, Op::Serve | Op::Cycle) {
            driver.cycle(&mut warm);
        }
        driver.settle(&mut warm);
        assert_eq!(
            warm.mismatches + warm.failed_rounds,
            0,
            "fleet set-up failed"
        );
        if let Some(tracer) = &driver.tracer {
            tracer.nudge();
        }
        driver.main = main;
        driver.counters_at_start = driver.counters();
        driver
    }

    /// The operation this driver's rounds perform.
    pub fn op(&self) -> Op {
        self.op
    }

    fn counters(&self) -> [u64; COUNTERS.len()] {
        COUNTERS.map(|name| counter(&self.fleet.kernel, name))
    }

    /// Runs one round: the burst and operation of this driver's kind,
    /// then the idle pump and quiescence check.
    pub fn round(&mut self, rec: &mut Recorder) {
        rec.speed.update();
        let op = self.op;
        match op {
            Op::Identify => self.identify(rec),
            _ => self.burst(rec, op.burst(), |traffic| traffic.next(op.mix())),
        }
        match op {
            Op::Cycle => {
                let started = Instant::now();
                self.cycle(rec);
                rec.cycle_ns.push(rec.since(started, CUSTOMIZE));
            }
            Op::Rollout => self.rollout(rec),
            Op::Serve | Op::Identify => {}
        }
        self.settle(rec);
        rec.rounds += 1;
    }

    /// Serves one request on a fresh connection, checks the reply and
    /// returns the host time of connect → request → close.
    fn serve(&mut self, rec: &mut Recorder, request: &Request) -> f64 {
        let kernel = &mut self.fleet.kernel;
        let port = self.fleet.port;
        let started = Instant::now();
        let conn = kernel.client_connect(port).expect("fleet listens");
        let reply = if rec.trace && self.main {
            let connected = Instant::now();
            let reply = exchange(kernel, conn, &request.bytes);
            let answered = Instant::now();
            kernel.client_close(conn).expect("connection is known");
            let connect_ns = rec.span(connected - started, SERVING);
            let request_ns = rec.span(answered - connected, SERVING);
            let close_ns = rec.since(answered, SERVING);
            rec.layer.connect_ns.push(connect_ns);
            rec.layer.request_ns.push(request_ns);
            rec.layer.close_ns.push(close_ns);
            reply
        } else {
            let reply = exchange(kernel, conn, &request.bytes);
            kernel.client_close(conn).expect("connection is known");
            reply
        };
        let elapsed = rec.since(started, SERVING);
        self.last_conn = Some(conn);
        if rec.trace && self.main {
            rec.layer.class_ns[request.class.index()].push(elapsed);
        }
        rec.requests += 1;
        if !self.traffic.check(request, &reply) {
            rec.mismatches += 1;
        }
        elapsed
    }

    /// Serves `count` requests made by `make`; for the main driver,
    /// records their latency and the serving time and guest
    /// instructions that throughput and MIPS are computed from.
    fn burst(
        &mut self,
        rec: &mut Recorder,
        count: usize,
        mut make: impl FnMut(&mut Traffic) -> Request,
    ) {
        let insns_before = counter(&self.fleet.kernel, "insns_retired");
        let mut serving_ns = 0.0;
        for _ in 0..count {
            let request = make(&mut self.traffic);
            let elapsed = self.serve(rec, &request);
            serving_ns += elapsed;
            if self.main {
                rec.latency_ns.push(elapsed);
            }
        }
        let insns = counter(&self.fleet.kernel, "insns_retired") - insns_before;
        if self.tracer.is_some() {
            rec.layer.traced_insns += insns;
            rec.layer.traced_requests += count as u64;
        }
        if self.main {
            rec.serving_ns += serving_ns;
            rec.serving_insns += insns;
        }
    }

    /// One fleet cycle toggling CONFIG between disabled (redirect to the
    /// error reply) and enabled.
    fn cycle(&mut self, rec: &mut Recorder) {
        let plan = if self.disabled {
            RewritePlan::new().enable(self.config.clone())
        } else {
            RewritePlan::new().disable(self.config.clone())
        }
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
        let groups = self.fleet.groups.clone();
        let report = self
            .session
            .customize_fleet(
                &mut self.fleet.kernel,
                &groups,
                &plan,
                &FleetOptions::default(),
            )
            .expect("fleet cycle commits");
        self.disabled = !self.disabled;
        self.traffic.config_disabled = self.disabled;
        for group in report.procs.values() {
            let window = rec.span(group.freeze_window(), CUSTOMIZE);
            rec.freeze_ns.push(window);
            rec.group_report(group);
        }
        if rec.trace {
            // The redirect table the cycle's handler carries: every CONFIG
            // block to the error reply while disabled, nothing once enabled.
            let base = self.redis_base();
            let to = base + self.config.redirect_to.expect("CONFIG redirects");
            let table: Vec<(u64, u64)> = if self.disabled {
                self.config
                    .blocks
                    .iter()
                    .map(|b| (base + b.addr, to))
                    .collect()
            } else {
                Vec::new()
            };
            let started = Instant::now();
            build_fault_handler(&table).expect("handler links");
            let built = rec.since(started, CUSTOMIZE);
            rec.layer.build_handler_ns.push(built);
        }
    }

    /// Where replica 0 maps the redis binary.
    fn redis_base(&self) -> u64 {
        self.fleet
            .kernel
            .process(self.fleet.groups[0][0])
            .expect("replica 0 is live")
            .modules
            .iter()
            .find(|module| module.image.name == redis::MODULE)
            .expect("redis is mapped")
            .base
    }

    /// One canary → soak → promote rollout toggling SETRANGE in
    /// verifier mode, under the traffic the burst left behind: the fleet
    /// is not drained first.
    fn rollout(&mut self, rec: &mut Recorder) {
        let plan = if self.disabled {
            RewritePlan::new().enable(self.setrange.clone())
        } else {
            RewritePlan::new().disable(self.setrange.clone())
        }
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
        // The canary is the replica that served the last request: a
        // canary must see live traffic during its soak. The fleet is not
        // drained first, so that replica may still be reading its last
        // client's connection.
        let mut groups = self.fleet.groups.clone();
        let last = self.last_conn.expect("a burst precedes every rollout").0;
        if let Some(index) = groups.iter().position(|group| {
            group.iter().any(|&pid| {
                self.fleet
                    .kernel
                    .conn_ids_of(pid)
                    .is_ok_and(|ids| ids.contains(&last))
            })
        }) {
            groups[..=index].rotate_right(1);
        }
        let seq = self.fleet.kernel.flight().next_seq();
        let started = Instant::now();
        let report = self
            .session
            .rollout(&mut self.fleet.kernel, &groups, &plan, &ROLLOUT_PLAN)
            .expect("rollout decides");
        let wall = rec.since(started, ROLLOUT);
        rec.rollout_ns.push(wall);
        if report.decision == RolloutDecision::Promoted {
            self.disabled = !self.disabled;
        } else {
            rec.failed_rounds += 1;
        }
        for replica in &report.promoted {
            let window = rec.span(replica.freeze_window, PROMOTE);
            rec.promote_ns.push(window);
        }
        rec.group_report(&report.canary_report);
        let canary_ns = rec.span(report.canary_report.phase_total(), CUSTOMIZE);
        let soak_ns = self
            .fleet
            .kernel
            .flight()
            .since(seq)
            .find_map(|event| match event.kind {
                EventKind::PhaseEnd {
                    phase: Phase::Soak,
                    duration_ns,
                } => Some(rec.span(Duration::from_nanos(duration_ns), ROLLOUT)),
                _ => None,
            })
            .unwrap_or(0.0);
        let layer = &mut rec.layer;
        layer.canary_ns.push(canary_ns);
        layer.soak_ns.push(soak_ns);
        layer.wave_ns.push(wall - canary_ns - soak_ns);
        layer.verifier_reports += report.verifier_reports.len() as u64;
        if rec.trace {
            // The verifier table the rollout's library carries: every
            // SETRANGE block with its original first byte while disabled.
            let base = self.redis_base();
            let text = &self.fleet.exe.text;
            let originals: Vec<(u64, u8)> = if self.disabled {
                let blocks = self.setrange.blocks.iter();
                blocks
                    .map(|b| (base + b.addr, text[b.addr as usize]))
                    .collect()
            } else {
                Vec::new()
            };
            let started = Instant::now();
            build_verifier_library(&originals).expect("verifier links");
            let built = rec.since(started, CUSTOMIZE);
            rec.layer.build_handler_ns.push(built);
        }
    }

    /// One profiling round over the traced fleet: a wanted phase of
    /// ordinary traffic, a nudge, an undesired phase of CONFIG requests,
    /// a nudge, and the tracediff that must find the CONFIG handler.
    fn identify(&mut self, rec: &mut Recorder) {
        let started = Instant::now();
        self.burst(rec, Op::Identify.burst(), |traffic| {
            traffic.next(WANTED_MIX)
        });
        let tracer = self.tracer.clone().expect("profiling fleets are traced");
        let nudged = Instant::now();
        let wanted = tracer.nudge();
        let nudge = rec.since(nudged, SERVING);
        rec.layer.nudge_ns.push(nudge);
        self.burst(rec, IDENTIFY_UNDESIRED, |traffic| {
            traffic.request(Class::Config)
        });
        let nudged = Instant::now();
        let undesired = tracer.nudge();
        let nudge = rec.since(nudged, SERVING);
        rec.layer.nudge_ns.push(nudge);
        let built = Instant::now();
        let wanted_graph = CovGraph::from_log(&wanted);
        let undesired_graph = CovGraph::from_log(&undesired);
        let cov = rec.since(built, SERVING) / 2.0;
        rec.layer.cov_ns.push(cov);
        let diffed = Instant::now();
        let diff = feature_blocks(&undesired_graph, &wanted_graph).retain_modules(&[redis::MODULE]);
        let feature = Feature::from_cov_graph("CONFIG", redis::MODULE, &diff);
        let diff_ns = rec.since(diffed, SERVING);
        rec.layer.diff_ns.push(diff_ns);
        let round = rec.since(started, SERVING);
        rec.identify_ns.push(round);
        let entry = self.config.entry_block().expect("CONFIG has blocks");
        if !feature.blocks.contains(&entry) {
            rec.failed_rounds += 1;
        }
        rec.layer.log_blocks.push(wanted.block_count() as f64);
        rec.layer.feature_blocks.push(feature.blocks.len() as f64);
    }

    /// Ends a round. No client is open, so after one pump that lets the
    /// last server see its client's close, a second idle pump must
    /// retire no instructions and leave every replica blocked in
    /// `accept`; what it retires is spin.
    fn settle(&mut self, rec: &mut Recorder) {
        let kernel = &mut self.fleet.kernel;
        kernel.run_for(SETTLE_NS);
        let insns_before = counter(kernel, "insns_retired");
        let started = Instant::now();
        kernel.run_for(SETTLE_NS);
        let elapsed = rec.since(started, SERVING);
        let spin = counter(kernel, "insns_retired") - insns_before;
        let settled = self.fleet.groups.iter().flatten().all(|&pid| {
            kernel.process(pid).is_ok_and(|proc| {
                matches!(proc.state, ProcState::Blocked(reason) if format!("{reason:?}").starts_with("Accept"))
            })
        });
        if !settled {
            rec.failed_rounds += 1;
        }
        if self.main {
            rec.layer.pump_ns.push(elapsed);
            rec.layer.spin_insns += spin;
        }
    }

    /// Folds the fleet's end state into the recorder: kernel counters
    /// and memory shape for the main driver, checkpoint-store shape for
    /// every driver.
    pub fn finish(self, rec: &mut Recorder) {
        let store = self.session.store();
        let pages = store.page_store();
        let layer = &mut rec.layer;
        layer.ckpt_store_len += store.len() as u64;
        layer.store_unique_pages += pages.unique_pages() as u64;
        layer.store_logical_bytes += pages.logical_bytes() as u64;
        layer.store_unique_bytes += pages.unique_bytes() as u64;
        if !self.main {
            return;
        }
        let now = self.counters();
        for (index, value) in now.iter().enumerate() {
            layer.counters[index] = value - self.counters_at_start[index];
        }
        let kernel = &self.fleet.kernel;
        let procs: Vec<_> = self
            .fleet
            .groups
            .iter()
            .flatten()
            .map(|&pid| kernel.process(pid).expect("replica is live"))
            .collect();
        let per_replica = |f: &dyn Fn(&dynacut_vm::Process) -> usize| {
            procs.iter().map(|proc| f(proc) as f64).sum::<f64>() / procs.len() as f64
        };
        layer.vmas_per_replica = per_replica(&|proc| proc.mem.vmas().len());
        layer.pages_per_replica = per_replica(&|proc| proc.mem.populated_page_count());
        layer.shared_pages_per_replica = per_replica(&|proc| proc.mem.shared_page_count());
        layer.cow_faults = procs.iter().map(|proc| proc.mem.cow_fault_count()).sum();
    }
}
