//! The three workloads: their set-up, one measured pass, and the
//! program-traced pass that runs apart from the measured ones.
//!
//! Every call into a layer goes through [`Ctx::call`], which counts it
//! as an op, wraps it in a benchmark-side span and records an error as
//! a failed op; a failed correctness check marks the op it checks as
//! failed too.

use crate::digest::Digest;
use crate::fidelity;
use crate::spans::Spans;
use crate::stats::Clock;
use helm_core::autoplace::{self, Objective};
use helm_core::exec::RecordMode;
use helm_core::metrics::RunReport;
use helm_core::online::{
    run_cluster_mix_cached, run_cluster_mix_traced, AdmissionPolicy, CalibrationCache,
    ClusterReport, ClusterSpec, DeadlineSpec, PoissonArrivals, SchedulerKind,
};
use helm_core::placement::PlacementKind;
use helm_core::planner::{self, PlanReport, PlanSpace, PlanTarget, SearchBudget, TrafficSpec};
use helm_core::policy::Policy;
use helm_core::projection;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::trace::{validate_chrome_trace, Trace};
use helm_core::HelmError;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::time::SimDuration;
use std::collections::{BTreeMap, BTreeSet};
use workload::WorkloadSpec;

/// Worker threads any layer may use (the planner's probes, autoplace's
/// candidate evaluation): the benchmark host's core count.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Continuous-batching online cluster: event loop, EDF dispatch,
    /// admission and streaming stats do nearly all the work.
    ServeCont,
    /// Capacity planning: bound, probes, confirmations and cold
    /// calibration do the work.
    PlanLattice,
    /// Offline paper grid plus Table IV and placement search: the
    /// pipeline evaluator does the work; fidelity is measured here.
    OfflineGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeCont,
        Workload::PlanLattice,
        Workload::OfflineGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCont => "serve_cont",
            Workload::PlanLattice => "plan_lattice",
            Workload::OfflineGrid => "offline_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of the work; [`Scale::FULL`] is what the benchmark measures,
/// tests use smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Requests offered to the `serve_cont` cluster per pass.
    pub serve_requests: usize,
    /// Requests in the `serve_cont` program-traced pass.
    pub serve_traced_requests: usize,
    /// `planner::plan` calls per `plan_lattice` pass, one per traffic seed.
    pub plans_per_pass: usize,
    /// Requests of each `plan_lattice` traffic.
    pub plan_requests: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        serve_requests: 500_000,
        serve_traced_requests: 2_000,
        plans_per_pass: 36,
        plan_requests: 4_000,
    };
}

/// splitmix64: the benchmark's own generator, so its inputs do not
/// move when the program's RNG changes.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The request shape `helmsim serve` uses by default.
pub fn cli_workload() -> WorkloadSpec {
    WorkloadSpec::new(128, 21, 1)
}

/// Ops, failures and spans of one process.
pub struct Ctx {
    pub spans: Spans,
    /// Whether `simaudit` is forced on: audit ledgers are then checked.
    pub audited: bool,
    ops: u64,
    failed_ops: BTreeSet<u64>,
    failures: Vec<String>,
}

impl Ctx {
    pub fn new() -> Self {
        Ctx {
            spans: Spans::new(false),
            audited: false,
            ops: 0,
            failed_ops: BTreeSet::new(),
            failures: Vec::new(),
        }
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn failed(&self) -> u64 {
        self.failed_ops.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// One call into a layer, as an op inside a span named `name`.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.ops += 1;
        let span = self.spans.begin(name);
        let out = f();
        self.spans.end(span);
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                None
            }
        }
    }

    /// A correctness check on the most recent op's output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure against the most recent op.
    pub fn fail(&mut self, what: String) {
        self.failed_ops.insert(self.ops);
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }
}

/// Per-pass counts and program-reported host times, by metric name.
pub type Tally = BTreeMap<&'static str, f64>;

fn add(tally: &mut Tally, key: &'static str, v: f64) {
    *tally.entry(key).or_insert(0.0) += v;
}

/// What one pass produced.
pub struct PassOut {
    pub fingerprint: u64,
    pub tally: Tally,
    /// `(table4_dev_pct, headline_dev_pct)`, where the pass computes them.
    pub fidelity: Option<(f64, f64)>,
}

/// Servers and warm state built before the first pass.
#[allow(clippy::large_enum_variant)] // one per process
pub enum State {
    Serve {
        helm: Server,
        allcpu: Server,
        cache: CalibrationCache,
    },
    Plan {
        server: Server,
        space: PlanSpace,
        /// One server per plan template, for the calibration probe.
        templates: Vec<Server>,
    },
    Grid {
        /// The paper configurations that build, with their labels.
        grid: Vec<(String, Server)>,
        /// The runs the headline claims compare.
        headline: Vec<Server>,
    },
}

fn opt175(
    memory: HostMemoryConfig,
    placement: PlacementKind,
    batch: u32,
) -> (SystemConfig, ModelConfig, Policy) {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(batch);
    (SystemConfig::paper_platform(memory), model, policy)
}

fn build(
    ctx: &mut Ctx,
    tally: &mut Tally,
    cfg: (SystemConfig, ModelConfig, Policy),
) -> Option<Server> {
    add(tally, "server.builds", 1.0);
    let (system, model, policy) = cfg;
    ctx.call("server.new", || Server::new(system, model, policy))
}

// serve_cont: λ just under the mix's continuous-batching capacity.
const SERVE_LAMBDA: f64 = 0.18;
const SERVE_TIGHT_S: f64 = 200.0;
const SERVE_LOOSE_S: f64 = 1200.0;
const TIGHT_FRACTION: f64 = 0.3;

// plan_lattice.
const PLAN_LAMBDA: f64 = 0.72;
const PLAN_TIGHT_S: f64 = 240.0;
const PLAN_LOOSE_S: f64 = 1200.0;
const PLAN_TARGET: f64 = 0.97;
const PLAN_MAX_REPLICAS: usize = 12;
const PLAN_PROBE_REQUESTS: usize = 800;

// offline_grid.
const GRID_BATCHES: [u32; 4] = [1, 8, 32, 44];
const GRID_GEN_LEN: usize = 21;
/// Prompt lengths are drawn per configuration from this range. Host
/// time does not depend on them (the executor's step count is set by
/// the generation length), simulated results do.
const GRID_PROMPT_MIN: usize = 64;
const GRID_PROMPT_MAX: usize = 128;

fn grid_configs() -> Vec<(String, SystemConfig, ModelConfig, Policy)> {
    let mut out = Vec::new();
    for model in [ModelConfig::opt_30b(), ModelConfig::opt_175b()] {
        for memory in [
            HostMemoryConfig::dram(),
            HostMemoryConfig::nvdram(),
            HostMemoryConfig::memory_mode(),
            HostMemoryConfig::fsdax(),
            HostMemoryConfig::ssd(),
        ] {
            for placement in [
                PlacementKind::Baseline,
                PlacementKind::Helm,
                PlacementKind::AllCpu,
            ] {
                for compress in [false, true] {
                    for batch in GRID_BATCHES {
                        let policy = Policy::paper_default(&model, memory.kind())
                            .with_placement(placement)
                            .with_compression(compress)
                            .with_batch_size(batch);
                        let label = format!(
                            "{} {} {placement} c={compress} b={batch}",
                            model.name(),
                            memory.kind()
                        );
                        out.push((
                            label,
                            SystemConfig::paper_platform(memory.clone()),
                            model.clone(),
                            policy,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Builds every server the workload needs (and, for `serve_cont`,
/// fills the calibration cache). Returns `None` if a call failed.
pub fn setup(w: Workload, ctx: &mut Ctx, tally: &mut Tally) -> Option<State> {
    let workload = cli_workload();
    match w {
        Workload::ServeCont => {
            let helm = build(
                ctx,
                tally,
                opt175(HostMemoryConfig::nvdram(), PlacementKind::Helm, 4),
            )?;
            let allcpu = build(
                ctx,
                tally,
                opt175(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, 44),
            )?;
            let mut cache = CalibrationCache::new();
            for server in [&helm, &allcpu] {
                ctx.call("calib.get_or_calibrate", || {
                    cache.get_or_calibrate(server, &workload)
                })?;
            }
            add(tally, "calib.runs", cache.calibrations() as f64);
            Some(State::Serve {
                helm,
                allcpu,
                cache,
            })
        }
        Workload::PlanLattice => {
            let server = build(
                ctx,
                tally,
                opt175(HostMemoryConfig::nvdram(), PlacementKind::Helm, 8),
            )?;
            let mut space = ctx.call("planner.for_server", || {
                PlanSpace::for_server(&server, &workload)
            })?;
            space.max_replicas = PLAN_MAX_REPLICAS;
            space.probe_requests = PLAN_PROBE_REQUESTS;
            let mut templates = Vec::new();
            for t in space.templates.clone() {
                templates.push(build(
                    ctx,
                    tally,
                    opt175(HostMemoryConfig::nvdram(), t.placement, t.batch),
                )?);
            }
            Some(State::Plan {
                server,
                space,
                templates,
            })
        }
        Workload::OfflineGrid => {
            // A configuration that does not build is outside the grid,
            // not a failure: `Server::new` and the batch limit decide.
            let paper = WorkloadSpec::paper_default();
            let mut grid = Vec::new();
            for (label, system, model, policy) in grid_configs() {
                add(tally, "server.builds", 1.0);
                let span = ctx.spans.begin("server.new");
                let built = Server::new(system, model, policy);
                ctx.spans.end(span);
                if let Ok(server) = built {
                    if server.policy().effective_batch() <= server.max_batch(&paper) {
                        grid.push((label, server));
                    }
                }
            }
            let mut headline = Vec::new();
            for (memory, placement, batch) in fidelity::headline_configs() {
                headline.push(build(ctx, tally, opt175(memory, placement, batch))?);
            }
            add(tally, "grid.configs", grid.len() as f64);
            Some(State::Grid { grid, headline })
        }
    }
}

fn serve_spec(deadline_seed: u64) -> ClusterSpec {
    ClusterSpec::new(1)
        .with_scheduler(SchedulerKind::DeadlineAware)
        .with_admission(AdmissionPolicy::DeadlineFeasible)
        .with_deadlines(DeadlineSpec::Bimodal {
            tight: SimDuration::from_secs(SERVE_TIGHT_S),
            loose: SimDuration::from_secs(SERVE_LOOSE_S),
            tight_fraction: TIGHT_FRACTION,
            seed: deadline_seed,
        })
        .with_continuous(true)
        .with_record(RecordMode::Aggregate)
}

fn plan_traffic(traffic_seed: u64, requests: usize) -> TrafficSpec {
    TrafficSpec::new(PLAN_LAMBDA, requests, traffic_seed).with_deadlines(DeadlineSpec::Bimodal {
        tight: SimDuration::from_secs(PLAN_TIGHT_S),
        loose: SimDuration::from_secs(PLAN_LOOSE_S),
        tight_fraction: TIGHT_FRACTION,
        seed: traffic_seed,
    })
}

fn plan_budget() -> SearchBudget {
    SearchBudget {
        threads: THREADS,
        max_evals: 0,
    }
}

fn grid_prompt(seed: u64, i: usize) -> usize {
    let span = (GRID_PROMPT_MAX - GRID_PROMPT_MIN + 1) as u64;
    GRID_PROMPT_MIN + (derive(seed, 1000 + i as u64) % span) as usize
}

/// Checks every cluster run must pass, and its audit when audited.
fn check_cluster(ctx: &mut Ctx, report: &ClusterReport, offered: usize, what: &str) {
    ctx.check(report.offered() == offered as u64, || {
        format!(
            "{what}: served+rejected+expired {} != offered {offered}",
            report.offered()
        )
    });
    ctx.check(report.attribution.is_exact(), || {
        format!("{what}: attribution not exact")
    });
    if ctx.audited {
        match &report.audit {
            Some(audit) => {
                let completed = audit.completed_with_prefix("requests:");
                ctx.check(audit.is_clean(), || {
                    format!("{what}: audit violations {:?}", audit.violations)
                });
                ctx.check(completed == report.served, || {
                    format!(
                        "{what}: audit completed {completed} != served {}",
                        report.served
                    )
                });
            }
            None => ctx.fail(format!("{what}: audited run carries no audit report")),
        }
    }
}

fn check_run(ctx: &mut Ctx, report: &RunReport, what: &str) {
    ctx.check(
        report.totals.steps > 0 && report.totals.steps == report.records.len(),
        || {
            format!(
                "{what}: {} steps but {} records",
                report.totals.steps,
                report.records.len()
            )
        },
    );
    ctx.check(report.attribution.is_exact(), || {
        format!("{what}: attribution not exact")
    });
    if ctx.audited {
        match &report.audit {
            Some(audit) => ctx.check(audit.is_clean(), || {
                format!("{what}: audit violations {:?}", audit.violations)
            }),
            None => ctx.fail(format!("{what}: audited run carries no audit report")),
        }
    }
}

/// One measured pass over the workload's inputs for `seed`.
pub fn pass(state: &mut State, seed: u64, scale: Scale, ctx: &mut Ctx) -> PassOut {
    let mut digest = Digest::default();
    let mut tally = Tally::new();
    let mut fidelity = None;
    let workload = cli_workload();
    match state {
        State::Serve {
            helm,
            allcpu,
            cache,
        } => {
            let (arrival_seed, deadline_seed) = (derive(seed, 1), derive(seed, 2));
            let n = scale.serve_requests;
            if let Some(times) = ctx.call("traffic.take", || {
                Ok::<_, HelmError>(PoissonArrivals::new(SERVE_LAMBDA, arrival_seed).take(n))
            }) {
                ctx.check(
                    times.len() == n && times.windows(2).all(|p| p[0] < p[1]),
                    || "arrivals are not n strictly increasing instants".to_owned(),
                );
                digest.debug(&times.last());
            }
            let groups = [(&*helm, 2), (&*allcpu, 2)];
            let before = cache.calibrations();
            let report = ctx.call("online.run_cluster_mix_cached", || {
                run_cluster_mix_cached(
                    &groups,
                    &workload,
                    &mut PoissonArrivals::new(SERVE_LAMBDA, arrival_seed),
                    n,
                    serve_spec(deadline_seed),
                    cache,
                )
            });
            if let Some(report) = report {
                check_cluster(ctx, &report, n, "serve_cont");
                ctx.check(cache.calibrations() == before, || {
                    "the warm calibration cache recalibrated".to_owned()
                });
                digest.debug(&report);
                add(&mut tally, "simcore.events", report.events as f64);
                add(&mut tally, "online.offered", n as f64);
                add(&mut tally, "online.served", report.served as f64);
                add(&mut tally, "online.rejected", report.rejected as f64);
                add(&mut tally, "online.expired", report.expired as f64);
            }
        }
        State::Plan { server, space, .. } => {
            for k in 0..scale.plans_per_pass {
                let traffic = plan_traffic(derive(seed, 100 + k as u64), scale.plan_requests);
                let Some(report) = ctx.call("planner.plan", || {
                    planner::plan(
                        server,
                        &workload,
                        &traffic,
                        PlanTarget::attainment(PLAN_TARGET),
                        space,
                        plan_budget(),
                    )
                }) else {
                    continue;
                };
                ctx.check(report.feasible, || format!("plan {k}: infeasible"));
                check_cluster(
                    ctx,
                    &report.confirmed,
                    traffic.num_requests,
                    "plan confirmation",
                );
                ctx.check(report.calibrations == space.templates.len() as u64, || {
                    format!(
                        "plan {k}: {} calibrations for {} templates",
                        report.calibrations,
                        space.templates.len()
                    )
                });
                digest.plan_report(&report);
                add(&mut tally, "planner.candidates", report.candidates as f64);
                add(&mut tally, "planner.probes", report.stats.evaluated as f64);
                add(&mut tally, "planner.pruned", report.stats.pruned as f64);
                add(
                    &mut tally,
                    "planner.confirmations",
                    report.confirmations as f64,
                );
                add(
                    &mut tally,
                    "planner.confirm_s",
                    report.confirm_wall_ms * 1e-3,
                );
                add(&mut tally, "calib.runs", report.calibrations as f64);
                add(&mut tally, "simcore.events", report.confirmed.events as f64);
                add(
                    &mut tally,
                    "online.offered",
                    report.confirmed.offered() as f64,
                );
                add(&mut tally, "online.served", report.confirmed.served as f64);
                add(
                    &mut tally,
                    "online.rejected",
                    report.confirmed.rejected as f64,
                );
                add(
                    &mut tally,
                    "online.expired",
                    report.confirmed.expired as f64,
                );
            }
        }
        State::Grid { grid, headline } => {
            for (i, (label, server)) in grid.iter().enumerate() {
                let w = WorkloadSpec::new(grid_prompt(seed, i), GRID_GEN_LEN, 1);
                if let Some(mut report) = ctx.call("exec.server_run", || server.run(&w)) {
                    check_run(ctx, &report, label);
                    add(&mut tally, "exec.runs", 1.0);
                    add(&mut tally, "exec.steps", report.totals.steps as f64);
                    digest.debug(label);
                    digest.run_report(&mut report);
                }
            }
            let paper = WorkloadSpec::paper_default();
            let rows = ctx.call("projection.table_iv", || projection::table_iv(&paper));
            if let Some(rows) = &rows {
                ctx.check(rows.len() == 30, || {
                    format!("Table IV has {} rows, not 30", rows.len())
                });
                digest.debug(rows);
            }
            for memory in [
                HostMemoryConfig::nvdram(),
                HostMemoryConfig::dram(),
                HostMemoryConfig::memory_mode(),
            ] {
                let (system, model, _) = opt175(memory.clone(), PlacementKind::Baseline, 1);
                let policy = Policy::paper_default(&model, memory.kind()).with_compression(true);
                for objective in [Objective::Latency, Objective::Throughput] {
                    let Some(mut found) = ctx.call("autoplace.search", || {
                        autoplace::search(
                            &system,
                            &model,
                            &policy,
                            &paper,
                            objective,
                            plan_budget(),
                        )
                    }) else {
                        continue;
                    };
                    check_run(ctx, &found.report, "autoplace winner");
                    add(
                        &mut tally,
                        "autoplace.evaluated",
                        found.stats.evaluated as f64,
                    );
                    add(&mut tally, "autoplace.pruned", found.stats.pruned as f64);
                    digest.auto_placement(&mut found);
                }
            }
            let mut reports = Vec::with_capacity(headline.len());
            for server in headline.iter() {
                if let Some(mut report) = ctx.call("exec.server_run", || server.run(&paper)) {
                    check_run(ctx, &report, "headline run");
                    add(&mut tally, "exec.runs", 1.0);
                    add(&mut tally, "exec.steps", report.totals.steps as f64);
                    digest.run_report(&mut report);
                    reports.push(report);
                }
            }
            if let (Some(rows), Ok(reports)) = (rows, <[RunReport; 6]>::try_from(reports)) {
                match fidelity::table4_dev_pct(&rows) {
                    Ok(t4) => fidelity = Some((t4, fidelity::headline_dev_pct(&reports))),
                    Err(e) => ctx.fail(e),
                }
            }
        }
    }
    PassOut {
        fingerprint: digest.value(),
        tally,
        fidelity,
    }
}

/// Table IV and headline deviations, computed apart from any pass for
/// the workloads that do not run those layers.
pub fn fidelity_off_the_clock(ctx: &mut Ctx) -> Option<(f64, f64)> {
    let paper = WorkloadSpec::paper_default();
    let rows = ctx.call("projection.table_iv", || projection::table_iv(&paper))?;
    let mut reports = Vec::new();
    for (memory, placement, batch) in fidelity::headline_configs() {
        let (system, model, policy) = opt175(memory, placement, batch);
        reports.push(ctx.call("exec.server_run", || {
            Server::new(system, model, policy)?.run(&paper)
        })?);
    }
    let reports = <[RunReport; 6]>::try_from(reports).ok()?;
    match fidelity::table4_dev_pct(&rows) {
        Ok(t4) => Some((t4, fidelity::headline_dev_pct(&reports))),
        Err(e) => {
            ctx.fail(e);
            None
        }
    }
}

/// CPU seconds of one cold calibration of every plan template: what
/// each `planner::plan` call pays before probing. Median of `reps`.
pub fn plan_calibration_probe(state: &State, reps: usize, ctx: &mut Ctx) -> f64 {
    let State::Plan { templates, .. } = state else {
        return 0.0;
    };
    let workload = cli_workload();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut cache = CalibrationCache::new();
        let t = Clock::start();
        for server in templates {
            ctx.call("calib.get_or_calibrate", || {
                cache.get_or_calibrate(server, &workload)
            });
        }
        times.push(t.cpu_s());
    }
    crate::stats::median(&times)
}

/// Results of the program-traced pass.
#[derive(Debug, Default)]
pub struct ProgramTrace {
    /// Traced over untraced host time of the same runs.
    pub overhead_x: f64,
    pub spans: f64,
    pub export_s: f64,
    pub validate_s: f64,
}

/// Times `rounds` alternating untraced/traced runs of the same inputs,
/// checks the traced reports equal the untraced ones, then exports the
/// traces to chrome-trace JSON and validates them.
pub fn program_traced(
    state: &mut State,
    seed: u64,
    scale: Scale,
    rounds: usize,
    ctx: &mut Ctx,
) -> ProgramTrace {
    let workload = cli_workload();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    for _ in 0..rounds {
        let mut plain = Digest::default();
        let mut traced = Digest::default();
        traces.clear();
        let (t_plain, t_traced) = match state {
            State::Serve {
                helm,
                allcpu,
                cache,
            } => {
                let (arrival_seed, deadline_seed) = (derive(seed, 1), derive(seed, 2));
                let n = scale.serve_traced_requests;
                let groups = [(&*helm, 2), (&*allcpu, 2)];
                let t = Clock::start();
                let a = ctx.call("online.run_cluster_mix_cached", || {
                    run_cluster_mix_cached(
                        &groups,
                        &workload,
                        &mut PoissonArrivals::new(SERVE_LAMBDA, arrival_seed),
                        n,
                        serve_spec(deadline_seed),
                        cache,
                    )
                });
                let t_plain = t.cpu_s();
                let t = Clock::start();
                let b = ctx.call("online.run_cluster_mix_traced", || {
                    run_cluster_mix_traced(
                        &groups,
                        &workload,
                        &mut PoissonArrivals::new(SERVE_LAMBDA, arrival_seed),
                        n,
                        serve_spec(deadline_seed),
                        cache,
                    )
                });
                let t_traced = t.cpu_s();
                if let (Some(a), Some((b, trace))) = (a, b) {
                    check_cluster(ctx, &b, n, "traced serve_cont");
                    plain.debug(&a);
                    traced.debug(&b);
                    traces.push(trace);
                }
                (t_plain, t_traced)
            }
            State::Plan { server, space, .. } => {
                let traffic = plan_traffic(derive(seed, 100), scale.plan_requests);
                let Some(report) = ctx.call("planner.plan", || {
                    planner::plan(
                        server,
                        &workload,
                        &traffic,
                        PlanTarget::attainment(PLAN_TARGET),
                        space,
                        plan_budget(),
                    )
                }) else {
                    return ProgramTrace::default();
                };
                let (t_plain, replayed) =
                    replay_untraced(server, &workload, &traffic, space, &report, ctx);
                let t = Clock::start();
                let b = ctx.call("planner.replay_plan_traced", || {
                    planner::replay_plan_traced(server, &workload, &traffic, space, &report)
                });
                let t_traced = t.cpu_s();
                if let (Some(a), Some((b, trace))) = (replayed, b) {
                    let mut confirmed = Digest::default();
                    confirmed.debug(&report.confirmed);
                    plain.debug(&a);
                    ctx.check(plain == confirmed, || {
                        "untraced replay differs from the plan's confirmation".to_owned()
                    });
                    traced.debug(&b);
                    traces.push(trace);
                }
                (t_plain, t_traced)
            }
            State::Grid { headline, .. } => {
                let paper = WorkloadSpec::paper_default();
                let (mut t_plain, mut t_traced) = (0.0, 0.0);
                for server in headline.iter() {
                    let t = Clock::start();
                    let a = ctx.call("exec.server_run", || server.run(&paper));
                    t_plain += t.cpu_s();
                    let t = Clock::start();
                    let b = ctx.call("exec.server_run_traced", || server.run_traced(&paper));
                    t_traced += t.cpu_s();
                    if let (Some(mut a), Some((mut b, trace))) = (a, b) {
                        plain.run_report(&mut a);
                        traced.run_report(&mut b);
                        traces.push(trace);
                    }
                }
                (t_plain, t_traced)
            }
        };
        ctx.check(plain == traced, || "tracing changed a report".to_owned());
        plain_s.push(t_plain);
        traced_s.push(t_traced);
    }
    let mut out = ProgramTrace {
        overhead_x: crate::stats::median(&traced_s) / crate::stats::median(&plain_s),
        ..ProgramTrace::default()
    };
    for trace in &traces {
        out.spans += trace.span_count() as f64;
        let t = Clock::start();
        let json = ctx.call("trace.to_chrome_json", || {
            Ok::<_, HelmError>(trace.to_chrome_json())
        });
        out.export_s += t.cpu_s();
        let Some(json) = json else { continue };
        let t = Clock::start();
        let stats = ctx.call("trace.validate_chrome_trace", || {
            validate_chrome_trace(&json)
        });
        out.validate_s += t.cpu_s();
        if let Some(stats) = stats {
            ctx.check(stats.events == trace.span_count(), || {
                format!(
                    "chrome trace holds {} events for {} spans",
                    stats.events,
                    trace.span_count()
                )
            });
        }
    }
    out
}

/// Reruns a plan's chosen configuration untraced, exactly as
/// `planner::replay_plan_traced` does traced (fresh calibration cache
/// included), returning its host time and report.
fn replay_untraced(
    server: &Server,
    workload: &WorkloadSpec,
    traffic: &TrafficSpec,
    space: &PlanSpace,
    report: &PlanReport,
    ctx: &mut Ctx,
) -> (f64, Option<ClusterReport>) {
    let t = Clock::start();
    let mut servers = Vec::new();
    for (template, _) in &report.groups {
        match ctx.call("server.new", || {
            server.reconfigured(template.placement, template.batch)
        }) {
            Some(s) => servers.push(s),
            None => return (t.cpu_s(), None),
        }
    }
    let groups: Vec<(&Server, usize)> = servers
        .iter()
        .zip(&report.groups)
        .map(|(s, (_, n))| (s, *n))
        .collect();
    let spec = ClusterSpec::new(1)
        .with_scheduler(report.chosen.scheduler)
        .with_admission(report.chosen.admission)
        .with_deadlines(traffic.deadlines)
        .with_continuous(space.continuous)
        .with_granularity(space.granularity)
        .with_record(RecordMode::Aggregate);
    let out = ctx.call("online.run_cluster_mix_cached", || {
        run_cluster_mix_cached(
            &groups,
            workload,
            &mut PoissonArrivals::new(traffic.lambda, traffic.seed),
            traffic.num_requests,
            spec,
            &mut CalibrationCache::new(),
        )
    });
    (t.cpu_s(), out)
}
