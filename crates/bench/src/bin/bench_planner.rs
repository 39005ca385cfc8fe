//! Capacity-planner search benchmark: what the analytical bound and
//! the calibration cache each buy over a naive exhaustive scan of the
//! same candidate lattice.
//!
//! Three searches of one scenario — OPT-175B (compressed) on Optane
//! main memory, Poisson traffic against a fixed per-request SLO —
//! each returning a minimum-resource cluster configuration:
//!
//! 1. **exhaustive**: probe candidates level by level in lattice
//!    order with no bound, re-calibrating service models inside every
//!    probe (a fresh `CalibrationCache` per probe);
//! 2. **exhaustive+cache**: the same scan drawing service models from
//!    one shared [`CalibrationCache`];
//! 3. **planner**: [`helm_core::planner::plan`] — bound pruning +
//!    cache + first-confirmed early exit.
//!
//! Hard gates (the run errors, not warns):
//!
//! * the planner must land on the same minimum replica count as the
//!   exhaustive scan, and both must confirm feasible — pruning may
//!   not change the answer, only the cost of finding it;
//! * `exhaustive / planner` wall time must clear [`SPEEDUP_FLOOR`];
//! * the planner's report must be byte-identical across repeated runs
//!   (wall time zeroed first);
//! * the winner's full-length confirmation must meet the target with
//!   a clean conservation-audit ledger.
//!
//! Results land in `output/BENCH_planner.json`, with the cache and
//! pruning contributions reported separately.
//! `--quick` shrinks the lattice and request volume for CI smoke
//! runs.

use std::time::Instant;

use bench::section;
use helm_core::exec::RecordMode;
use helm_core::online::{
    run_cluster_mix_cached, AdmissionPolicy, CalibrationCache, ClusterSpec, DeadlineSpec,
    PoissonArrivals, SchedulerKind, StepGranularity,
};
use helm_core::planner::{plan, PlanReport, PlanSpace, PlanTarget, SearchBudget, TrafficSpec};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

/// Hard floor on `exhaustive / planner` wall time. The bound
/// and the calibration cache together measure orders of magnitude
/// above this; 2x is the regression line the planner must never drop
/// below.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Offered arrival rate, requests per second of simulated time.
const ARRIVAL_RATE: f64 = 0.06;

/// Per-request SLO. Sits at the feasibility knee of the scenario: one
/// replica cannot meet it, a three-replica mixed cluster can, so the
/// search has to climb levels and the bound has real work to do.
const SLO: SimDuration = SimDuration::from_millis_const(240_000.0);

/// Attainment target.
const TARGET: f64 = 0.9;

/// Arrival-process seed.
const SEED: u64 = 4242;

/// Outcome of one naive exhaustive scan.
struct NaiveOutcome {
    counts: Vec<usize>,
    scheduler: SchedulerKind,
    admission: AdmissionPolicy,
    probes: usize,
    attainment: f64,
    feasible: bool,
    wall_s: f64,
}

/// Every replica-count vector of length `templates` summing to
/// `total`, lexicographic — the same level enumeration the planner
/// schedules, re-derived here so the baseline shares its candidate
/// order without reaching into planner internals.
fn mixes_of(total: usize, templates: usize) -> Vec<Vec<usize>> {
    fn fill(out: &mut Vec<Vec<usize>>, current: &mut Vec<usize>, idx: usize, remaining: usize) {
        if idx + 1 == current.len() {
            current[idx] = remaining;
            out.push(current.clone());
            current[idx] = 0;
            return;
        }
        for take in 0..=remaining {
            current[idx] = take;
            fill(out, current, idx + 1, remaining - take);
        }
        current[idx] = 0;
    }
    let mut out = Vec::new();
    fill(&mut out, &mut vec![0usize; templates], 0, total);
    out
}

/// The naive baseline: walk the lattice cheapest level first in plain
/// enumeration order, probe every candidate (no bound), confirm the
/// first probe that clears the target — the planner's semantics with
/// all three perf layers stripped out. `cache` switches between cold
/// per-probe calibration and the shared memo.
fn naive_scan(
    servers: &[Server],
    workload: &WorkloadSpec,
    traffic: &TrafficSpec,
    space: &PlanSpace,
    mut cache: Option<&mut CalibrationCache>,
) -> Result<NaiveOutcome, Box<dyn std::error::Error>> {
    let started = Instant::now();
    let probe_n = space.probe_requests.min(traffic.num_requests);
    let mut probes = 0usize;
    let mut best: Option<(Vec<usize>, SchedulerKind, AdmissionPolicy, f64)> = None;
    let run = |counts: &[usize],
               scheduler: SchedulerKind,
               admission: AdmissionPolicy,
               n: usize,
               cache: &mut Option<&mut CalibrationCache>|
     -> Result<f64, Box<dyn std::error::Error>> {
        let groups: Vec<(&Server, usize)> = servers
            .iter()
            .zip(counts)
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s, c))
            .collect();
        let spec = ClusterSpec::default()
            .with_scheduler(scheduler)
            .with_admission(admission)
            .with_deadlines(traffic.deadlines)
            .with_record(RecordMode::Aggregate);
        let mut arrivals = PoissonArrivals::new(traffic.lambda, traffic.seed);
        let mut cold = CalibrationCache::new();
        let memo = cache.as_deref_mut().unwrap_or(&mut cold);
        let report = run_cluster_mix_cached(&groups, workload, &mut arrivals, n, spec, memo)?;
        Ok(report.slo_attainment())
    };
    for total in 1..=space.max_replicas {
        for counts in mixes_of(total, space.templates.len()) {
            for &scheduler in &space.schedulers {
                for &admission in &space.admissions {
                    probes += 1;
                    let probed = run(&counts, scheduler, admission, probe_n, &mut cache)?;
                    if best.as_ref().is_none_or(|(_, _, _, b)| probed > *b) {
                        best = Some((counts.clone(), scheduler, admission, probed));
                    }
                    if probed >= TARGET {
                        let confirmed = run(
                            &counts,
                            scheduler,
                            admission,
                            traffic.num_requests,
                            &mut cache,
                        )?;
                        if confirmed >= TARGET {
                            return Ok(NaiveOutcome {
                                counts,
                                scheduler,
                                admission,
                                probes,
                                attainment: confirmed,
                                feasible: true,
                                wall_s: started.elapsed().as_secs_f64(),
                            });
                        }
                    }
                }
            }
        }
    }
    let (counts, scheduler, admission, _) = best.ok_or("empty lattice")?;
    let attainment = run(
        &counts,
        scheduler,
        admission,
        traffic.num_requests,
        &mut cache,
    )?;
    Ok(NaiveOutcome {
        counts,
        scheduler,
        admission,
        probes,
        attainment,
        feasible: false,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Debug-renders a plan report with the wall clocks zeroed, for
/// bit-identity comparison across repeated runs and granularities.
fn fingerprint(report: &PlanReport) -> String {
    let mut clone = report.clone();
    clone.stats.wall_ms = 0.0;
    clone.confirm_wall_ms = 0.0;
    format!("{clone:?}")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    // Force conservation audits on in release so the confirmation
    // gate checks real ledgers, absorbing their cost in every
    // measured variant equally.
    simaudit::force_enable();

    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let policy = Policy::paper_default(&model, memory.kind()).with_compression(true);
    let server = Server::new(system, model.clone(), policy)?;

    let num_requests = if quick { 120 } else { 400 };
    let traffic =
        TrafficSpec::new(ARRIVAL_RATE, num_requests, SEED).with_deadlines(DeadlineSpec::Fixed(SLO));
    let mut space = PlanSpace::for_server(&server, &workload)?;
    space.max_replicas = if quick { 3 } else { 4 };
    space.probe_requests = 30;
    let target = PlanTarget::attainment(TARGET);
    let servers = space
        .templates
        .iter()
        .map(|t| server.reconfigured(t.placement, t.batch))
        .collect::<Result<Vec<_>, _>>()?;

    section("naive exhaustive scans (no bound)");
    let cold = naive_scan(&servers, &workload, &traffic, &space, None)?;
    let mut memo = CalibrationCache::new();
    let cached = naive_scan(&servers, &workload, &traffic, &space, Some(&mut memo))?;
    println!(
        "cold  : {} probes, {:.1} ms, feasible {} at {:?} ({}, {}), attainment {:.3}",
        cold.probes,
        cold.wall_s * 1000.0,
        cold.feasible,
        cold.counts,
        cold.scheduler,
        cold.admission,
        cold.attainment
    );
    println!(
        "cached: {} probes, {:.1} ms, {} calibration(s)",
        cached.probes,
        cached.wall_s * 1000.0,
        memo.calibrations()
    );

    section("planner (bound + cache + early exit)");
    let budget = SearchBudget::default();
    let serial = plan(&server, &workload, &traffic, target, &space, budget)?;
    let serial_again = plan(&server, &workload, &traffic, target, &space, budget)?;
    println!(
        "planner : {} probed + {} pruned of {} candidates, {:.1} ms, feasible {} at {:?} ({}, {})",
        serial.stats.evaluated,
        serial.stats.pruned,
        serial.candidates,
        serial.stats.wall_ms,
        serial.feasible,
        serial.chosen.counts,
        serial.chosen.scheduler,
        serial.chosen.admission
    );

    section("confirmation granularity (coalesced vs per-step)");
    let mut step_space = space.clone();
    step_space.granularity = StepGranularity::PerStep;
    let per_step = plan(&server, &workload, &traffic, target, &step_space, budget)?;
    println!(
        "coalesced: {:.1} ms in {} confirmation(s); per-step: {:.1} ms in {}",
        serial.confirm_wall_ms,
        serial.confirmations,
        per_step.confirm_wall_ms,
        per_step.confirmations
    );

    section("gates");
    if !serial.feasible || !cold.feasible {
        return Err(format!(
            "scenario must be feasible for both searches (planner {}, exhaustive {})",
            serial.feasible, cold.feasible
        )
        .into());
    }
    if serial.attainment < TARGET {
        return Err(format!(
            "winner misses the SLO target on confirmation: {:.3} < {TARGET}",
            serial.attainment
        )
        .into());
    }
    let total_naive: usize = cold.counts.iter().sum();
    if serial.chosen.total_replicas() != total_naive {
        return Err(format!(
            "pruning changed the answer: planner uses {} replicas, exhaustive {}",
            serial.chosen.total_replicas(),
            total_naive
        )
        .into());
    }
    let audit = serial
        .confirmed
        .audit
        .as_ref()
        .ok_or("auditing was forced on but the confirmation has no ledger")?;
    if !audit.is_clean() {
        return Err(format!("confirmation audit ledger dirty: {audit}").into());
    }
    let reference = fingerprint(&serial);
    if fingerprint(&serial_again) != reference {
        return Err("planner diverged across repeated serial runs".into());
    }
    if fingerprint(&per_step) != reference {
        return Err("planner diverged between per-step and coalesced granularity".into());
    }
    let serial_wall_s = serial.stats.wall_ms / 1000.0;
    let speedup_cache = cold.wall_s / cached.wall_s;
    let speedup_prune = cached.wall_s / serial_wall_s;
    let speedup_total = cold.wall_s / serial_wall_s;
    println!("speedup: cache {speedup_cache:.1}x, prune+exit {speedup_prune:.1}x, total {speedup_total:.1}x");
    if speedup_total < SPEEDUP_FLOOR {
        return Err(format!(
            "planner regressed: {speedup_total:.2}x over exhaustive is below the \
             {SPEEDUP_FLOOR}x floor"
        )
        .into());
    }
    println!("all gates passed");

    let slo_ms = SLO.as_millis();
    let json = format!(
        "{{\n  \"model\": \"{}\",\n  \"memory\": \"{}\",\n  \"lambda_per_s\": {ARRIVAL_RATE},\n  \
         \"num_requests\": {num_requests},\n  \"slo_ms\": {slo_ms},\n  \"target\": {TARGET},\n  \
         \"quick\": {quick},\n  \"lattice_candidates\": {},\n  \
         \"exhaustive\": {{\"probes\": {}, \"wall_ms\": {:.3}}},\n  \
         \"exhaustive_cached\": {{\"probes\": {}, \"wall_ms\": {:.3}, \"calibrations\": {}}},\n  \
         \"planner_serial\": {{\"evaluated\": {}, \"pruned\": {}, \"confirmations\": {}, \
         \"calibrations\": {}, \"wall_ms\": {:.3}, \"confirm_wall_ms\": {:.3}}},\n  \
         \"granularity\": {{\"coalesced_confirm_wall_ms\": {:.3}, \
         \"per_step_confirm_wall_ms\": {:.3}, \"report_identical\": true}},\n  \
         \"speedup\": {{\"cache\": {speedup_cache:.2}, \"prune\": {speedup_prune:.2}, \
         \"total\": {speedup_total:.2}, \
         \"floor\": {SPEEDUP_FLOOR}}},\n  \
         \"winner\": {{\"total_replicas\": {}, \"counts\": {:?}, \"scheduler\": \"{}\", \
         \"admission\": \"{}\", \"attainment\": {:.6}, \"feasible\": {}, \
         \"rerun_bit_identical\": true, \"audit_clean\": true}}\n}}\n",
        model.name(),
        memory.kind(),
        serial.candidates,
        cold.probes,
        cold.wall_s * 1000.0,
        cached.probes,
        cached.wall_s * 1000.0,
        memo.calibrations(),
        serial.stats.evaluated,
        serial.stats.pruned,
        serial.confirmations,
        serial.calibrations,
        serial.stats.wall_ms,
        serial.confirm_wall_ms,
        serial.confirm_wall_ms,
        per_step.confirm_wall_ms,
        serial.chosen.total_replicas(),
        serial.chosen.counts,
        serial.chosen.scheduler,
        serial.chosen.admission,
        serial.attainment,
        serial.feasible,
    );
    std::fs::create_dir_all("output")?;
    std::fs::write("output/BENCH_planner.json", &json)?;
    println!("\nwrote output/BENCH_planner.json");

    println!(
        "\nReading: the cache column is what memoizing calibration buys a search\n\
         that still probes everything; the prune column is what the analytical\n\
         bound plus minimum-resource early exit buy on top; their product is\n\
         the total floor-gated speedup. The replica-count gate is the real\n\
         claim — the bound only removes candidates it can prove infeasible, so\n\
         the cheap search and the exhaustive one land on the same minimum."
    );
    Ok(())
}
