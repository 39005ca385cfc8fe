//! Properties of the capacity planner: soundness of the analytical
//! attainment bound (bound-feasible ⊇ DES-feasible over random
//! traffic, mixes, schedulers, and admission policies), exactness of
//! the cluster engine's miss budget that cuts settled probes short,
//! repeated-run determinism of the search, and minimum-resource
//! correctness of the chosen configuration.

use helm_core::exec::RecordMode;
use helm_core::online::{
    run_cluster_mix_cached, AdmissionPolicy, CalibrationCache, ClusterSpec, DeadlineSpec,
    PoissonArrivals, SchedulerKind, ServiceModel, StepGranularity,
};
use helm_core::oracles::run_cluster_mix_budgeted;
use helm_core::placement::PlacementKind;
use helm_core::planner::{
    attainment_bound, plan, GroupTemplate, PlanReport, PlanSpace, PlanTarget, SearchBudget,
    TrafficSpec,
};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

/// The template lattice every test shares: a latency-, a throughput-,
/// and a baseline-shaped replica class of OPT-1.3B on DRAM (small
/// enough that calibration is cheap inside proptest).
const TEMPLATES: [(PlacementKind, u32); 3] = [
    (PlacementKind::Helm, 2),
    (PlacementKind::AllCpu, 4),
    (PlacementKind::Baseline, 1),
];

fn server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

/// Debug-renders a plan report with the wall clocks zeroed — the only
/// legitimately nondeterministic fields — so equality of the strings
/// is bit-identity of everything else (floats print as shortest
/// round-trip).
fn fingerprint(report: &PlanReport) -> String {
    let mut clone = report.clone();
    clone.stats.wall_ms = 0.0;
    clone.confirm_wall_ms = 0.0;
    format!("{clone:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exactness of the miss budget the planner cuts runs with: a run
    /// under budget `m` is cut exactly when the unbudgeted run ends
    /// with more than `m` unmet requests, and an uncut run's report is
    /// byte-identical to the unbudgeted one — over every scheduler,
    /// admission policy, batching mode and granularity. Half the
    /// budgets are drawn around the run's own unmet count, so both
    /// sides of the threshold come up.
    #[test]
    fn miss_budget_cuts_exactly_the_runs_it_can(
        load in 0.5f64..6.0,
        deadline_sel in 0u8..3,
        tight_x in 0.3f64..3.0,
        loose_x in 2.0f64..12.0,
        tight_fraction in 0.0..1.0f64,
        raw_counts in (0usize..=2, 0usize..=2, 0usize..=2),
        scheduler_sel in 0u8..4,
        admission_sel in 0u8..3,
        queue_cap in 1usize..=3,
        continuous in any::<bool>(),
        per_step in any::<bool>(),
        num_requests in 10usize..=40,
        seed in 0u64..100_000,
        near_threshold in any::<bool>(),
        raw_budget in 0u64..=12,
        offset in -3i64..=2,
    ) {
        let counts = match raw_counts {
            (0, 0, 0) => [0, 0, 1],
            (a, b, c) => [a, b, c],
        };
        let workload = WorkloadSpec::new(32, 3, 1);
        let servers: Vec<Server> = TEMPLATES.iter().map(|&(p, b)| server(p, b)).collect();
        let mut cache = CalibrationCache::new();
        // Arrival rate (per replica) and deadlines scale with the
        // slowest template's lone-request service time, so queues
        // build and deadlines bite: most runs end with unmet requests
        // to charge.
        let unit = servers
            .iter()
            .map(|s| cache.get_or_calibrate(s, &workload).unwrap().total(1).as_secs())
            .fold(0.0, f64::max);
        let replicas: usize = counts.iter().sum();
        let lambda = load * replicas as f64 / unit;
        let deadlines = match deadline_sel {
            0 => DeadlineSpec::None,
            1 => DeadlineSpec::Fixed(SimDuration::from_secs(unit * tight_x)),
            _ => DeadlineSpec::Bimodal {
                tight: SimDuration::from_secs(unit * tight_x),
                loose: SimDuration::from_secs(unit * loose_x),
                tight_fraction,
                seed,
            },
        };
        let scheduler = [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ][scheduler_sel as usize];
        let admission = match admission_sel {
            0 => AdmissionPolicy::AcceptAll,
            1 => AdmissionPolicy::QueueCap(queue_cap),
            _ => AdmissionPolicy::DeadlineFeasible,
        };
        let granularity = if per_step {
            StepGranularity::PerStep
        } else {
            StepGranularity::Coalesced
        };
        let groups: Vec<(&Server, usize)> = servers
            .iter()
            .zip(counts)
            .filter(|(_, c)| *c > 0)
            .collect();
        let spec = ClusterSpec::default()
            .with_scheduler(scheduler)
            .with_admission(admission)
            .with_deadlines(deadlines)
            .with_continuous(continuous)
            .with_granularity(granularity)
            .with_record(RecordMode::Aggregate);
        let full = run_cluster_mix_cached(
            &groups,
            &workload,
            &mut PoissonArrivals::new(lambda, seed),
            num_requests,
            spec,
            &mut cache,
        ).unwrap();
        let unmet = full.offered() - full.met;
        let budget = if near_threshold {
            unmet.saturating_add_signed(offset)
        } else {
            raw_budget
        };
        let budgeted = run_cluster_mix_budgeted(
            &groups,
            &workload,
            &mut PoissonArrivals::new(lambda, seed),
            num_requests,
            spec,
            &mut cache,
            budget,
        ).unwrap();
        let label = format!(
            "budget {budget}, unmet {unmet}: {scheduler} / {admission} / \
             continuous {continuous} / {granularity} / counts {counts:?}"
        );
        match budgeted {
            None => prop_assert!(unmet > budget, "cut a run that stays in budget ({label})"),
            Some(report) => {
                prop_assert!(unmet <= budget, "ran past the budget uncut ({label})");
                prop_assert_eq!(
                    format!("{report:?}"),
                    format!("{full:?}"),
                    "an uncut budgeted run diverged ({})",
                    label
                );
            }
        }
    }

    /// Soundness of the pruning bound: no scheduler, admission
    /// policy, batching mode, or mix can push the DES's attainment
    /// above [`attainment_bound`] for the same realized traffic — the
    /// property that makes pruning safe.
    #[test]
    fn bound_never_undercuts_the_des(
        load in 0.5f64..6.0,
        deadline_sel in 0u8..3,
        tight_x in 0.3f64..3.0,
        loose_x in 2.0f64..12.0,
        tight_fraction in 0.0..1.0f64,
        raw_counts in (0usize..=2, 0usize..=2, 0usize..=2),
        scheduler_sel in 0u8..4,
        admission_sel in 0u8..3,
        queue_cap in 1usize..=3,
        continuous in any::<bool>(),
        num_requests in 10usize..=40,
        seed in 0u64..100_000,
    ) {
        // An all-zero draw has no cluster to simulate; give it the
        // cheapest nonempty shape instead of discarding the case.
        let counts = match raw_counts {
            (0, 0, 0) => [0, 0, 1],
            (a, b, c) => [a, b, c],
        };
        let workload = WorkloadSpec::new(32, 3, 1);
        let servers: Vec<Server> = TEMPLATES.iter().map(|&(p, b)| server(p, b)).collect();
        let mut cache = CalibrationCache::new();
        let models: Vec<ServiceModel> = servers
            .iter()
            .map(|s| cache.get_or_calibrate(s, &workload).unwrap())
            .collect();
        // Arrival rate (per replica) and deadlines scale with the
        // slowest template's lone-request service time, so queues
        // build and deadlines bite: the bound falls below 1 and has
        // something to undercut.
        let unit = models
            .iter()
            .map(|m| m.total(1).as_secs())
            .fold(0.0, f64::max);
        let replicas: usize = counts.iter().sum();
        let lambda = load * replicas as f64 / unit;
        let deadlines = match deadline_sel {
            0 => DeadlineSpec::None,
            1 => DeadlineSpec::Fixed(SimDuration::from_secs(unit * tight_x)),
            _ => DeadlineSpec::Bimodal {
                tight: SimDuration::from_secs(unit * tight_x),
                loose: SimDuration::from_secs(unit * loose_x),
                tight_fraction,
                seed,
            },
        };
        let scheduler = [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ][scheduler_sel as usize];
        let admission = match admission_sel {
            0 => AdmissionPolicy::AcceptAll,
            1 => AdmissionPolicy::QueueCap(queue_cap),
            _ => AdmissionPolicy::DeadlineFeasible,
        };
        let groups: Vec<(&Server, usize)> = servers
            .iter()
            .zip(counts)
            .filter(|(_, c)| *c > 0)
            .collect();
        let spec = ClusterSpec::default()
            .with_scheduler(scheduler)
            .with_admission(admission)
            .with_deadlines(deadlines)
            .with_continuous(continuous)
            .with_record(RecordMode::Aggregate);
        let mut arrivals = PoissonArrivals::new(lambda, seed);
        let report = run_cluster_mix_cached(
            &groups, &workload, &mut arrivals, num_requests, spec, &mut cache,
        ).unwrap();
        let traffic = TrafficSpec::new(lambda, num_requests, seed).with_deadlines(deadlines);
        let model_groups: Vec<(&ServiceModel, usize)> =
            models.iter().zip(counts).collect();
        let bound = attainment_bound(&model_groups, &traffic, continuous);
        prop_assert!(
            report.slo_attainment() <= bound + 1e-9,
            "DES attainment {} exceeds the analytical bound {bound} \
             (scheduler {scheduler}, admission {admission}, continuous {continuous}, \
             counts {counts:?})",
            report.slo_attainment(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The planner's full report — chosen configuration, confirmation
    /// run, search statistics — is bit-identical across repeated
    /// runs.
    #[test]
    fn plan_is_thread_deterministic(
        lambda in 0.1f64..1.0,
        slo_ms in 1_000.0..30_000.0f64,
        seed in 0u64..10_000,
    ) {
        let workload = WorkloadSpec::new(32, 3, 1);
        let base = server(PlacementKind::Baseline, 1);
        let space = PlanSpace {
            templates: TEMPLATES
                .iter()
                .map(|&(p, b)| GroupTemplate::new(p, b))
                .collect(),
            max_replicas: 2,
            schedulers: vec![SchedulerKind::JoinShortestQueue, SchedulerKind::DeadlineAware],
            admissions: vec![AdmissionPolicy::AcceptAll, AdmissionPolicy::DeadlineFeasible],
            continuous: false,
            granularity: StepGranularity::default(),
            probe_requests: 8,
        };
        let traffic = TrafficSpec::new(lambda, 24, seed)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_millis(slo_ms)));
        let target = PlanTarget::attainment(0.8);
        let budget = SearchBudget { threads: 1, max_evals: 0 };
        let reference = fingerprint(
            &plan(&base, &workload, &traffic, target, &space, budget).unwrap(),
        );
        let repeat = fingerprint(
            &plan(&base, &workload, &traffic, target, &space, budget).unwrap(),
        );
        prop_assert_eq!(&repeat, &reference, "serial planner diverged across runs");
    }

    /// Step granularity is a pure perf knob: per-step and coalesced
    /// probes/confirmations drive the planner to byte-identical
    /// reports (wall clocks zeroed), in both batching modes.
    #[test]
    fn plan_is_granularity_invariant(
        lambda in 0.1f64..1.0,
        slo_ms in 1_000.0..30_000.0f64,
        continuous in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let workload = WorkloadSpec::new(32, 3, 1);
        let base = server(PlacementKind::Baseline, 1);
        let space = |granularity| PlanSpace {
            templates: TEMPLATES
                .iter()
                .map(|&(p, b)| GroupTemplate::new(p, b))
                .collect(),
            max_replicas: 2,
            schedulers: vec![SchedulerKind::JoinShortestQueue, SchedulerKind::DeadlineAware],
            admissions: vec![AdmissionPolicy::AcceptAll, AdmissionPolicy::DeadlineFeasible],
            continuous,
            granularity,
            probe_requests: 8,
        };
        let traffic = TrafficSpec::new(lambda, 24, seed)
            .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_millis(slo_ms)));
        let target = PlanTarget::attainment(0.8);
        let budget = SearchBudget { threads: 1, max_evals: 0 };
        let step = fingerprint(
            &plan(&base, &workload, &traffic, target, &space(StepGranularity::PerStep), budget)
                .unwrap(),
        );
        let coalesced = fingerprint(
            &plan(&base, &workload, &traffic, target, &space(StepGranularity::Coalesced), budget)
                .unwrap(),
        );
        prop_assert_eq!(&coalesced, &step, "granularity changed the plan report");
    }
}

/// A generously feasible scenario: the planner must return the
/// cheapest cluster (one replica), confirm it over the full traffic,
/// and calibrate each template exactly once for the whole search.
#[test]
fn planner_finds_minimal_feasible_cluster() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let base = server(PlacementKind::Baseline, 1);
    let space = PlanSpace {
        templates: TEMPLATES
            .iter()
            .map(|&(p, b)| GroupTemplate::new(p, b))
            .collect(),
        max_replicas: 3,
        schedulers: vec![
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
        ],
        admissions: vec![AdmissionPolicy::AcceptAll],
        continuous: false,
        granularity: StepGranularity::default(),
        probe_requests: 10,
    };
    let traffic = TrafficSpec::new(0.2, 30, 7)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_secs(120.0)));
    let report = plan(
        &base,
        &workload,
        &traffic,
        PlanTarget::attainment(0.9),
        &space,
        SearchBudget::default(),
    )
    .unwrap();
    assert!(report.feasible);
    assert!(report.attainment >= 0.9);
    assert_eq!(
        report.chosen.total_replicas(),
        1,
        "a single replica serves 0.2 req/s under a 120 s SLO; the planner must not overbuy"
    );
    assert_eq!(
        report.calibrations, 3,
        "one calibration per distinct template, shared across every probe"
    );
    assert_eq!(report.groups.len(), 1);
    assert!(report.stats.evaluated >= 1);
}

/// A deadline no replica can physically meet: the bound prunes the
/// entire lattice without one DES probe, and the planner still
/// returns an honest best-effort report (single fallback probe, full
/// confirmation, `feasible: false`) instead of erroring.
#[test]
fn plan_survives_unreachable_targets() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let base = server(PlacementKind::Baseline, 1);
    let space = PlanSpace {
        templates: TEMPLATES
            .iter()
            .map(|&(p, b)| GroupTemplate::new(p, b))
            .collect(),
        max_replicas: 2,
        schedulers: vec![SchedulerKind::JoinShortestQueue],
        admissions: vec![AdmissionPolicy::AcceptAll],
        continuous: false,
        granularity: StepGranularity::default(),
        probe_requests: 6,
    };
    let traffic = TrafficSpec::new(0.5, 20, 11)
        .with_deadlines(DeadlineSpec::Fixed(SimDuration::from_millis(1.0)));
    let report = plan(
        &base,
        &workload,
        &traffic,
        PlanTarget::attainment(0.9),
        &space,
        SearchBudget {
            threads: 1,
            max_evals: 0,
        },
    )
    .unwrap();
    assert!(!report.feasible);
    assert!(report.attainment < 0.9);
    assert_eq!(
        report.stats.pruned, report.candidates,
        "a 1 ms deadline is below any replica's minimum service time; \
         the bound must prune every candidate analytically"
    );
    assert_eq!(
        report.stats.evaluated, 1,
        "single best-bound fallback probe"
    );
    assert_eq!(report.confirmations, 1);
    assert!(!report.chosen.counts.is_empty());
}
