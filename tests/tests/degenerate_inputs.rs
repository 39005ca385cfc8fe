//! Degenerate-input hardening: configurations that admit no
//! meaningful simulation must come back as typed
//! [`HelmError::InvalidConfig`] values or honest all-zero reports —
//! never a panic, never a NaN smuggled into a report field.
//!
//! Each test here is a regression pin for one edge that used to (or
//! plausibly could) assert, overflow or divide by zero: an empty
//! cluster mix, a replica count too large to allocate, a plan space
//! with nothing to search, an out-of-range attainment target, a
//! zero-request probe, a zero-request serve, and a zero-capacity
//! latency reservoir.

use helm_core::error::HelmError;
use helm_core::online::{
    run_cluster_mix_cached, CalibrationCache, ClusterSpec, PoissonArrivals, StepGranularity,
};
use helm_core::placement::PlacementKind;
use helm_core::planner::{plan, PlanSpace, PlanTarget, SearchBudget, TrafficSpec};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::rng::SimRng;
use simcore::stats::Reservoir;
use workload::WorkloadSpec;

fn small_server() -> Server {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(PlacementKind::Helm)
        .with_batch_size(2);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

fn assert_invalid_config(result: Result<impl std::fmt::Debug, HelmError>, what: &str) {
    match result {
        Err(HelmError::InvalidConfig(_)) => {}
        other => panic!("{what}: expected InvalidConfig, got {other:?}"),
    }
}

/// An empty cluster mix is a typed error, not an assert.
#[test]
fn empty_cluster_mix_is_a_typed_error() {
    let workload = WorkloadSpec::new(32, 3, 1);
    let mut arrivals = PoissonArrivals::new(1.0, 7);
    let result = run_cluster_mix_cached(
        &[],
        &workload,
        &mut arrivals,
        10,
        ClusterSpec::default(),
        &mut CalibrationCache::new(),
    );
    assert_invalid_config(result, "empty mix");
}

/// A replica count the engine cannot hold is a typed error, not a
/// capacity-overflow panic: one group of `usize::MAX` replicas, and two
/// groups whose counts overflow only when summed.
#[test]
fn huge_replica_counts_are_typed_errors() {
    let server = small_server();
    let workload = WorkloadSpec::new(32, 3, 1);
    let half = usize::MAX / 2 + 1;
    let mixes: [&[(&Server, usize)]; 2] = [
        &[(&server, usize::MAX)],
        &[(&server, half), (&server, half)],
    ];
    for groups in mixes {
        let mut arrivals = PoissonArrivals::new(1.0, 7);
        let result = run_cluster_mix_cached(
            groups,
            &workload,
            &mut arrivals,
            10,
            ClusterSpec::default(),
            &mut CalibrationCache::new(),
        );
        assert_invalid_config(result, "huge replica count");
    }
}

/// Every degenerate plan input comes back as `InvalidConfig`: an
/// empty template/scheduler/admission lattice, a zero replica cap, a
/// zero-request screening probe, a non-finite or non-positive arrival
/// rate, and traffic with no requests.
#[test]
fn degenerate_plan_inputs_are_typed_errors() {
    let server = small_server();
    let workload = WorkloadSpec::new(32, 3, 1);
    let traffic = TrafficSpec::new(1.0, 50, 7);
    let target = PlanTarget::attainment(0.9);
    let budget = SearchBudget::default();
    let space = PlanSpace::for_server(&server, &workload).expect("plan space");

    let mut no_templates = space.clone();
    no_templates.templates.clear();
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_templates, budget),
        "no templates",
    );

    let mut no_schedulers = space.clone();
    no_schedulers.schedulers.clear();
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_schedulers, budget),
        "no schedulers",
    );

    let mut no_admissions = space.clone();
    no_admissions.admissions.clear();
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_admissions, budget),
        "no admissions",
    );

    let mut no_replicas = space.clone();
    no_replicas.max_replicas = 0;
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_replicas, budget),
        "zero replica cap",
    );

    let mut no_probe = space.clone();
    no_probe.probe_requests = 0;
    assert_invalid_config(
        plan(&server, &workload, &traffic, target, &no_probe, budget),
        "zero probe requests",
    );

    for lambda in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let bad = TrafficSpec::new(lambda, 50, 7);
        assert_invalid_config(
            plan(&server, &workload, &bad, target, &space, budget),
            "bad lambda",
        );
    }

    let empty_traffic = TrafficSpec::new(1.0, 0, 7);
    assert_invalid_config(
        plan(&server, &workload, &empty_traffic, target, &space, budget),
        "zero requests",
    );
}

/// An attainment target outside `[0, 1]` is a typed error from the
/// checked constructor, never the assert of the unchecked one; the
/// closed interval's endpoints are accepted.
#[test]
fn out_of_range_plan_targets_are_typed_errors() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.1] {
        assert_invalid_config(PlanTarget::try_attainment(bad), &format!("target {bad}"));
    }
    for good in [0.0, 0.5, 1.0] {
        let target = PlanTarget::try_attainment(good).expect("in-range target");
        assert_eq!(target, PlanTarget::attainment(good));
    }
}

/// Serving zero requests yields an honest all-zero report: it
/// completes, and no field renders as NaN — percentiles, utilization,
/// throughput, and attribution fractions all come back as finite
/// zeros.
#[test]
fn zero_request_serve_reports_honest_zeros() {
    let server = small_server();
    let workload = WorkloadSpec::new(32, 3, 1);
    for granularity in [StepGranularity::PerStep, StepGranularity::Coalesced] {
        let spec = ClusterSpec::default().with_granularity(granularity);
        let mut arrivals = PoissonArrivals::new(1.0, 7);
        let report = run_cluster_mix_cached(
            &[(&server, 2)],
            &workload,
            &mut arrivals,
            0,
            spec,
            &mut CalibrationCache::new(),
        )
        .expect("zero-request run");
        let rendered = format!("{report:?}");
        assert!(
            !rendered.contains("NaN"),
            "zero-request report leaked a NaN: {rendered}"
        );
        assert!(report.attribution.is_exact());
        assert_eq!(report.attribution.total_ticks, 0);
        assert_eq!(report.attribution.queue_fraction(), 0.0);
        assert_eq!(report.attribution.compute_fraction(), 0.0);
        assert_eq!(report.attribution.transfer_fraction(), 0.0);
    }
}

/// A zero-capacity reservoir accepts (and discards) samples without
/// panicking, and reports `None` percentiles rather than fabricating
/// a number.
#[test]
fn zero_capacity_reservoir_degrades_honestly() {
    let rng = SimRng::from_seed_and_stream(7, "degenerate-reservoir");
    let mut r = Reservoir::new(0, rng);
    for x in 0..100 {
        r.add(f64::from(x));
    }
    assert_eq!(r.seen(), 100);
    assert!(r.samples().is_empty());
    assert_eq!(r.percentile(50.0), None);
    assert_eq!(r.percentile(99.0), None);
}
