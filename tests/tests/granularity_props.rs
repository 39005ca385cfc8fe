//! Byte-identity of the coalesced (macro-stepped) cluster DES against
//! the per-step backend: across schedulers, admission policies,
//! heterogeneous mixes, deadline regimes, batching modes, and both
//! recording modes, the two granularities must produce the *same*
//! `ClusterReport` byte for byte — coalescing is a perf knob, never a
//! semantics knob. The `Debug` rendering prints every float via its
//! shortest round-trip form, so string equality is bit-identity of
//! every aggregate, sample vector, and audit ledger.

use helm_core::exec::RecordMode;
use helm_core::online::{
    run_cluster_mix_cached, run_cluster_mix_traced, AdmissionPolicy, CalibrationCache, ClusterSpec,
    DeadlineSpec, PoissonArrivals, SchedulerKind, StepGranularity,
};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use simcore::time::SimDuration;
use workload::WorkloadSpec;

/// Small calibration-cheap replica classes (OPT-1.3B on DRAM), one
/// per placement shape, mirroring the planner's template lattice.
fn small_server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_1_3b();
    let memory = HostMemoryConfig::dram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

/// Paper-scale replica classes (OPT-175B on NV-DRAM) for the
/// million-scale byte compares below.
fn paper_server(placement: PlacementKind, batch: u32) -> Server {
    let model = ModelConfig::opt_175b();
    let memory = HostMemoryConfig::nvdram();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(batch);
    Server::new(SystemConfig::paper_platform(memory), model, policy).unwrap()
}

fn deadline_strategy() -> impl Strategy<Value = DeadlineSpec> {
    (
        0u8..3,
        100.0..60_000.0f64,
        10_000.0..120_000.0f64,
        0.0..1.0f64,
        0u64..1_000,
    )
        .prop_map(
            |(select, tight_ms, loose_ms, tight_fraction, seed)| match select {
                0 => DeadlineSpec::None,
                1 => DeadlineSpec::Fixed(SimDuration::from_millis(tight_ms)),
                _ => DeadlineSpec::Bimodal {
                    tight: SimDuration::from_millis(tight_ms),
                    loose: SimDuration::from_millis(loose_ms),
                    tight_fraction,
                    seed,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole property: whatever the draw — scheduler,
    /// admission, mix, deadline regime, batching mode, recording
    /// mode, load — the coalesced run's `ClusterReport` is
    /// byte-identical to the per-step run's.
    #[test]
    fn granularities_agree_across_the_whole_policy_space(
        lambda in 0.05f64..2.0,
        deadlines in deadline_strategy(),
        raw_counts in (0usize..=2, 0usize..=2, 0usize..=2),
        scheduler_sel in 0u8..4,
        admission_sel in 0u8..3,
        queue_cap in 1usize..=3,
        continuous in any::<bool>(),
        record_sel in any::<bool>(),
        num_requests in 10usize..=50,
        seed in 0u64..100_000,
    ) {
        simaudit::force_enable();
        let counts = match raw_counts {
            (0, 0, 0) => [0, 0, 1],
            (a, b, c) => [a, b, c],
        };
        let workload = WorkloadSpec::new(32, 3, 1);
        let servers = [
            small_server(PlacementKind::Helm, 2),
            small_server(PlacementKind::AllCpu, 4),
            small_server(PlacementKind::Baseline, 1),
        ];
        let groups: Vec<(&Server, usize)> = servers
            .iter()
            .zip(counts)
            .filter(|(_, c)| *c > 0)
            .collect();
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
        let record = if record_sel {
            RecordMode::Full
        } else {
            RecordMode::Aggregate
        };
        // One shared calibration memo: both granularity runs draw the
        // exact same service models, so any report diff comes from
        // the event engine alone.
        let mut cache = CalibrationCache::new();
        let mut run = |granularity| {
            let spec = ClusterSpec::default()
                .with_scheduler(scheduler)
                .with_admission(admission)
                .with_deadlines(deadlines)
                .with_continuous(continuous)
                .with_record(record)
                .with_granularity(granularity);
            let mut arrivals = PoissonArrivals::new(lambda, seed);
            let report = run_cluster_mix_cached(
                &groups, &workload, &mut arrivals, num_requests, spec, &mut cache,
            )
            .unwrap();
            assert!(report.audit.is_some(), "auditing forced on");
            format!("{report:?}")
        };
        let step = run(StepGranularity::PerStep);
        let coalesced = run(StepGranularity::Coalesced);
        prop_assert_eq!(
            coalesced, step,
            "granularities diverged (scheduler {}, admission {}, continuous {}, \
             record {:?}, counts {:?})",
            scheduler, admission, continuous, record, counts
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Span trees are part of the byte-identity contract: the
    /// coalesced engine synthesizes per-step decode boundaries from
    /// span arithmetic (it never re-runs per-step), and whatever the
    /// draw the resulting `Trace` — every span name, depth, and tick
    /// boundary, every attribution bucket — must render byte-identical
    /// to the per-step engine's. The reports must stay byte-identical
    /// with tracing enabled too.
    #[test]
    fn span_trees_byte_identical_across_granularities(
        lambda in 0.05f64..2.0,
        deadlines in deadline_strategy(),
        scheduler_sel in 0u8..4,
        continuous in any::<bool>(),
        num_requests in 5usize..=30,
        seed in 0u64..100_000,
    ) {
        let workload = WorkloadSpec::new(32, 3, 1);
        let servers = [
            small_server(PlacementKind::Helm, 2),
            small_server(PlacementKind::AllCpu, 4),
        ];
        let groups: Vec<(&Server, usize)> = servers.iter().map(|s| (s, 1)).collect();
        let scheduler = [
            SchedulerKind::RoundRobin,
            SchedulerKind::JoinShortestQueue,
            SchedulerKind::LeastFinishTime,
            SchedulerKind::DeadlineAware,
        ][scheduler_sel as usize];
        let mut cache = CalibrationCache::new();
        let mut run = |granularity| {
            let spec = ClusterSpec::default()
                .with_scheduler(scheduler)
                .with_deadlines(deadlines)
                .with_continuous(continuous)
                .with_granularity(granularity);
            let mut arrivals = PoissonArrivals::new(lambda, seed);
            let (report, trace) = run_cluster_mix_traced(
                &groups, &workload, &mut arrivals, num_requests, spec, &mut cache,
            )
            .unwrap();
            (format!("{report:?}"), format!("{trace:?}"))
        };
        let (step_report, step_trace) = run(StepGranularity::PerStep);
        let (coal_report, coal_trace) = run(StepGranularity::Coalesced);
        prop_assert_eq!(
            coal_trace, step_trace,
            "span trees diverged across granularities (scheduler {}, continuous {})",
            scheduler, continuous
        );
        prop_assert_eq!(
            coal_report, step_report,
            "traced reports diverged across granularities"
        );
    }
}

/// Byte-identity at production scale: a 100 000-request mixed-cluster
/// run must render the *entire* `ClusterReport` identically across
/// granularities, in both recording modes — the volume the coalesced
/// path exists for.
#[test]
fn granularities_byte_identical_at_1e5_requests() {
    let workload = WorkloadSpec::paper_default();
    let helm = paper_server(PlacementKind::Helm, 4);
    let allcpu = paper_server(PlacementKind::AllCpu, 44);
    let groups: &[(&Server, usize)] = &[(&helm, 1), (&allcpu, 2)];
    for record in [RecordMode::Full, RecordMode::Aggregate] {
        let run = |granularity| {
            let spec = ClusterSpec::default()
                .with_scheduler(SchedulerKind::JoinShortestQueue)
                .with_record(record)
                .with_granularity(granularity);
            let mut arrivals = PoissonArrivals::new(2.0, 97);
            let report = run_cluster_mix_cached(
                groups,
                &workload,
                &mut arrivals,
                100_000,
                spec,
                &mut CalibrationCache::new(),
            )
            .expect("cluster runs");
            format!("{report:?}")
        };
        assert_eq!(
            run(StepGranularity::PerStep),
            run(StepGranularity::Coalesced),
            "granularities diverged at 1e5 requests ({record:?})"
        );
    }
}

/// The continuous-batching variant at 1e4 requests: decode spans are
/// where coalescing actually rewrites the event flow (every step is a
/// work unit), so the byte-identity claim gets its own volume check
/// there.
#[test]
fn granularities_byte_identical_with_continuous_decode_spans() {
    let workload = WorkloadSpec::paper_default();
    let helm = paper_server(PlacementKind::Helm, 4);
    let allcpu = paper_server(PlacementKind::AllCpu, 44);
    let groups: &[(&Server, usize)] = &[(&helm, 1), (&allcpu, 2)];
    let run = |granularity| {
        let spec = ClusterSpec::default()
            .with_scheduler(SchedulerKind::JoinShortestQueue)
            .with_continuous(true)
            .with_record(RecordMode::Aggregate)
            .with_granularity(granularity);
        let mut arrivals = PoissonArrivals::new(2.0, 97);
        let report = run_cluster_mix_cached(
            groups,
            &workload,
            &mut arrivals,
            10_000,
            spec,
            &mut CalibrationCache::new(),
        )
        .expect("cluster runs");
        format!("{report:?}")
    };
    assert_eq!(
        run(StepGranularity::PerStep),
        run(StepGranularity::Coalesced),
        "granularities diverged on continuous decode spans"
    );
}
