//! Failure-injection tests: the serving stack must degrade
//! gracefully — and predictably — when the platform does.

use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

fn serve(memory: HostMemoryConfig, placement: PlacementKind) -> helm_core::RunReport {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(1);
    Server::new(SystemConfig::paper_platform(memory), model, policy)
        .expect("fits")
        .run(&WorkloadSpec::paper_default())
        .expect("serves")
}

#[test]
fn thermal_throttling_degrades_monotonically() {
    let mut last = 0.0;
    for factor in [1.0, 0.8, 0.5, 0.25] {
        let memory = HostMemoryConfig::nvdram().with_cpu_throttle(factor, 1.0);
        let tbt = serve(memory, PlacementKind::Baseline).tbt_ms();
        assert!(tbt >= last, "factor {factor}: {tbt} < {last}");
        last = tbt;
    }
}

#[test]
fn transfer_bound_serving_scales_inversely_with_throttle() {
    // Decode is transfer-bound at batch 1: halving host bandwidth
    // roughly doubles the transfer side of every step.
    let healthy = serve(HostMemoryConfig::nvdram(), PlacementKind::Baseline);
    let halved = serve(
        HostMemoryConfig::nvdram().with_cpu_throttle(0.5, 1.0),
        PlacementKind::Baseline,
    );
    let ratio = halved.tbt_ms() / healthy.tbt_ms();
    assert!(
        (1.5..=2.1).contains(&ratio),
        "TBT should roughly double: x{ratio}"
    );
}

#[test]
fn helm_still_helps_on_a_degraded_platform() {
    // The placement insight is relative: even a throttled device
    // benefits from a balanced pipeline.
    let memory = HostMemoryConfig::nvdram().with_cpu_throttle(0.6, 1.5);
    let base = serve(memory.clone(), PlacementKind::Baseline);
    let helm = serve(memory, PlacementKind::Helm);
    let gain = 1.0 - helm.tbt_ms() / base.tbt_ms();
    assert!(gain > 0.15, "HeLM gain under throttle {gain}");
}

#[test]
fn capacity_is_unaffected_by_throttling() {
    // Degradation changes rates, not placement feasibility.
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
        .with_placement(PlacementKind::AllCpu)
        .with_compression(true);
    let healthy = Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model.clone(),
        policy.clone(),
    )
    .unwrap();
    let throttled = Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram().with_cpu_throttle(0.3, 2.0)),
        model,
        policy,
    )
    .unwrap();
    let ws = WorkloadSpec::paper_default();
    assert_eq!(healthy.max_batch(&ws), throttled.max_batch(&ws));
}

#[test]
fn autoplace_adapts_to_degradation() {
    // With the host tier throttled hard, transfers dominate even
    // more; the latency search still returns a feasible placement
    // that beats the baseline.
    let memory = HostMemoryConfig::nvdram().with_cpu_throttle(0.5, 1.0);
    let system = SystemConfig::paper_platform(memory.clone());
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, memory.kind())
        .with_compression(true)
        .with_batch_size(1);
    let auto = helm_core::autoplace::search(
        &system,
        &model,
        &policy,
        &WorkloadSpec::paper_default(),
        helm_core::autoplace::Objective::Latency,
        helm_core::autoplace::SearchBudget::default(),
    )
    .expect("search succeeds");
    let base = serve(memory, PlacementKind::Baseline);
    assert!(auto.report.tbt_ms() < base.tbt_ms());
}
