//! Criterion microbenchmarks: end-to-end pipeline simulation cost —
//! how fast the simulator itself serves a full request.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use helm_core::autoplace::{search, Objective, SearchBudget};
use helm_core::exec::{LayerCostTable, PipelineInputs, RecordMode};
use helm_core::oracles::run_pipeline_des;
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use std::hint::black_box;
use workload::WorkloadSpec;

fn server(model: ModelConfig, kind: PlacementKind, batch: u32) -> Server {
    let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
        .with_placement(kind)
        .with_compression(true)
        .with_batch_size(batch);
    Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model,
        policy,
    )
    .expect("fits")
}

fn bench_pipeline(c: &mut Criterion) {
    let workload = WorkloadSpec::paper_default();

    let mut group = c.benchmark_group("pipeline/full-run");
    group.sample_size(20);
    for (label, model) in [
        ("opt-30b", ModelConfig::opt_30b()),
        ("opt-175b", ModelConfig::opt_175b()),
    ] {
        let s = server(model, PlacementKind::Baseline, 1);
        group.bench_with_input(BenchmarkId::from_parameter(label), &s, |b, s| {
            b.iter(|| s.run_unchecked(black_box(&workload)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("pipeline/by-policy");
    group.sample_size(20);
    for kind in [
        PlacementKind::Baseline,
        PlacementKind::Helm,
        PlacementKind::AllCpu,
    ] {
        let s = server(ModelConfig::opt_175b(), kind, 1);
        group.bench_with_input(BenchmarkId::from_parameter(kind), &s, |b, s| {
            b.iter(|| s.run_unchecked(black_box(&workload)));
        });
    }
    group.finish();

    c.bench_function("pipeline/max-batch-solve", |b| {
        let s = server(ModelConfig::opt_175b(), PlacementKind::AllCpu, 1);
        b.iter(|| s.max_batch(black_box(&workload)));
    });

    let mut group = c.benchmark_group("pipeline/des-vs-analytic");
    group.sample_size(20);
    let s = server(ModelConfig::opt_175b(), PlacementKind::AllCpu, 8);
    group.bench_function("analytic", |b| {
        b.iter(|| s.run_unchecked(black_box(&workload)));
    });
    group.bench_function("des", |b| {
        let placement = s.effective_placement(&workload);
        let inputs = PipelineInputs {
            system: s.system(),
            model: s.model(),
            policy: s.policy(),
            placement: &placement,
            workload: &workload,
        };
        b.iter(|| {
            let inputs = black_box(&inputs);
            let table = LayerCostTable::build(inputs).expect("tiers available");
            run_pipeline_des(inputs, &table, RecordMode::Full).expect("des runs")
        });
    });
    group.finish();

    let mut group = c.benchmark_group("autoplace");
    group.sample_size(10);
    group.bench_function("latency-grid-search", |b| {
        let s = server(ModelConfig::opt_175b(), PlacementKind::Baseline, 1);
        b.iter(|| {
            search(
                s.system(),
                s.model(),
                s.policy(),
                black_box(&workload),
                Objective::Latency,
                SearchBudget::default(),
            )
            .expect("search succeeds")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
