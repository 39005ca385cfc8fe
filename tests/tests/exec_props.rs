//! Property tests over the pipeline executors: structural invariants
//! of every run, and cross-validation between the analytic and
//! discrete-event executors, over randomized small models and
//! policies.

use helm_core::exec::{run_pipeline, LayerCostTable, PipelineInputs, RecordMode, SYNC_OVERHEAD};
use helm_core::metrics::RunReport;
use helm_core::oracles::run_pipeline_des;
use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::{PercentDist, Policy};
use helm_core::system::SystemConfig;
use helm_core::HelmError;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use workload::WorkloadSpec;

/// The analytic executor with full step records, on a fresh table.
fn run_full(inp: &PipelineInputs<'_>) -> Result<RunReport, HelmError> {
    run_pipeline(inp, &LayerCostTable::build(inp)?, RecordMode::Full, None)
}

fn small_model() -> impl Strategy<Value = ModelConfig> {
    (1usize..=6, 1usize..=4).prop_map(|(heads, blocks)| {
        ModelConfig::new("prop", heads * 64, heads, blocks, 4, 2000, 512)
    })
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    (
        0u8..3,
        any::<bool>(),
        1u32..=8,
        1u32..=3,
        any::<bool>(),
        0.0f64..=100.0,
    )
        .prop_map(|(kind, compressed, batch, micro, kv_offload, cpu)| {
            let kind = match kind {
                0 => PlacementKind::Baseline,
                1 => PlacementKind::Helm,
                _ => PlacementKind::AllCpu,
            };
            Policy::new(
                PercentDist::new(0.0, cpu, 100.0 - cpu),
                kind,
                compressed,
                batch,
            )
            .with_gpu_batches(micro)
            .with_kv_offload(kv_offload)
        })
}

fn memory_strategy() -> impl Strategy<Value = HostMemoryConfig> {
    (0u8..4).prop_map(|sel| match sel {
        0 => HostMemoryConfig::dram(),
        1 => HostMemoryConfig::nvdram(),
        2 => HostMemoryConfig::memory_mode(),
        _ => HostMemoryConfig::cxl_asic(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every run satisfies the structural step invariants.
    #[test]
    fn pipeline_structural_invariants(
        model in small_model(),
        policy in policy_strategy(),
        memory in memory_strategy(),
        gen_len in 2usize..=5,
    ) {
        let system = SystemConfig::paper_platform(memory);
        let placement = ModelPlacement::compute(&model, &policy);
        let workload = WorkloadSpec::new(32, gen_len, 1);
        let report = run_full(&PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        }).unwrap();
        // One record per (token, layer).
        prop_assert_eq!(report.records.len(), gen_len * model.num_layers());
        // Every step covers its compute, its load, and the sync.
        let sync = SYNC_OVERHEAD.as_secs();
        for r in &report.records {
            prop_assert!(r.step.as_secs() + 1e-12 >= r.compute.as_secs().max(r.load_next.as_secs()) + sync);
        }
        // Wall clock = fill + sum of steps (+ final write-back drain).
        let steps: f64 = report.records.iter().map(|r| r.step.as_secs()).sum();
        prop_assert!(report.total_time.as_secs() + 1e-9 >= steps);
        // TTFT covers the prefill pass.
        let prefill_steps: f64 = report
            .records
            .iter()
            .filter(|r| r.token == 0)
            .map(|r| r.step.as_secs())
            .sum();
        prop_assert!(report.ttft.as_secs() + 1e-9 >= prefill_steps);
        // Throughput accounting.
        let expect = report.tokens_generated as f64 / report.total_time.as_secs();
        prop_assert!((report.throughput_tps() - expect).abs() < 1e-9);
        prop_assert_eq!(
            report.tokens_generated,
            u64::from(policy.effective_batch()) * gen_len as u64
        );
    }

    /// The DES executor never reports a slower run than the analytic
    /// one (its relaxations only overlap more), and agrees exactly
    /// when no relaxation applies.
    #[test]
    fn des_cross_validation(
        model in small_model(),
        policy in policy_strategy(),
        memory in memory_strategy(),
    ) {
        let system = SystemConfig::paper_platform(memory);
        let placement = ModelPlacement::compute(&model, &policy);
        let workload = WorkloadSpec::new(32, 3, 1);
        let inputs = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &placement,
            workload: &workload,
        };
        let analytic = run_full(&inputs).unwrap();
        let table = LayerCostTable::build(&inputs).unwrap();
        let des = run_pipeline_des(&inputs, &table, RecordMode::Full).unwrap();
        prop_assert!(
            des.total_time.as_secs() <= analytic.total_time.as_secs() * (1.0 + 1e-9),
            "DES {} > analytic {}",
            des.total_time.as_secs(),
            analytic.total_time.as_secs()
        );
        prop_assert_eq!(des.total_h2d_bytes(), analytic.total_h2d_bytes());
        prop_assert_eq!(des.total_d2h_bytes(), analytic.total_d2h_bytes());
        if !policy.kv_offload() {
            let rel = (des.total_time.as_secs() - analytic.total_time.as_secs()).abs()
                / analytic.total_time.as_secs();
            prop_assert!(rel < 1e-6, "disagreement {rel}");
        }
    }

    /// Compression never increases per-layer transfer time and never
    /// decreases compute time.
    #[test]
    fn compression_tradeoff_direction(
        model in small_model(),
        memory in memory_strategy(),
    ) {
        let workload = WorkloadSpec::new(32, 3, 1);
        let system = SystemConfig::paper_platform(memory);
        let mut results = Vec::new();
        for compressed in [false, true] {
            let policy = Policy::new(
                PercentDist::new(0.0, 100.0, 0.0),
                PlacementKind::AllCpu,
                compressed,
                1,
            );
            let placement = ModelPlacement::compute(&model, &policy);
            let report = run_full(&PipelineInputs {
                system: &system,
                model: &model,
                policy: &policy,
                placement: &placement,
                workload: &workload,
            }).unwrap();
            results.push(report);
        }
        let (raw, comp) = (&results[0], &results[1]);
        prop_assert!(comp.total_h2d_bytes() <= raw.total_h2d_bytes());
        prop_assert!(
            comp.avg_hidden_compute(helm_core::metrics::Stage::Decode)
                >= raw.avg_hidden_compute(helm_core::metrics::Stage::Decode)
        );
    }
}
