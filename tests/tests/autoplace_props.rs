//! Properties of the placement search engine: repeated-run
//! determinism, pruning soundness (re-cost every pruned candidate
//! exhaustively and verify none beats the winner), graceful budget
//! truncation, and the fine-resolution throughput invariants.

use gpusim::{MemoryBudget, ResidentCosts};
use helm_core::autoplace::{search, AutoPlacement, Objective, SearchBudget};
use helm_core::exec::{run_pipeline, LayerCostTable, PipelineInputs, RecordMode};
use helm_core::placement::{ModelPlacement, PlacementKind, Tier};
use helm_core::policy::{PercentDist, Policy};
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use proptest::prelude::*;
use workload::WorkloadSpec;

fn small_model() -> impl Strategy<Value = ModelConfig> {
    (1usize..=4, 1usize..=3).prop_map(|(heads, blocks)| {
        ModelConfig::new("prop", heads * 64, heads, blocks, 4, 2000, 512)
    })
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    (any::<bool>(), 1u32..=4, 1u32..=2).prop_map(|(compressed, batch, micro)| {
        Policy::new(
            PercentDist::new(0.0, 100.0, 0.0),
            PlacementKind::Baseline,
            compressed,
            batch,
        )
        .with_gpu_batches(micro)
    })
}

fn memory_strategy() -> impl Strategy<Value = HostMemoryConfig> {
    (0u8..3).prop_map(|sel| match sel {
        0 => HostMemoryConfig::dram(),
        1 => HostMemoryConfig::nvdram(),
        _ => HostMemoryConfig::cxl_asic(),
    })
}

/// Bitwise comparison of two search results. `wall_ms` is the one
/// legitimately nondeterministic field and is excluded.
fn assert_identical(a: &AutoPlacement, b: &AutoPlacement) {
    assert_eq!(a.mha_gpu_percent.to_bits(), b.mha_gpu_percent.to_bits());
    assert_eq!(a.ffn_gpu_percent.to_bits(), b.ffn_gpu_percent.to_bits());
    assert_eq!(a.batch, b.batch);
    assert_eq!(a.report.tbt_ms().to_bits(), b.report.tbt_ms().to_bits());
    assert_eq!(
        a.report.throughput_tps().to_bits(),
        b.report.throughput_tps().to_bits()
    );
    assert_eq!(a.stats.evaluated, b.stats.evaluated);
    assert_eq!(a.stats.pruned, b.stats.pruned);
    assert_eq!(a.frontier.points().len(), b.frontier.points().len());
    for (pa, pb) in a.frontier.points().iter().zip(b.frontier.points()) {
        assert_eq!(pa.tbt_ms.to_bits(), pb.tbt_ms.to_bits());
        assert_eq!(pa.throughput_tps.to_bits(), pb.throughput_tps.to_bits());
    }
    assert_eq!(
        a.frontier.pruned_candidates(),
        b.frontier.pruned_candidates()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The winner (and every deterministic search statistic) is
    /// bit-identical across repeated runs, for both objectives.
    #[test]
    fn parallel_search_equals_serial(
        model in small_model(),
        policy in policy_strategy(),
        memory in memory_strategy(),
        gen_len in 2usize..=4,
        objective_sel in 0u8..2,
    ) {
        let objective = if objective_sel == 0 {
            Objective::Latency
        } else {
            Objective::Throughput
        };
        let system = SystemConfig::paper_platform(memory);
        let workload = WorkloadSpec::new(32, gen_len, 1);
        let serial = search(
            &system, &model, &policy, &workload, objective,
            SearchBudget { threads: 1, max_evals: 0 },
        ).unwrap();
        let repeat = search(
            &system, &model, &policy, &workload, objective,
            SearchBudget { threads: 1, max_evals: 0 },
        ).unwrap();
        assert_identical(&serial, &repeat);
    }

    /// A truncated search never errors and respects its cap.
    #[test]
    fn truncated_search_returns_best_so_far(
        model in small_model(),
        policy in policy_strategy(),
        max_evals in 1usize..=12,
    ) {
        let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
        let workload = WorkloadSpec::new(32, 3, 1);
        let auto = search(
            &system, &model, &policy, &workload, Objective::Latency,
            SearchBudget { threads: 2, max_evals },
        ).unwrap();
        prop_assert!(auto.stats.evaluated <= max_evals);
        prop_assert!(auto.report.tbt_ms() > 0.0);
    }
}

/// Replicates the engine's per-candidate costing for one `(mha, ffn)`
/// pair: the exact placement, batch choice, and pipeline run a
/// non-pruned evaluation would have performed.
fn cost_candidate(
    system: &SystemConfig,
    model: &ModelConfig,
    policy: &Policy,
    workload: &WorkloadSpec,
    objective: Objective,
    mha: f64,
    ffn: f64,
) -> Option<(f64, f64)> {
    let placement = ModelPlacement::compute_custom(
        model,
        policy.compressed(),
        [mha, 100.0 - mha, 0.0],
        [ffn, 100.0 - ffn, 0.0],
        [0.0, 100.0, 0.0],
    );
    if placement.total_on(Tier::Cpu) > system.tier_capacity(Tier::Cpu) {
        return None;
    }
    let budget = MemoryBudget::for_gpu(system.gpu());
    let costs = ResidentCosts {
        weights: placement.total_on(Tier::Gpu),
        staging: placement.staging_bytes(),
        kv_per_sequence: llm::kv::kv_bytes_per_sequence(model, workload.context_len()),
        hidden_per_sequence: llm::kv::hidden_bytes_per_sequence(model, workload.context_len()),
    };
    let batch = match objective {
        Objective::Latency => {
            if !budget.fits(&costs, policy.effective_batch()) {
                return None;
            }
            policy.batch_size()
        }
        Objective::Throughput => {
            let max = budget.max_batch(&costs);
            if max == 0 {
                return None;
            }
            max
        }
    };
    let candidate_policy = policy.clone().with_batch_size(batch);
    let inputs = PipelineInputs {
        system,
        model,
        policy: &candidate_policy,
        placement: &placement,
        workload,
    };
    let table = LayerCostTable::build(&inputs).expect("candidate tiers available");
    let report = run_pipeline(&inputs, &table, RecordMode::Full, None).expect("candidate runs");
    Some((report.tbt_ms(), report.throughput_tps()))
}

fn paper_setup() -> (SystemConfig, ModelConfig, Policy, WorkloadSpec) {
    let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
        .with_compression(true)
        .with_batch_size(1);
    (system, model, policy, WorkloadSpec::paper_default())
}

/// Pruning soundness: every candidate the engine skipped, re-costed
/// exhaustively, loses to (or at best ties) the winner.
#[test]
fn pruned_candidates_never_beat_the_winner() {
    for objective in [Objective::Latency, Objective::Throughput] {
        let (system, model, policy, workload) = paper_setup();
        let auto = search(
            &system,
            &model,
            &policy,
            &workload,
            objective,
            SearchBudget::default(),
        )
        .unwrap();
        assert!(
            !auto.frontier.pruned_candidates().is_empty(),
            "{objective:?}: nothing was pruned; the soundness check is vacuous"
        );
        for &(mha, ffn) in auto.frontier.pruned_candidates() {
            let Some((tbt_ms, tps)) =
                cost_candidate(&system, &model, &policy, &workload, objective, mha, ffn)
            else {
                continue;
            };
            match objective {
                Objective::Latency => assert!(
                    tbt_ms >= auto.report.tbt_ms(),
                    "pruned ({mha}, {ffn}) has TBT {tbt_ms} < winner {}",
                    auto.report.tbt_ms()
                ),
                Objective::Throughput => assert!(
                    tps <= auto.report.throughput_tps(),
                    "pruned ({mha}, {ffn}) has {tps} tok/s > winner {}",
                    auto.report.throughput_tps()
                ),
            }
        }
    }
}

/// The fine-resolution throughput search preserves the seed's
/// invariants: weights evicted for batch, All-CPU-level throughput.
#[test]
fn fine_throughput_search_keeps_eviction_invariants() {
    let (system, model, policy, workload) = paper_setup();
    let auto = search(
        &system,
        &model,
        &policy,
        &workload,
        Objective::Throughput,
        SearchBudget::default(),
    )
    .unwrap();
    assert!(auto.batch >= 40, "batch {}", auto.batch);
    assert!(
        auto.placement.total_on(Tier::Gpu) < simcore::units::ByteSize::from_gb(5.0),
        "GPU-resident {}",
        auto.placement.total_on(Tier::Gpu)
    );
    // The fine lattice can only improve on the coarse grid's best.
    let coarse_best = (0..=10u32)
        .flat_map(|m| (0..=10u32).map(move |f| (m, f)))
        .filter_map(|(m, f)| {
            cost_candidate(
                &system,
                &model,
                &policy,
                &workload,
                Objective::Throughput,
                f64::from(m) * 10.0,
                f64::from(f) * 10.0,
            )
        })
        .map(|(_, tps)| tps)
        .fold(0.0f64, f64::max);
    assert!(
        auto.report.throughput_tps() >= coarse_best * (1.0 - 1e-12),
        "fine winner {} tok/s below coarse best {coarse_best}",
        auto.report.throughput_tps()
    );
}
