//! Automatic weight-placement search.
//!
//! The paper closes hoping its insights "inform the design of improved
//! weight placement algorithms that can automatically make
//! latency/throughput tradeoffs based on desired quality of service
//! requirements" (§VII). This module is that algorithm over the
//! simulator — rebuilt as a search engine fast enough to sit on the
//! serving path rather than an offline sweep:
//!
//! * [`engine`] evaluates candidates on the calling thread in
//!   bound-sorted fixed chunks, each checked against a pruning
//!   threshold frozen at chunk launch and reduced in schedule order;
//! * [`prune`] skips candidates whose analytical lower bound on
//!   decode-token time already loses to the incumbent — those never
//!   pay for a pipeline run, and since the schedule is sorted
//!   best-bound-first, one pruned candidate prunes the whole tail;
//! * the search is multi-resolution: a coarse 10% sweep followed by
//!   pattern descent at 5%, 2%, then 1% steps around the incumbent,
//!   reaching the fine lattice with ~0.3% of its evaluations.
//!
//! For [`Objective::Latency`] the search minimizes TBT at the
//! policy's batch; for [`Objective::Throughput`] it maximizes
//! tokens/second, letting each candidate use the largest batch its
//! GPU residency allows. Surviving candidates are costed with the
//! same pipeline executor the serving path uses, so the optimizer
//! sees exactly the compute/communication overlap the paper analyzes.

mod engine;
mod frontier;
mod prune;

pub use engine::{SearchBudget, SearchSpace, SearchStats};
pub use frontier::{Frontier, FrontierPoint};

use crate::error::HelmError;
use crate::metrics::RunReport;
use crate::placement::ModelPlacement;
use crate::policy::Policy;
use crate::system::SystemConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

/// What the search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize time between tokens at the policy's batch size.
    Latency,
    /// Maximize tokens/second, choosing the batch per candidate.
    Throughput,
}

/// The outcome of a placement search.
#[derive(Debug, Clone)]
pub struct AutoPlacement {
    /// GPU share chosen for MHA layers (percent).
    pub mha_gpu_percent: f64,
    /// GPU share chosen for FFN layers (percent).
    pub ffn_gpu_percent: f64,
    /// Batch size the winning evaluation used.
    pub batch: u32,
    /// The winning placement.
    pub placement: ModelPlacement,
    /// The winning evaluation run.
    pub report: RunReport,
    /// How much work the search did to find the winner.
    pub stats: SearchStats,
    /// Every candidate the search touched (evaluated or pruned).
    pub frontier: Frontier,
}

/// Grid-searches per-kind GPU shares for `objective` with the default
/// [`SearchBudget`] (unlimited evaluations).
///
/// The search keeps embeddings host-resident (they are a rounding
/// error of the footprint) and storage unused (matching the paper's
/// §V setting where compressed weights fit host memory).
///
/// # Errors
///
/// Returns [`HelmError::CapacityExceeded`] when even the all-host
/// candidate cannot fit (host tier too small for the model).
pub fn optimize(
    system: &SystemConfig,
    model: &ModelConfig,
    policy: &Policy,
    workload: &WorkloadSpec,
    objective: Objective,
) -> Result<AutoPlacement, HelmError> {
    search(
        system,
        model,
        policy,
        workload,
        objective,
        SearchBudget::default(),
    )
}

/// [`optimize`] with an explicit [`SearchBudget`]: an optional cap on
/// pipeline evaluations (the search returns its best-so-far when the
/// cap truncates it).
///
/// # Errors
///
/// Returns [`HelmError::CapacityExceeded`] when no candidate is
/// feasible (see [`optimize`]).
pub fn search(
    system: &SystemConfig,
    model: &ModelConfig,
    policy: &Policy,
    workload: &WorkloadSpec,
    objective: Objective,
    budget: SearchBudget,
) -> Result<AutoPlacement, HelmError> {
    search_in(
        system,
        model,
        policy,
        workload,
        objective,
        budget,
        SearchSpace::default(),
    )
}

/// [`search`] over an explicit [`SearchSpace`]: a finer descent
/// lattice (down to 0.5% GPU-share steps) and/or a joint
/// `{placement × batch}` candidate space. The default space makes
/// this identical to [`search`].
///
/// # Errors
///
/// Returns [`HelmError::CapacityExceeded`] when no candidate is
/// feasible (see [`optimize`]).
#[allow(clippy::too_many_arguments)]
pub fn search_in(
    system: &SystemConfig,
    model: &ModelConfig,
    policy: &Policy,
    workload: &WorkloadSpec,
    objective: Objective,
    budget: SearchBudget,
    space: SearchSpace,
) -> Result<AutoPlacement, HelmError> {
    engine::SearchEngine::new(system, model, policy, workload, objective, budget, space).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementKind, Tier};
    use crate::server::Server;
    use hetmem::HostMemoryConfig;

    fn setup() -> (SystemConfig, ModelConfig, Policy, WorkloadSpec) {
        let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
            .with_compression(true)
            .with_batch_size(1);
        (system, model, policy, WorkloadSpec::paper_default())
    }

    #[test]
    fn latency_search_matches_or_beats_helm() {
        let (system, model, policy, workload) = setup();
        let auto = optimize(&system, &model, &policy, &workload, Objective::Latency).unwrap();
        let helm = Server::new(
            system.clone(),
            model,
            policy.with_placement(PlacementKind::Helm),
        )
        .unwrap()
        .run(&workload)
        .unwrap();
        assert!(
            auto.report.tbt_ms() <= helm.tbt_ms() * 1.01,
            "auto {} vs HeLM {}",
            auto.report.tbt_ms(),
            helm.tbt_ms()
        );
        // The multi-resolution schedule visits well beyond the coarse
        // grid, and pruning must be doing real work.
        assert!(auto.stats.evaluated + auto.stats.pruned > 20);
        assert!(auto.stats.pruned > 0, "pruning never fired");
    }

    #[test]
    fn latency_search_favors_ffn_offload_relief() {
        // The winning latency placement should put substantially more
        // of FFN on the GPU than the baseline's 0% (HeLM's insight).
        let (system, model, policy, workload) = setup();
        let auto = optimize(&system, &model, &policy, &workload, Objective::Latency).unwrap();
        assert!(
            auto.ffn_gpu_percent >= 30.0,
            "FFN gpu share {}",
            auto.ffn_gpu_percent
        );
    }

    #[test]
    fn throughput_search_evicts_weights() {
        // The throughput optimum trades GPU weight residency for
        // batch (All-CPU's insight): low GPU shares, big batch.
        let (system, model, policy, workload) = setup();
        let auto = optimize(&system, &model, &policy, &workload, Objective::Throughput).unwrap();
        assert!(auto.batch >= 40, "batch {}", auto.batch);
        let gpu_bytes = auto.placement.total_on(Tier::Gpu);
        assert!(
            gpu_bytes < simcore::units::ByteSize::from_gb(5.0),
            "GPU-resident {gpu_bytes}"
        );
        // And it should at least match the hand-built All-CPU at 44.
        let all_cpu = Server::new(
            system.clone(),
            model,
            policy
                .with_placement(PlacementKind::AllCpu)
                .with_batch_size(44),
        )
        .unwrap()
        .run(&workload)
        .unwrap();
        assert!(auto.report.throughput_tps() >= all_cpu.throughput_tps() * 0.99);
    }

    #[test]
    fn infeasible_model_is_rejected() {
        // OPT-175B uncompressed cannot fit a 256 GB DRAM host.
        let system = SystemConfig::paper_platform(HostMemoryConfig::dram());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::Dram);
        let err = optimize(
            &system,
            &model,
            &policy,
            &WorkloadSpec::paper_default(),
            Objective::Latency,
        )
        .unwrap_err();
        assert!(matches!(err, HelmError::CapacityExceeded { .. }));
    }

    #[test]
    fn max_evals_truncation_returns_best_so_far() {
        let (system, model, policy, workload) = setup();
        let budget = SearchBudget {
            threads: 1,
            max_evals: 8,
        };
        let auto = search(
            &system,
            &model,
            &policy,
            &workload,
            Objective::Latency,
            budget,
        )
        .unwrap();
        assert!(
            auto.stats.evaluated <= 8,
            "evaluated {}",
            auto.stats.evaluated
        );
        assert!(auto.report.tbt_ms() > 0.0);
    }

    #[test]
    fn joint_batch_space_picks_among_listed_batches() {
        // With an explicit batch list the search optimizes batch
        // jointly with the shares — the winner's batch comes from the
        // list, and for throughput it should find the large batch.
        let (system, model, policy, workload) = setup();
        let auto = search_in(
            &system,
            &model,
            &policy,
            &workload,
            Objective::Throughput,
            SearchBudget::default(),
            SearchSpace {
                fine_step_half_pct: 2,
                batches: vec![4, 44],
            },
        )
        .unwrap();
        assert!(auto.batch == 4 || auto.batch == 44, "batch {}", auto.batch);
        assert_eq!(auto.batch, 44, "throughput should pick the large batch");
    }

    #[test]
    fn half_percent_lattice_stays_on_lattice() {
        // fine_step_half_pct == 1 descends to the 0.5% lattice: the
        // winner's shares are half-integer and at least as good as
        // the default search's.
        let (system, model, policy, workload) = setup();
        let fine = search_in(
            &system,
            &model,
            &policy,
            &workload,
            Objective::Latency,
            SearchBudget::default(),
            SearchSpace {
                fine_step_half_pct: 1,
                batches: Vec::new(),
            },
        )
        .unwrap();
        let on_half = |v: f64| (v * 2.0) == (v * 2.0).round();
        assert!(on_half(fine.mha_gpu_percent) && on_half(fine.ffn_gpu_percent));
        let coarse = optimize(&system, &model, &policy, &workload, Objective::Latency).unwrap();
        assert!(fine.report.tbt_ms() <= coarse.report.tbt_ms() * (1.0 + 1e-12));
    }

    #[test]
    fn zoom_reaches_fine_resolution() {
        // The winner's shares sit on the 1% lattice but the search
        // never enumerates the 101x101 fine grid.
        let (system, model, policy, workload) = setup();
        let auto = optimize(&system, &model, &policy, &workload, Objective::Latency).unwrap();
        let fine_grid_candidates = 101 * 101;
        assert!(
            auto.stats.evaluated + auto.stats.pruned < fine_grid_candidates,
            "search did {} + {} touches",
            auto.stats.evaluated,
            auto.stats.pruned
        );
        assert_eq!(auto.mha_gpu_percent, auto.mha_gpu_percent.round());
        assert_eq!(auto.ffn_gpu_percent, auto.ffn_gpu_percent.round());
    }
}
