//! Ablation: the placement search engine versus the seed's serial
//! coarse sweep. Two questions:
//!
//! 1. Quality — does the fine (1%-lattice) multi-resolution search
//!    still land on the paper's two policy shapes (HeLM-like for
//!    latency, All-CPU-like for throughput)?
//! 2. Cost — how much faster is the pruned, zoomed search than the
//!    10%-grid sweep it replaced?
//!
//! The serial reference is hand-rolled here against the public
//! pipeline executor, exactly replicating the seed's loop (no
//! pruning, no zoom, every coarse candidate costed), so the speedup
//! is measured against the real predecessor rather than a strawman.
//! The run hard-fails when the engine loses to the serial sweep at
//! its default budget — a "faster search" that is slower than the
//! loop it replaced is a regression, not a feature.
//! Results also land in `output/BENCH_autoplace.json`.

use std::time::Instant;

use bench::{print_table, section};
use helm_core::autoplace::{search, search_in, Objective, SearchBudget, SearchSpace};
use helm_core::exec::{run_pipeline, PipelineInputs};
use helm_core::placement::{ModelPlacement, PlacementKind, Tier};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

/// The seed's serial coarse sweep: every 10%-grid candidate costed,
/// no pruning, no zoom. Returns `(wall_ms, evaluated, best_tbt_ms)`.
fn serial_coarse_reference(
    system: &SystemConfig,
    model: &ModelConfig,
    policy: &Policy,
    workload: &WorkloadSpec,
) -> Result<(f64, usize, f64), helm_core::HelmError> {
    let budget = gpusim::MemoryBudget::for_gpu(system.gpu());
    let started = Instant::now();
    let mut evaluated = 0usize;
    let mut best_tbt = f64::INFINITY;
    for mha in (0..=100u32).step_by(10) {
        for ffn in (0..=100u32).step_by(10) {
            let placement = ModelPlacement::compute_custom(
                model,
                policy.compressed(),
                [f64::from(mha), f64::from(100 - mha), 0.0],
                [f64::from(ffn), f64::from(100 - ffn), 0.0],
                [0.0, 100.0, 0.0],
            );
            if placement.total_on(Tier::Cpu) > system.tier_capacity(Tier::Cpu) {
                continue;
            }
            let costs = gpusim::ResidentCosts {
                weights: placement.total_on(Tier::Gpu),
                staging: placement.staging_bytes(),
                kv_per_sequence: llm::kv::kv_bytes_per_sequence(model, workload.context_len()),
                hidden_per_sequence: llm::kv::hidden_bytes_per_sequence(
                    model,
                    workload.context_len(),
                ),
            };
            if !budget.fits(&costs, policy.effective_batch()) {
                continue;
            }
            let report = run_pipeline(&PipelineInputs {
                system,
                model,
                policy,
                placement: &placement,
                workload,
            })?;
            evaluated += 1;
            if report.tbt_ms() < best_tbt {
                best_tbt = report.tbt_ms();
            }
        }
    }
    Ok((
        started.elapsed().as_secs_f64() * 1000.0,
        evaluated,
        best_tbt,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();
    let memory = HostMemoryConfig::nvdram();
    let system = SystemConfig::paper_platform(memory.clone());
    let policy = Policy::paper_default(&model, memory.kind())
        .with_compression(true)
        .with_batch_size(1);

    section("search cost: serial coarse sweep vs engine (latency objective)");
    // Untimed warmup so the timed rows compare steady-state code, not
    // first-touch page faults and cold branch predictors.
    std::hint::black_box(search(
        &system,
        &model,
        &policy,
        &workload,
        Objective::Latency,
        SearchBudget::default(),
    )?);
    let (serial_ms, serial_evals, serial_tbt) =
        serial_coarse_reference(&system, &model, &policy, &workload)?;
    let auto = search(
        &system,
        &model,
        &policy,
        &workload,
        Objective::Latency,
        SearchBudget::default(),
    )?;
    let stats = auto.stats;
    let default_speedup = serial_ms / stats.wall_ms;
    let evals_per_s = if stats.wall_ms > 0.0 {
        stats.evaluated as f64 / (stats.wall_ms / 1000.0)
    } else {
        0.0
    };
    print_table(
        &[
            "search", "wall(ms)", "evals", "pruned", "speedup", "TBT(ms)",
        ],
        &[
            (
                "serial 10% grid (seed)".to_owned(),
                vec![serial_ms, serial_evals as f64, 0.0, 1.0, serial_tbt],
            ),
            (
                "engine, default budget".to_owned(),
                vec![
                    stats.wall_ms,
                    stats.evaluated as f64,
                    stats.pruned as f64,
                    default_speedup,
                    auto.report.tbt_ms(),
                ],
            ),
        ],
    );

    // Hard no-regression gate: at its default budget the engine must
    // not lose to the serial sweep it replaced. Screening on template
    // byte totals, the table-free bound, and the bound-sorted tail
    // prune each exist to hold this line — a regression in any of
    // them fails the run instead of shipping a slower "optimization".
    if default_speedup < 1.0 {
        return Err(format!(
            "engine slower than the serial sweep at default budget: \
             speedup_vs_serial = {default_speedup:.3} < 1.0"
        )
        .into());
    }

    section("0.5% lattice: the finest descent, same no-regression gate");
    // The half-percent space is 4x the 1% lattice (201x201 points);
    // the multi-resolution schedule must still clear the serial 10%
    // sweep outright at this larger budget — the hard gate below
    // holds the line at the finest resolution shipped.
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
    )?;
    let fine_speedup = serial_ms / fine.stats.wall_ms;
    print_table(
        &[
            "search", "wall(ms)", "evals", "pruned", "speedup", "TBT(ms)",
        ],
        &[(
            "engine, 0.5% lattice".to_owned(),
            vec![
                fine.stats.wall_ms,
                fine.stats.evaluated as f64,
                fine.stats.pruned as f64,
                fine_speedup,
                fine.report.tbt_ms(),
            ],
        )],
    );
    if fine_speedup < 1.0 {
        return Err(format!(
            "0.5%-lattice search slower than the serial sweep: \
             speedup_vs_serial = {fine_speedup:.3} < 1.0"
        )
        .into());
    }
    if fine.report.tbt_ms() > auto.report.tbt_ms() * (1.0 + 1e-12) {
        return Err(format!(
            "a strictly finer lattice lost quality: {} ms vs {} ms on the 1% grid",
            fine.report.tbt_ms(),
            auto.report.tbt_ms()
        )
        .into());
    }

    section("joint {placement x batch} space (throughput objective)");
    let joint_batches = vec![1u32, 4, 8, 44];
    let joint = search_in(
        &system,
        &model,
        &policy,
        &workload,
        Objective::Throughput,
        SearchBudget::default(),
        SearchSpace {
            fine_step_half_pct: 2,
            batches: joint_batches.clone(),
        },
    )?;
    print_table(
        &["search", "tok/s", "batch", "MHA gpu%", "FFN gpu%"],
        &[(
            "joint batch list".to_owned(),
            vec![
                joint.report.throughput_tps(),
                f64::from(joint.batch),
                joint.mha_gpu_percent,
                joint.ffn_gpu_percent,
            ],
        )],
    );
    if !joint_batches.contains(&joint.batch) {
        return Err(format!(
            "joint search chose batch {} outside its listed space {joint_batches:?}",
            joint.batch
        )
        .into());
    }

    section("quality: fine-search winner vs hand-built policies");
    let helm = Server::new(
        system.clone(),
        model.clone(),
        policy.clone().with_placement(PlacementKind::Helm),
    )?
    .run(&workload)?;
    print_table(
        &["policy", "TBT(ms)", "MHA gpu%", "FFN gpu%"],
        &[
            (
                "HeLM (hand-built)".to_owned(),
                vec![helm.tbt_ms(), 10.0, 30.0],
            ),
            (
                "auto (1% lattice)".to_owned(),
                vec![
                    auto.report.tbt_ms(),
                    auto.mha_gpu_percent,
                    auto.ffn_gpu_percent,
                ],
            ),
        ],
    );

    section("throughput objective rediscovers All-CPU");
    let allcpu = Server::new(
        system.clone(),
        model.clone(),
        policy
            .clone()
            .with_placement(PlacementKind::AllCpu)
            .with_batch_size(44),
    )?
    .run(&workload)?;
    let auto_t = search(
        &system,
        &model,
        &policy,
        &workload,
        Objective::Throughput,
        SearchBudget::default(),
    )?;
    print_table(
        &["policy", "tok/s", "batch", "FFN gpu%"],
        &[
            (
                "All-CPU b=44".to_owned(),
                vec![allcpu.throughput_tps(), 44.0, 0.0],
            ),
            (
                "auto".to_owned(),
                vec![
                    auto_t.report.throughput_tps(),
                    f64::from(auto_t.batch),
                    auto_t.ffn_gpu_percent,
                ],
            ),
        ],
    );

    let json = format!(
        "{{\n  \"model\": \"{}\",\n  \"memory\": \"{}\",\n  \"objective\": \"latency\",\n  \
         \"serial_coarse\": {{\"wall_ms\": {:.3}, \"evaluated\": {}, \"best_tbt_ms\": {:.3}}},\n  \
         \"engine\": {{\"wall_ms\": {:.3}, \"evaluated\": {}, \"pruned\": {}, \
         \"speedup_vs_serial\": {:.3}, \"evals_per_s\": {:.1}}},\n  \
         \"half_percent_lattice\": {{\"wall_ms\": {:.3}, \"evaluated\": {}, \"pruned\": {}, \
         \"speedup_vs_serial\": {:.3}, \"tbt_ms\": {:.3}, \"mha_gpu_percent\": {}, \
         \"ffn_gpu_percent\": {}}},\n  \
         \"joint_batch\": {{\"batches\": {:?}, \"winner_batch\": {}, \"tok_s\": {:.3}, \
         \"ffn_gpu_percent\": {}}},\n  \
         \"winner\": {{\"mha_gpu_percent\": {}, \"ffn_gpu_percent\": {}, \"batch\": {}, \
         \"tbt_ms\": {:.3}}}\n}}\n",
        model.name(),
        memory.kind(),
        serial_ms,
        serial_evals,
        serial_tbt,
        stats.wall_ms,
        stats.evaluated,
        stats.pruned,
        default_speedup,
        evals_per_s,
        fine.stats.wall_ms,
        fine.stats.evaluated,
        fine.stats.pruned,
        fine_speedup,
        fine.report.tbt_ms(),
        fine.mha_gpu_percent,
        fine.ffn_gpu_percent,
        joint_batches,
        joint.batch,
        joint.report.throughput_tps(),
        joint.ffn_gpu_percent,
        auto.mha_gpu_percent,
        auto.ffn_gpu_percent,
        auto.batch,
        auto.report.tbt_ms(),
    );
    std::fs::create_dir_all("output")?;
    std::fs::write("output/BENCH_autoplace.json", &json)?;
    println!("\nwrote output/BENCH_autoplace.json");

    println!(
        "\nReading: the engine now beats the serial sweep outright -- screening\n\
         rejects infeasible candidates on analytic byte totals (no placement\n\
         built), the bound reads per-layer cost functions directly (no table\n\
         for pruned candidates), and one pruned candidate prunes the whole\n\
         bound-sorted tail. The latency winner keeps a HeLM-shaped split and\n\
         the throughput winner evicts weights for batch -- the paper's two\n\
         policies are the two ends of the QoS dial."
    );
    Ok(())
}
