//! Extension: scaling online serving across pipeline replicas — the
//! cluster view of the paper's latency/throughput dial.
//!
//! For each placement policy, sweep the Poisson arrival rate against
//! 1, 2, and 4 pipeline replicas (join-shortest-queue dispatch) and
//! report p95 end-to-end latency and sustained token throughput. A λ
//! that saturates one pipeline (utilization → 1, queues unbounded
//! over the window) is absorbed by four; the replica count shifts the
//! knee of every policy's latency curve without changing its
//! single-pipeline service times.

use bench::{print_table, section};
use helm_core::online::{
    run_cluster_mix_cached, CalibrationCache, ClusterSpec, PoissonArrivals, SchedulerKind,
};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;

fn server(placement: PlacementKind, batch: u32) -> Result<Server, helm_core::HelmError> {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, hetmem::MemoryConfigKind::NvDram)
        .with_placement(placement)
        .with_compression(true)
        .with_batch_size(batch);
    Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model,
        policy,
    )
}

fn main() -> Result<(), helm_core::HelmError> {
    let ws = WorkloadSpec::paper_default();
    let n = 120;
    let seed = 42;

    for (label, placement, batch) in [
        ("Baseline b=8", PlacementKind::Baseline, 8u32),
        ("HeLM b=8", PlacementKind::Helm, 8),
        ("All-CPU b=44", PlacementKind::AllCpu, 44),
    ] {
        section(&format!(
            "{label}: pipeline scaling under Poisson load (OPT-175B, NVDRAM, compressed)"
        ));
        let s = server(placement, batch)?;
        let mut rows = Vec::new();
        for lambda in [0.03f64, 0.10, 0.25] {
            let mut values = Vec::new();
            for pipelines in [1usize, 2, 4] {
                let spec = ClusterSpec::default().with_scheduler(SchedulerKind::JoinShortestQueue);
                let mut arrivals = PoissonArrivals::new(lambda, seed);
                let r = run_cluster_mix_cached(
                    &[(&s, pipelines)],
                    &ws,
                    &mut arrivals,
                    n,
                    spec,
                    &mut CalibrationCache::new(),
                )?;
                values.push(r.e2e_percentile_ms(95.0) / 1000.0);
                values.push(r.tokens_per_s);
            }
            rows.push((format!("{lambda:.2} req/s"), values));
        }
        print_table(
            &[
                "arrival rate",
                "N=1 p95(s)",
                "N=1 tok/s",
                "N=2 p95(s)",
                "N=2 tok/s",
                "N=4 p95(s)",
                "N=4 tok/s",
            ],
            &rows,
        );
    }

    section("All-CPU b=44: run-to-completion vs continuous batching (N=1)");
    let s = server(PlacementKind::AllCpu, 44)?;
    let mut rows = Vec::new();
    for lambda in [0.03f64, 0.10, 0.25] {
        let mut values = Vec::new();
        for continuous in [false, true] {
            let spec = ClusterSpec::default().with_continuous(continuous);
            let mut arrivals = PoissonArrivals::new(lambda, seed);
            let r = run_cluster_mix_cached(
                &[(&s, 1)],
                &ws,
                &mut arrivals,
                n,
                spec,
                &mut CalibrationCache::new(),
            )?;
            values.push(r.mean_queue_delay_ms() / 1000.0);
            values.push(r.e2e_percentile_ms(95.0) / 1000.0);
        }
        rows.push((format!("{lambda:.2} req/s"), values));
    }
    print_table(
        &[
            "arrival rate",
            "rtc queue(s)",
            "rtc p95(s)",
            "cont queue(s)",
            "cont p95(s)",
        ],
        &rows,
    );

    println!(
        "\nReading: replicas move the saturation knee -- the rate that drives\n\
         one pipeline's queues unbounded is served with bounded p95 by four,\n\
         and token throughput scales near-linearly until the cluster in turn\n\
         saturates. Continuous batching attacks a different term: at moderate\n\
         load it admits arrivals at decode-step boundaries instead of making\n\
         them wait out the in-flight batch, collapsing queueing delay without\n\
         any extra hardware."
    );
    Ok(())
}
