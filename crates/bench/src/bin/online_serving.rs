//! Extension: online serving under Poisson load — the QoS view of the
//! latency/throughput dial the paper's §VII asks for.
//!
//! For each placement policy, sweep the arrival rate and report p95
//! end-to-end latency and sustained throughput. HeLM owns the
//! low-load/latency-sensitive regime; All-CPU's batch-44 pipeline
//! sustains arrival rates that drive the batch-8 baseline into
//! unbounded queueing.

use bench::{print_table, section};
use helm_core::online::{run_cluster_mix_cached, CalibrationCache, ClusterSpec, PoissonArrivals};
use helm_core::placement::PlacementKind;
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::SimDuration;
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

    for (label, placement, batch) in [
        ("Baseline b=8", PlacementKind::Baseline, 8u32),
        ("HeLM b=8", PlacementKind::Helm, 8),
        ("All-CPU b=44", PlacementKind::AllCpu, 44),
    ] {
        section(&format!(
            "{label} under Poisson load (OPT-175B, NVDRAM, compressed)"
        ));
        let s = server(placement, batch)?;
        // One replica, calibrated once for the whole rate sweep.
        let mut cache = CalibrationCache::new();
        let mut rows = Vec::new();
        for lambda in [0.01f64, 0.03, 0.06, 0.10, 0.15, 0.25] {
            let mut arrivals = PoissonArrivals::new(lambda, 42);
            let r = run_cluster_mix_cached(
                &[(&s, 1)],
                &ws,
                &mut arrivals,
                n,
                ClusterSpec::default(),
                &mut cache,
            )?;
            rows.push((
                format!("{lambda:.2} req/s"),
                vec![
                    SimDuration::from_millis(r.mean_queue_delay_ms()).as_secs(),
                    SimDuration::from_millis(r.e2e_percentile_ms(50.0)).as_secs(),
                    SimDuration::from_millis(r.e2e_percentile_ms(95.0)).as_secs(),
                    r.tokens_per_s,
                    r.utilization,
                ],
            ));
        }
        print_table(
            &[
                "arrival rate",
                "queue(s)",
                "p50 e2e(s)",
                "p95 e2e(s)",
                "tok/s",
                "util",
            ],
            &rows,
        );
    }
    println!(
        "\nReading: at 0.01-0.03 req/s the HeLM server's faster pipeline gives\n\
         the best end-to-end latency; past ~0.06 req/s the batch-8 servers\n\
         saturate (utilization -> 1, queues grow without bound over the\n\
         window) while All-CPU b=44 keeps absorbing load -- the same\n\
         latency/throughput dial as the paper's two placement schemes,\n\
         expressed as serving QoS."
    );
    Ok(())
}
