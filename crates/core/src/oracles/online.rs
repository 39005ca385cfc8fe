//! The online-layer oracles: the hand-rolled single-pipeline loop
//! the cluster engine is proven to reproduce bit for bit, and the
//! budgeted door to the cluster engine's miss budget.

use crate::error::HelmError;
use crate::online::{
    busy_fraction, replica_groups, run_cluster_engine, CalibrationCache, ClusterReport,
    ClusterSpec, LatencyStats, PoissonArrivals, ServiceModel,
};
use crate::server::Server;
use simaudit::{AuditReport, Auditor};
use simcore::stats::SeriesStats;
use simcore::time::{SimDuration, SimTime};
use workload::WorkloadSpec;

/// Per-request and aggregate results of an online run.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Requests served.
    pub served: u64,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// Queueing delays (arrival → batch start), seconds.
    pub queue_delay: LatencyStats,
    /// End-to-end latencies (arrival → last token), seconds.
    pub e2e_latency: LatencyStats,
    /// Batch sizes actually formed.
    pub batch_sizes: Vec<u32>,
    /// Fraction of the makespan the pipeline was busy (not clamped;
    /// over-accounted busy time is an audit finding, not a silent
    /// saturation).
    pub utilization: f64,
    /// Sustained output-token throughput over the makespan, computed
    /// from requests actually served.
    pub tokens_per_s: f64,
    /// Conservation audit, when auditing is enabled (debug builds or
    /// [`simaudit::force_enable`]).
    pub audit: Option<AuditReport>,
}

impl OnlineReport {
    /// Mean queueing delay in milliseconds.
    pub fn mean_queue_delay_ms(&self) -> f64 {
        SimDuration::from_secs(self.queue_delay.mean()).as_millis()
    }

    /// A latency percentile (end-to-end) in milliseconds.
    pub fn e2e_percentile_ms(&self, p: f64) -> f64 {
        SimDuration::from_secs(self.e2e_latency.percentile(p).unwrap_or(0.0)).as_millis()
    }
}

/// Serves `num_requests` Poisson arrivals through `server`, forming
/// batches of at most the policy's batch size from whatever is queued
/// when the pipeline frees up (run-to-completion batching, FlexGen
/// style — no continuous batching).
///
/// The per-batch service time comes from a [`ServiceModel`]
/// interpolated between two pipeline runs (batch 1 and the policy
/// batch) rather than re-simulated per batch, keeping λ-sweeps cheap
/// while preserving the batch-size dependence of prefill.
///
/// # Errors
///
/// Propagates batch validation from the underlying [`Server`].
pub fn run_online(
    server: &Server,
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
) -> Result<OnlineReport, HelmError> {
    let model = ServiceModel::calibrate(server, workload)?;
    let max_batch = model.max_batch();

    let times = arrivals.take(num_requests);
    let mut queue_delay = SeriesStats::new();
    let mut e2e = SeriesStats::new();
    let mut batch_sizes = Vec::new();
    let mut busy = SimDuration::ZERO;

    let mut next = 0usize;
    let mut pipeline_free = SimTime::ZERO;
    let mut last_completion = SimTime::ZERO;
    while next < times.len() {
        // The batch starts when the pipeline is free and at least one
        // request has arrived.
        let start = pipeline_free.max(times[next]);
        // Everyone who has arrived by then joins, up to the cap.
        let mut batch = 0u32;
        while next < times.len() && times[next] <= start && batch < max_batch {
            queue_delay.add((start - times[next]).as_secs());
            batch += 1;
            next += 1;
        }
        let service = model.total(batch);
        let done = start + service;
        // All requests in the batch finish together (static batch).
        for i in 0..batch as usize {
            e2e.add((done - times[next - batch as usize + i]).as_secs());
        }
        busy += service;
        batch_sizes.push(batch);
        pipeline_free = done;
        last_completion = done;
    }

    let first_arrival = times.first().copied().unwrap_or(SimTime::ZERO);
    let makespan = last_completion.max(first_arrival) - first_arrival;
    // Every request the loop admitted to a batch completed; count
    // completions rather than trusting the offered load.
    debug_assert_eq!(e2e.count(), queue_delay.count());
    let served = u64::try_from(e2e.count()).unwrap_or(u64::MAX);
    let tokens = served * workload.gen_len as u64;
    let mut audit = Auditor::capture();
    let utilization = busy_fraction(&mut audit, "online", busy, makespan);
    Ok(OnlineReport {
        served,
        makespan,
        queue_delay: LatencyStats::Full(queue_delay),
        e2e_latency: LatencyStats::Full(e2e),
        batch_sizes,
        utilization,
        tokens_per_s: tokens as f64 / makespan.as_secs().max(f64::MIN_POSITIVE),
        audit: audit.finish_if_active(),
    })
}

/// [`run_cluster_mix_cached`](crate::online::run_cluster_mix_cached)
/// under a miss budget: the run is cut —
/// `Ok(None)` — as soon as it has recorded more than `budget` certain
/// misses (rejections, expiries, SLO violations), and otherwise
/// returns the report the unbudgeted run returns, byte for byte. A
/// cut run therefore ends with more than `budget` of its offered
/// requests unmet. Test-only: the capacity planner reaches the same
/// engine through its own crate-private path.
///
/// # Errors
///
/// Same contract as
/// [`run_cluster_mix_cached`](crate::online::run_cluster_mix_cached).
pub fn run_cluster_mix_budgeted(
    groups: &[(&Server, usize)],
    workload: &WorkloadSpec,
    arrivals: &mut PoissonArrivals,
    num_requests: usize,
    spec: ClusterSpec,
    cache: &mut CalibrationCache,
    budget: u64,
) -> Result<Option<ClusterReport>, HelmError> {
    let groups = replica_groups(groups, workload, cache)?;
    run_cluster_engine(groups, workload, arrivals, num_requests, spec, None, budget)
}
