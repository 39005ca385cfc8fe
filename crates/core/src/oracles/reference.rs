//! The seed pipeline evaluator: every zig-zag step costed from
//! scratch with no memoization — the golden reference
//! [`run_pipeline`] and its [`LayerCostTable`] are proven
//! bit-identical against.
//!
//! [`run_pipeline`]: crate::exec::run_pipeline
//! [`LayerCostTable`]: crate::exec::LayerCostTable

use crate::error::HelmError;
use crate::exec::{
    audit_placement_feasibility, compute_time, load_time, PipelineInputs, StepAttribution,
    SYNC_OVERHEAD,
};
use crate::metrics::{LayerStepRecord, RunReport, Stage, StepTotals};
use crate::placement::{LayerPlacement, Tier};
use llm::layers::LayerKind;
use llm::weights::DType;
use simaudit::Auditor;
use simcore::stats::SeriesStats;
use simcore::time::{SimDuration, SimTime};
use simcore::units::ByteSize;

/// The seed evaluator: costs every step from scratch with no
/// memoization. Kept as the golden reference the cost-table fast path
/// is proven bit-identical against (equivalence proptests, and the
/// `bench_pipeline` baseline).
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] as
/// [`run_pipeline`](crate::exec::run_pipeline) does.
pub fn run_pipeline_reference(inp: &PipelineInputs<'_>) -> Result<RunReport, HelmError> {
    let layers = inp.placement.layers();
    let num_layers = layers.len();
    let gen_len = inp.workload.gen_len;
    let cpu_ws = inp.placement.total_on(Tier::Cpu);
    let disk_ws = inp.placement.total_on(Tier::Disk);

    let mut records = Vec::with_capacity(num_layers * gen_len);
    let mut elapsed = SimDuration::ZERO;
    let mut tbt = SeriesStats::new();
    let mut ttft = SimDuration::ZERO;

    let mut audit = Auditor::capture();
    audit_placement_feasibility(&mut audit, inp);
    let micro = inp.policy.num_gpu_batches();
    let effective_batch = inp.policy.effective_batch();
    let dtype = inp.placement.dtype();

    // Pipeline fill: the first layer's weights stream before any
    // compute can overlap them.
    elapsed += load_time(inp, &layers[0], cpu_ws, disk_ws)?;
    audit_weight_traffic(&mut audit, &layers[0], dtype);
    let mut att = StepAttribution::default();
    att.close(elapsed, true);

    for token in 0..gen_len {
        let stage = if token == 0 {
            Stage::Prefill
        } else {
            Stage::Decode
        };
        let token_start = elapsed;
        for (j, lp) in layers.iter().enumerate() {
            let last_step = token + 1 == gen_len && j + 1 == num_layers;
            let next_index = (j + 1) % num_layers;
            let (mut load, next_kind, mut h2d) = if last_step {
                (SimDuration::ZERO, None, ByteSize::ZERO)
            } else {
                let next = &layers[next_index];
                (
                    load_time(inp, next, cpu_ws, disk_ws)?,
                    Some(next.layer().kind()),
                    next.offloaded_bytes(dtype),
                )
            };
            if !last_step {
                audit_weight_traffic(&mut audit, &layers[next_index], dtype);
            }
            // Under KV offloading, the next layer's cache streams in
            // alongside its weights and shares the same H2D budget.
            if inp.policy.kv_offload() {
                if let Some(LayerKind::Mha) = next_kind {
                    let next = &layers[next_index];
                    let context = match stage {
                        Stage::Prefill => 0, // no cache yet at prefill
                        Stage::Decode => inp.workload.prompt_len + token,
                    };
                    let kv_in = next.layer().kv_read_bytes(effective_batch, context);
                    if kv_in > ByteSize::ZERO {
                        load += inp
                            .system
                            .kv_stream_bandwidth(kv_in, Some(cpu_ws))
                            .ok_or(HelmError::TierUnavailable { tier: "cpu" })?
                            .time_for(kv_in);
                        h2d += kv_in;
                        audit.scheduled("h2d:kv", kv_in);
                        audit.delivered("h2d:kv", kv_in);
                    }
                }
            }
            // Micro-batching amortizes one weight load across several
            // GPU batches (FlexGen's block schedule).
            let compute = compute_time(inp, lp.layer(), stage, token) * f64::from(micro);
            // KV write-back for the tokens this step produced.
            let (writeback, d2h) = if inp.policy.kv_offload() && lp.layer().kind() == LayerKind::Mha
            {
                let new_tokens = match stage {
                    Stage::Prefill => inp.workload.prompt_len,
                    Stage::Decode => 1,
                };
                let bytes = ByteSize::from_bytes(
                    u64::from(effective_batch)
                        * new_tokens as u64
                        * llm::kv::kv_bytes_per_token_per_block(inp.model),
                );
                let t = inp
                    .system
                    .tier_writeback_time(Tier::Cpu, bytes, Some(cpu_ws))
                    .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
                (t, bytes)
            } else {
                (SimDuration::ZERO, ByteSize::ZERO)
            };
            if d2h > ByteSize::ZERO {
                audit.scheduled("d2h:kv", d2h);
                audit.delivered("d2h:kv", d2h);
            }
            let step = compute.max(load).max(writeback) + SYNC_OVERHEAD;
            audit.check_duration("compute", compute);
            audit.check_duration("load", load);
            audit.check_duration("step", step);
            records.push(LayerStepRecord {
                token,
                layer_index: j,
                kind: lp.layer().kind(),
                stage,
                compute,
                load_next: load,
                next_kind,
                h2d_bytes: h2d,
                d2h_bytes: d2h,
                step,
            });
            elapsed += step;
            audit.observe_time("analytic", SimTime::ZERO + elapsed);
            att.close(elapsed, load.max(writeback) > compute);
        }
        if token == 0 {
            ttft = elapsed;
        } else {
            tbt.add((elapsed - token_start).as_secs());
        }
    }

    Ok(RunReport {
        model: inp.model.name().to_owned(),
        config: inp.system.memory().kind().to_string(),
        placement: inp.policy.placement(),
        batch: effective_batch,
        compressed: inp.policy.compressed(),
        ttft,
        tbt,
        total_time: elapsed,
        tokens_generated: inp.workload.tokens_generated(effective_batch),
        totals: StepTotals::from_records(&records),
        records,
        achieved_distribution: inp.placement.achieved_distribution(),
        attribution: att.finish(),
        audit: audit.finish_if_active(),
    })
}

/// Ledger entries for one layer's weight transfer. Closed-form
/// transfers complete within the step that issues them, so scheduling
/// and delivery are recorded together; the ledger still cross-checks
/// the per-tier split against the report's traffic totals.
fn audit_weight_traffic(audit: &mut Auditor, lp: &LayerPlacement, dtype: DType) {
    if !audit.is_active() {
        return;
    }
    for (tier, channel) in [(Tier::Cpu, "h2d:cpu"), (Tier::Disk, "h2d:disk")] {
        let bytes = lp.bytes_on(tier, dtype);
        if bytes > ByteSize::ZERO {
            audit.scheduled(channel, bytes);
            audit.delivered(channel, bytes);
        }
    }
}
