//! Discrete-event pipeline executor.
//!
//! [`run_pipeline`](crate::exec::run_pipeline) costs each zig-zag
//! step in closed form: transfers serialize within the step and KV
//! write-back blocks its own step. This executor relaxes both approximations by playing
//! the same schedule against persistent link models:
//!
//! * all host→GPU streams of a step (weight portions from host and
//!   storage, plus offloaded KV) **water-fill the PCIe link
//!   concurrently** ([`CappedLink`]), instead of adding serially;
//! * KV write-back rides the **full-duplex return path** and may spill
//!   past its step — the next MHA layer only stalls if the previous
//!   write-back hasn't drained (a one-deep store queue, like an async
//!   D2H stream with one pinned buffer).
//!
//! The two executors agree exactly when neither relaxation applies
//! (no KV offloading, single-tier placement) — a cross-validation
//! property the test suite pins down — and the DES is never slower.

use crate::error::HelmError;
use crate::exec::{
    audit_placement_feasibility, tier_name, LayerCostTable, PipelineInputs, RecordMode,
    StepAttribution, WritebackCost, SYNC_OVERHEAD,
};
use crate::metrics::{LayerStepRecord, RunReport, Stage, StepTotals};
use crate::placement::Tier;
use llm::layers::LayerKind;
use simaudit::Auditor;
use simcore::stats::SeriesStats;
use simcore::time::{SimDuration, SimTime};
use simcore::units::{Bandwidth, ByteSize};
use std::collections::BTreeMap;
use xfer::link::CappedLink;

/// Runs the pipeline on the discrete-event link models over a
/// prebuilt [`LayerCostTable`] (see [`LayerCostTable::build`]) at the
/// given [`RecordMode`]: compute and write-back payloads come from the
/// table; the per-layer weight flows and the per-stage write-back flows
/// are built once per run, and only the context-dependent KV inbound
/// stream is priced live.
///
/// # Errors
///
/// Returns [`HelmError::TierUnavailable`] if the placement routes
/// traffic through a memory tier the platform does not provide.
pub fn run_pipeline_des(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    mode: RecordMode,
) -> Result<RunReport, HelmError> {
    let num_layers = table.num_layers();
    let gen_len = inp.workload.gen_len;
    let gpu = inp.system.gpu();
    let micro = inp.policy.num_gpu_batches();
    let effective_batch = inp.policy.effective_batch();

    // Links are persistent across the whole run.
    let link_cap = inp.system.link_capacity(ByteSize::from_gb(1.0));
    let mut h2d = CappedLink::new(link_cap);
    let mut d2h = CappedLink::new(link_cap);
    let mut now = SimTime::ZERO;
    // The outstanding write-back, if any: its drain time.
    let mut writeback_done: Option<SimTime> = None;

    let mut records = match mode {
        RecordMode::Full => Vec::with_capacity(num_layers * gen_len),
        RecordMode::Aggregate => Vec::new(),
    };
    let mut totals = StepTotals::default();
    let mut tbt = SeriesStats::new();
    let mut ttft = SimDuration::ZERO;

    let mut audit = Auditor::capture();
    audit_placement_feasibility(&mut audit, inp);

    // Every stream but the live KV one is token-invariant: build the
    // layers' weight flows and the `[prefill, decode]` write-back
    // flows once.
    let disk_ws = inp.placement.total_on(Tier::Disk);
    let weight_flows = (0..num_layers)
        .map(|j| host_flows(inp, j, table.cpu_ws(), disk_ws))
        .collect::<Result<Vec<_>, _>>()?;
    let writeback_flows = match table
        .writeback(Stage::Prefill)
        .zip(table.writeback(Stage::Decode))
    {
        Some((prefill, decode)) => Some([
            writeback_flow(inp, table, prefill)?,
            writeback_flow(inp, table, decode)?,
        ]),
        None => None,
    };

    // Reusable scratch for the one step shape that needs a combined
    // flow list (cached weight flows + the live KV stream). Cleared
    // per step, so the token loop allocates nothing after the first
    // KV step regardless of run length.
    let mut kv_scratch: Vec<Flow> = Vec::new();

    // A helper that streams a set of flows on a link starting at
    // `start` (each after its fixed setup/latency cost, overlapped
    // across flows as in the analytic model) and returns the drain
    // instant. Each flow's bytes enter the audit ledger when the
    // transfer starts and leave it when the link reports completion —
    // a flow the link loses track of shows up as an imbalance.
    let drain = |link: &mut CappedLink, audit: &mut Auditor, start: SimTime, flows: &[Flow]| {
        if flows.is_empty() {
            return start;
        }
        let fixed = flows
            .iter()
            .map(|f| f.fixed)
            .fold(SimDuration::ZERO, SimDuration::max);
        let begin = start + fixed;
        // BTreeMap, not HashMap: completion handling below iterates
        // and accumulates f64s; hash order would be run-dependent.
        let mut inflight: BTreeMap<_, &Flow> = BTreeMap::new();
        for f in flows {
            audit.scheduled(f.channel, f.bytes);
            audit.check_bandwidth(f.channel, f.cap);
            audit.check_duration(f.channel, f.fixed);
            let id = link.start(begin, f.bytes.as_f64(), f.cap);
            inflight.insert(id, f);
        }
        link.drain(begin, |_, id| {
            if let Some(f) = inflight.remove(&id) {
                audit.delivered(f.channel, f.bytes);
            }
        })
    };

    // Pipeline fill: layer 0's weights stream alone.
    now = drain(&mut h2d, &mut audit, now, &weight_flows[0]);
    let mut att = StepAttribution::default();
    att.close_at(now, true);

    for token in 0..gen_len {
        let stage = if token == 0 {
            Stage::Prefill
        } else {
            Stage::Decode
        };
        let token_start = now;
        for j in 0..num_layers {
            let last_step = token + 1 == gen_len && j + 1 == num_layers;
            let next_index = (j + 1) % num_layers;
            let step_start = now;

            // Launch the next layer's inbound streams (weights + KV).
            let (load_done, next_kind, h2d_bytes) = if last_step {
                (step_start, None, ByteSize::ZERO)
            } else {
                let kv = if inp.policy.kv_offload() && table.kind(next_index) == LayerKind::Mha {
                    let context = match stage {
                        Stage::Prefill => 0,
                        Stage::Decode => inp.workload.prompt_len + token,
                    };
                    kv_flow(inp, table, next_index, context)?
                } else {
                    None
                };
                let weights = &weight_flows[next_index];
                let (done, bytes) = match kv {
                    // No KV stream: the cached flow slice is used
                    // as-is — no per-step allocation.
                    None => (
                        drain(&mut h2d, &mut audit, step_start, weights),
                        weights.iter().map(|f| f.bytes).sum(),
                    ),
                    Some(f) => {
                        kv_scratch.clear();
                        kv_scratch.extend_from_slice(weights);
                        kv_scratch.push(f);
                        let bytes = kv_scratch.iter().map(|f| f.bytes).sum();
                        (drain(&mut h2d, &mut audit, step_start, &kv_scratch), bytes)
                    }
                };
                (done, Some(table.kind(next_index)), bytes)
            };

            // Compute runs in parallel with the loads.
            let compute = table.compute_time(gpu, j, stage, token) * f64::from(micro);
            let compute_done = step_start + compute;

            // KV write-back: enqueue after compute; stall only if the
            // previous write-back is still draining.
            let mut d2h_bytes = ByteSize::ZERO;
            let mut stall_until = step_start;
            if let Some([prefill, decode]) = &writeback_flows {
                if table.kind(j) == LayerKind::Mha {
                    let wb = match stage {
                        Stage::Prefill => prefill,
                        Stage::Decode => decode,
                    };
                    if let Some(prev) = writeback_done.take() {
                        stall_until = stall_until.max(prev);
                    }
                    let start = compute_done.max(stall_until);
                    writeback_done =
                        Some(drain(&mut d2h, &mut audit, start, std::slice::from_ref(wb)));
                    d2h_bytes = wb.bytes;
                }
            }

            now = compute_done.max(load_done).max(stall_until) + SYNC_OVERHEAD;
            att.close_at(now, load_done.max(stall_until) > compute_done);
            audit.check_duration("compute", compute);
            audit.observe_time("des", now);
            totals.record(compute, h2d_bytes, d2h_bytes);
            if mode == RecordMode::Full {
                records.push(LayerStepRecord {
                    token,
                    layer_index: j,
                    kind: table.kind(j),
                    stage,
                    compute,
                    load_next: load_done - step_start,
                    next_kind,
                    h2d_bytes,
                    d2h_bytes,
                    step: now - step_start,
                });
            }
        }
        if token == 0 {
            ttft = now - SimTime::ZERO;
        } else {
            tbt.add((now - token_start).as_secs());
        }
    }

    // The final write-back must drain before the run is complete.
    if let Some(done) = writeback_done {
        now = now.max(done);
        att.close_at(now, true);
    }

    Ok(RunReport {
        model: inp.model.name().to_owned(),
        config: inp.system.memory().kind().to_string(),
        placement: inp.policy.placement(),
        batch: effective_batch,
        compressed: inp.policy.compressed(),
        ttft,
        tbt,
        total_time: now - SimTime::ZERO,
        tokens_generated: inp.workload.tokens_generated(effective_batch),
        totals,
        records,
        achieved_distribution: inp.placement.achieved_distribution(),
        attribution: att.finish(),
        audit: audit.finish_if_active(),
    })
}

/// One host↔GPU stream: payload, rate cap, the fixed setup/latency
/// share of its standalone transfer time, and the audit ledger
/// channel its bytes are accounted on.
#[derive(Debug, Clone, Copy)]
struct Flow {
    bytes: ByteSize,
    cap: Bandwidth,
    fixed: SimDuration,
    channel: &'static str,
}

/// The inbound KV stream of MHA layer `j` at `context`, `None` when
/// nothing streams — the one per-step flow the cost table cannot
/// cache (its size and bandwidth curve depend on the context).
fn kv_flow(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    j: usize,
    context: usize,
) -> Result<Option<Flow>, HelmError> {
    let kv = table.kv_read_bytes(j, context);
    if kv == ByteSize::ZERO {
        return Ok(None);
    }
    let cap = inp
        .system
        .kv_stream_bandwidth(kv, Some(table.cpu_ws()))
        .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
    Ok(Some(Flow {
        bytes: kv,
        cap,
        fixed: SimDuration::ZERO,
        channel: "h2d:kv",
    }))
}

/// The KV write-back stream of one MHA step: the table's payload at
/// the tier's write-back rate cap, with the rest of the table's
/// standalone write-back time as its fixed share.
fn writeback_flow(
    inp: &PipelineInputs<'_>,
    table: &LayerCostTable,
    wb: &WritebackCost,
) -> Result<Flow, HelmError> {
    let cap = inp
        .system
        .tier_writeback_bandwidth(Tier::Cpu, wb.bytes, Some(table.cpu_ws()))
        .ok_or(HelmError::TierUnavailable { tier: "cpu" })?;
    Ok(Flow {
        bytes: wb.bytes,
        cap,
        fixed: wb.time - cap.time_for(wb.bytes),
        channel: "d2h:kv",
    })
}

/// The host→GPU weight flows for one layer: one per host tier that
/// holds a portion of its weights.
fn host_flows(
    inp: &PipelineInputs<'_>,
    layer_index: usize,
    cpu_ws: ByteSize,
    disk_ws: ByteSize,
) -> Result<Vec<Flow>, HelmError> {
    let lp = &inp.placement.layers()[layer_index];
    let dtype = inp.placement.dtype();
    let mut flows = Vec::with_capacity(2);
    for (tier, bytes, ws) in [
        (Tier::Cpu, lp.bytes_on(Tier::Cpu, dtype), cpu_ws),
        (Tier::Disk, lp.bytes_on(Tier::Disk, dtype), disk_ws),
    ] {
        if bytes == ByteSize::ZERO {
            continue;
        }
        let unavailable = HelmError::TierUnavailable {
            tier: tier_name(tier),
        };
        let cap = inp
            .system
            .tier_bandwidth(tier, bytes, Some(ws))
            .ok_or(unavailable.clone())?;
        let full = inp
            .system
            .tier_transfer_time(tier, bytes, Some(ws))
            .ok_or(unavailable)?;
        flows.push(Flow {
            bytes,
            cap,
            fixed: full - cap.time_for(bytes),
            channel: match tier {
                Tier::Cpu => "h2d:cpu",
                Tier::Disk => "h2d:disk",
                Tier::Gpu => "h2d:gpu",
            },
        });
    }
    Ok(flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_pipeline;
    use crate::placement::{ModelPlacement, PlacementKind};
    use crate::policy::Policy;
    use crate::system::SystemConfig;
    use hetmem::HostMemoryConfig;
    use llm::ModelConfig;
    use workload::WorkloadSpec;

    fn both(
        memory: HostMemoryConfig,
        placement: PlacementKind,
        kv_offload: bool,
        batch: u32,
    ) -> (RunReport, RunReport) {
        let system = SystemConfig::paper_platform(memory.clone());
        let model = ModelConfig::opt_175b();
        let policy = Policy::paper_default(&model, memory.kind())
            .with_placement(placement)
            .with_compression(true)
            .with_kv_offload(kv_offload)
            .with_batch_size(batch);
        let p = ModelPlacement::compute(&model, &policy);
        let workload = WorkloadSpec::paper_default();
        let inputs = PipelineInputs {
            system: &system,
            model: &model,
            policy: &policy,
            placement: &p,
            workload: &workload,
        };
        let table = LayerCostTable::build(&inputs).expect("table builds");
        (
            run_pipeline(&inputs, &table, RecordMode::Full, None).expect("analytic runs"),
            run_pipeline_des(&inputs, &table, RecordMode::Full).expect("des runs"),
        )
    }

    #[test]
    fn agrees_exactly_with_analytic_on_single_tier_runs() {
        // Without KV offloading and with one host tier, the two
        // executors model identical physics.
        for placement in [PlacementKind::Baseline, PlacementKind::Helm] {
            let (analytic, des) = both(HostMemoryConfig::nvdram(), placement, false, 1);
            let rel = (des.tbt_ms() - analytic.tbt_ms()).abs() / analytic.tbt_ms();
            assert!(
                rel < 1e-6,
                "{placement}: {} vs {}",
                des.tbt_ms(),
                analytic.tbt_ms()
            );
            assert!((des.ttft_ms() - analytic.ttft_ms()).abs() / analytic.ttft_ms() < 1e-6);
        }
    }

    #[test]
    fn split_tier_runs_stay_close() {
        // SSD config splits weights across disk and DRAM; both
        // executors water-fill the same link, differing only in when
        // fixed costs apply.
        let (analytic, des) = both(HostMemoryConfig::ssd(), PlacementKind::Baseline, false, 1);
        let rel = (des.tbt_ms() - analytic.tbt_ms()).abs() / analytic.tbt_ms();
        assert!(rel < 0.05, "{} vs {}", des.tbt_ms(), analytic.tbt_ms());
    }

    #[test]
    fn des_is_never_slower_under_kv_offload() {
        // Concurrent KV-in streams and spill-over write-backs only
        // relax the analytic serialization.
        let (analytic, des) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 44);
        assert!(des.tbt_ms() <= analytic.tbt_ms() * (1.0 + 1e-9));
        // ...but the write-back cost does not vanish: still slower
        // than resident KV.
        let (resident, _) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, false, 44);
        assert!(des.tbt_ms() > resident.tbt_ms());
    }

    #[test]
    fn traffic_accounting_matches_between_executors() {
        let (analytic, des) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 8);
        assert_eq!(analytic.total_h2d_bytes(), des.total_h2d_bytes());
        assert_eq!(analytic.total_d2h_bytes(), des.total_d2h_bytes());
    }

    #[test]
    fn final_writeback_extends_total_time() {
        let (_, des) = both(HostMemoryConfig::nvdram(), PlacementKind::AllCpu, true, 8);
        let last_step_end: f64 = des.records.iter().map(|r| r.step.as_secs()).sum();
        assert!(des.total_time.as_secs() >= last_step_end - 1e-9);
    }
}
