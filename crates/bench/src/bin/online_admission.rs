//! Extension: deadline-aware admission control on a heterogeneous
//! cluster — the serving-layer view of the paper's latency/throughput
//! dial.
//!
//! Sweeps arrival rate x SLO over a `{HeLM b=4, All-CPU b=44}` mix
//! behind the deadline-aware (EDF + best-fit) dispatcher, comparing
//! `accept-all` admission against `deadline-feasible` admission that
//! rejects at arrival any request whose modeled finish already misses
//! its deadline. Reports goodput (tokens/s from requests that met
//! their SLO) and SLO attainment for both policies.
//!
//! Every run is audited: the request ledger must balance
//! (`enqueued == completed + abandoned` on every pipeline) or the
//! bench exits non-zero. At the saturating arrival rates the
//! deadline-feasible policy must not lose goodput versus accept-all —
//! shedding doomed requests at arrival frees batch slots for requests
//! that can still make it — and a violation is a hard error, so CI
//! catches regressions in the admission path.
//!
//! Results land in `output/BENCH_admission.json`. `--quick` shrinks
//! the sweep for CI smoke runs.

use bench::{print_table, section};
use helm_core::online::{
    run_cluster_mix_cached, AdmissionPolicy, CalibrationCache, ClusterReport, ClusterSpec,
    DeadlineSpec, PoissonArrivals, SchedulerKind,
};
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

/// One sweep cell: the mix cluster at (`lambda`, `slo`) under
/// `admission`. Fails the bench if the run's request ledger is dirty.
fn run_cell(
    groups: &[(&Server, usize)],
    ws: &WorkloadSpec,
    n: usize,
    lambda: f64,
    slo: SimDuration,
    admission: AdmissionPolicy,
) -> Result<ClusterReport, Box<dyn std::error::Error>> {
    let spec = ClusterSpec::default()
        .with_scheduler(SchedulerKind::DeadlineAware)
        .with_admission(admission)
        .with_deadlines(DeadlineSpec::Fixed(slo));
    let report = run_cluster_mix_cached(
        groups,
        ws,
        &mut PoissonArrivals::new(lambda, 42),
        n,
        spec,
        &mut CalibrationCache::new(),
    )?;
    let audit = report
        .audit
        .as_ref()
        .ok_or("auditing was not enabled for the bench run")?;
    if !audit.is_clean() {
        return Err(format!(
            "dirty ledger at lambda={lambda} slo={}s admission={admission}:\n{audit}",
            slo.as_secs()
        )
        .into());
    }
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    simaudit::force_enable();
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 60 } else { 200 };
    // The mix's combined capacity is ~0.34 req/s (HeLM b=4 at ~0.041
    // + All-CPU b=44 at ~0.297), so the top rate drives the cluster
    // past saturation where admission control earns its keep.
    let lambdas: &[f64] = if quick {
        &[0.10, 0.50]
    } else {
        &[0.05, 0.10, 0.20, 0.50]
    };
    let slos_s: &[f64] = if quick {
        &[200.0]
    } else {
        &[200.0, 400.0, 800.0]
    };

    let helm = server(PlacementKind::Helm, 4)?;
    let allcpu = server(PlacementKind::AllCpu, 44)?;
    let groups = [(&helm, 1usize), (&allcpu, 1usize)];

    section(&format!(
        "admission control on {{HeLM b=4, All-CPU b=44}} mix (OPT-175B, NVDRAM, n={n})"
    ));

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for &slo_s in slos_s {
        let slo = SimDuration::from_secs(slo_s);
        for &lambda in lambdas {
            let open = run_cell(
                &groups,
                &WorkloadSpec::paper_default(),
                n,
                lambda,
                slo,
                AdmissionPolicy::AcceptAll,
            )?;
            let gated = run_cell(
                &groups,
                &WorkloadSpec::paper_default(),
                n,
                lambda,
                slo,
                AdmissionPolicy::DeadlineFeasible,
            )?;
            rows.push((
                format!("slo {slo_s:.0}s, {lambda:.2} req/s"),
                vec![
                    open.slo_attainment(),
                    open.tokens_per_s_met,
                    gated.slo_attainment(),
                    gated.tokens_per_s_met,
                    f64::from(u32::try_from(gated.rejected).unwrap_or(u32::MAX)),
                ],
            ));
            cells.push((slo_s, lambda, open, gated));
        }
    }
    print_table(
        &[
            "cell",
            "open attain",
            "open goodput",
            "gated attain",
            "gated goodput",
            "rejected",
        ],
        &rows,
    );

    // The demonstrated claim: at the saturating arrival rate,
    // deadline-feasible admission does not lose goodput — rejecting
    // requests that were going to miss anyway cannot hurt the ones
    // that can still make it, and typically helps by freeing slots.
    let saturating = lambdas[lambdas.len() - 1];
    let mut regressions = Vec::new();
    for (slo_s, lambda, open, gated) in &cells {
        if *lambda == saturating && gated.tokens_per_s_met < open.tokens_per_s_met {
            regressions.push(format!(
                "slo {slo_s:.0}s lambda {lambda:.2}: gated goodput {:.3} < open {:.3}",
                gated.tokens_per_s_met, open.tokens_per_s_met
            ));
        }
    }

    let cell_json: Vec<String> = cells
        .iter()
        .map(|(slo_s, lambda, open, gated)| {
            format!(
                "    {{\"slo_s\": {slo_s:.0}, \"lambda\": {lambda}, \
                 \"open\": {}, \"gated\": {}}}",
                report_json(open),
                report_json(gated)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"model\": \"OPT-175B\",\n  \"mix\": \"helm:4,all-cpu:44\",\n  \
         \"scheduler\": \"edf\",\n  \"quick\": {quick},\n  \"n\": {n},\n  \
         \"saturating_lambda\": {saturating},\n  \"goodput_regressions\": {},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        regressions.len(),
        cell_json.join(",\n")
    );
    std::fs::create_dir_all("output")?;
    std::fs::write("output/BENCH_admission.json", &json)?;
    println!("\nwrote output/BENCH_admission.json");

    if !regressions.is_empty() {
        return Err(format!(
            "deadline-feasible admission lost goodput at saturating load:\n{}",
            regressions.join("\n")
        )
        .into());
    }
    println!(
        "deadline-feasible admission held or improved goodput at lambda={saturating} \
         across all SLOs; every ledger balanced"
    );
    Ok(())
}

/// The per-policy slice of one sweep cell as a JSON object.
fn report_json(r: &ClusterReport) -> String {
    format!(
        "{{\"served\": {}, \"rejected\": {}, \"expired\": {}, \"met\": {}, \
         \"slo_violations\": {}, \"attainment\": {:.4}, \"tokens_per_s\": {:.3}, \
         \"tokens_per_s_met\": {:.3}}}",
        r.served,
        r.rejected,
        r.expired,
        r.met,
        r.slo_violations,
        r.slo_attainment(),
        r.tokens_per_s,
        r.tokens_per_s_met
    )
}
