//! Conservation-law integration tests: for every placement policy and
//! both executors, the simaudit byte ledgers must balance to zero
//! outstanding bytes, the audited totals must agree with the report's
//! own accounting, and the DES executor must move exactly the same
//! traffic as the analytic one.
//!
//! These tests run the real `Server` pipeline, so they double as a
//! regression net for the audit wiring in `exec.rs` / `oracles/des.rs`.

use helm_core::exec::{LayerCostTable, PipelineInputs, RecordMode};
use helm_core::oracles::run_pipeline_des;
use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use helm_core::RunReport;
use hetmem::{HostMemoryConfig, MemoryConfigKind};
use llm::ModelConfig;
use simcore::units::ByteSize;
use workload::WorkloadSpec;

const POLICIES: [PlacementKind; 3] = [
    PlacementKind::Baseline,
    PlacementKind::Helm,
    PlacementKind::AllCpu,
];

/// Runs one policy on both executors, returning the two reports plus
/// the pipeline-fill bytes (layer 0 streams before any step record
/// exists, so the audit ledgers see it but the per-step totals don't).
fn run_pair(kind: PlacementKind) -> (RunReport, RunReport, ByteSize) {
    let model = ModelConfig::opt_175b();
    let policy = Policy::paper_default(&model, MemoryConfigKind::NvDram)
        .with_placement(kind)
        .with_compression(true);
    let placement = ModelPlacement::compute(&model, &policy);
    let fill = placement.layers()[0].offloaded_bytes(placement.dtype());
    let server = Server::new(
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()),
        model,
        policy,
    )
    .expect("paper config fits");
    let ws = WorkloadSpec::paper_default();
    let analytic = server.run(&ws).expect("analytic run");
    let placement = server.effective_placement(&ws);
    let inputs = PipelineInputs {
        system: server.system(),
        model: server.model(),
        policy: server.policy(),
        placement: &placement,
        workload: &ws,
    };
    let table = LayerCostTable::build(&inputs).expect("tiers available");
    let des = run_pipeline_des(&inputs, &table, RecordMode::Full).expect("des run");
    (analytic, des, fill)
}

#[test]
fn ledgers_balance_for_all_policies_on_both_executors() {
    // Audit capture is on under `debug_assertions`; the tier-1 test
    // profile is a debug build, so reports must carry audit data.
    for kind in POLICIES {
        let (analytic, des, _) = run_pair(kind);
        for (label, report) in [("analytic", &analytic), ("des", &des)] {
            let audit = report
                .audit
                .as_ref()
                .unwrap_or_else(|| panic!("{kind}/{label}: no audit report in debug build"));
            assert!(audit.is_clean(), "{kind}/{label}:\n{audit}");
            for (channel, ledger) in &audit.ledgers {
                assert!(
                    ledger.is_balanced(),
                    "{kind}/{label}: channel {channel} left {} outstanding",
                    ledger.outstanding()
                );
            }
        }
    }
}

#[test]
fn audited_traffic_matches_report_accounting() {
    for kind in POLICIES {
        let (analytic, des, fill) = run_pair(kind);
        for (label, report) in [("analytic", &analytic), ("des", &des)] {
            let audit = report.audit.as_ref().expect("audit in debug build");
            let h2d = audit.delivered_with_prefix("h2d:");
            let d2h = audit.delivered_with_prefix("d2h:");
            assert_eq!(
                h2d,
                report.total_h2d_bytes() + fill,
                "{kind}/{label}: audited h2d disagrees with the report \
                 (per-step totals plus the layer-0 pipeline fill)"
            );
            assert_eq!(
                d2h,
                report.total_d2h_bytes(),
                "{kind}/{label}: audited d2h disagrees with the report"
            );
        }
    }
}

#[test]
fn des_and_analytic_executors_move_identical_traffic() {
    for kind in POLICIES {
        let (analytic, des, _) = run_pair(kind);
        assert_eq!(
            analytic.total_h2d_bytes(),
            des.total_h2d_bytes(),
            "{kind}: executors disagree on h2d traffic"
        );
        assert_eq!(
            analytic.total_d2h_bytes(),
            des.total_d2h_bytes(),
            "{kind}: executors disagree on d2h traffic"
        );
    }
}
