//! How closely the simulator reproduces the paper.
//!
//! Two tables of reference values, both from results the model was not
//! fitted to (Fig 3's host-to-device bandwidth anchors are calibration
//! inputs and are left out): the 60 cells of Table IV and the four
//! headline claims of the abstract. Each metric is the mean absolute
//! relative deviation from the paper, in percent.

use helm_core::metrics::{RunReport, Stage};
use helm_core::placement::PlacementKind;
use helm_core::projection::OverlapRow;
use hetmem::HostMemoryConfig;

/// Table IV, row-major: (policy, batch, stage, [NVDRAM, CXL-FPGA,
/// CXL-ASIC] MHA-compute/FFN-load, then the same three FFN-compute/MHA-load).
pub const TABLE_IV: [(PlacementKind, u32, Stage, [f64; 6]); 10] = [
    (
        PlacementKind::Baseline,
        1,
        Stage::Prefill,
        [0.36, 0.10, 0.56, 1.86, 0.53, 2.90],
    ),
    (
        PlacementKind::Baseline,
        1,
        Stage::Decode,
        [0.36, 0.10, 0.55, 1.85, 0.53, 2.88],
    ),
    (
        PlacementKind::Baseline,
        8,
        Stage::Prefill,
        [0.52, 0.14, 0.79, 3.07, 0.87, 4.77],
    ),
    (
        PlacementKind::Baseline,
        8,
        Stage::Decode,
        [0.36, 0.10, 0.55, 1.85, 0.53, 2.88],
    ),
    (
        PlacementKind::Helm,
        1,
        Stage::Prefill,
        [0.72, 0.20, 1.12, 1.40, 0.40, 2.18],
    ),
    (
        PlacementKind::Helm,
        1,
        Stage::Decode,
        [0.71, 0.20, 1.10, 1.40, 0.40, 2.16],
    ),
    (
        PlacementKind::Helm,
        8,
        Stage::Prefill,
        [0.37, 0.10, 0.56, 1.41, 0.40, 2.18],
    ),
    (
        PlacementKind::Helm,
        8,
        Stage::Decode,
        [0.36, 0.10, 0.55, 1.39, 0.39, 2.16],
    ),
    (
        PlacementKind::AllCpu,
        44,
        Stage::Prefill,
        [1.25, 0.37, 2.01, 4.82, 1.43, 7.84],
    ),
    (
        PlacementKind::AllCpu,
        44,
        Stage::Decode,
        [0.35, 0.10, 0.57, 1.33, 0.40, 2.16],
    ),
];

/// Table IV's memory configurations, as `OverlapRow::config` labels them.
pub const TABLE_IV_CONFIGS: [&str; 3] = ["NVDRAM", "CXL-FPGA", "CXL-ASIC"];

/// The abstract's claims, as fractions: HeLM's 27% latency gain and
/// All-CPU's 5x throughput over the baseline on NVDRAM, and their 9%
/// (time between tokens) and 6% (throughput) gaps to all-DRAM.
pub const HEADLINE: [(&str, f64); 4] = [
    ("helm_latency_gain", 0.27),
    ("allcpu_throughput_gain", 5.0),
    ("helm_tbt_gap_to_dram", 0.09),
    ("allcpu_throughput_gap_to_dram", 0.06),
];

/// The OPT-175B compressed runs the headline claims compare, in the
/// order [`headline_dev_pct`] takes their reports.
pub fn headline_configs() -> [(HostMemoryConfig, PlacementKind, u32); 6] {
    [
        (HostMemoryConfig::nvdram(), PlacementKind::Baseline, 1),
        (HostMemoryConfig::nvdram(), PlacementKind::Helm, 1),
        (HostMemoryConfig::nvdram(), PlacementKind::Baseline, 8),
        (HostMemoryConfig::nvdram(), PlacementKind::AllCpu, 44),
        (HostMemoryConfig::dram(), PlacementKind::Helm, 1),
        (HostMemoryConfig::dram(), PlacementKind::AllCpu, 44),
    ]
}

fn mean_abs_dev_pct(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (paper, ours) in pairs {
        sum += ((ours - paper) / paper).abs();
        n += 1;
    }
    100.0 * sum / n as f64
}

/// The simulator's Table IV cells aligned with [`TABLE_IV`], or the
/// first missing cell.
pub fn table_iv_cells(rows: &[OverlapRow]) -> Result<Vec<(f64, f64)>, String> {
    let mut cells = Vec::with_capacity(60);
    for (policy, batch, stage, paper) in TABLE_IV {
        for (i, config) in TABLE_IV_CONFIGS.iter().enumerate() {
            let row = rows
                .iter()
                .find(|r| {
                    r.policy == policy
                        && r.batch == batch
                        && r.stage == stage
                        && r.config == *config
                })
                .ok_or_else(|| {
                    format!("Table IV cell {policy} b={batch} {stage} {config} missing")
                })?;
            cells.push((paper[i], row.mha_compute_over_ffn_load));
            cells.push((paper[i + 3], row.ffn_compute_over_mha_load));
        }
    }
    Ok(cells)
}

pub fn table4_dev_pct(rows: &[OverlapRow]) -> Result<f64, String> {
    Ok(mean_abs_dev_pct(table_iv_cells(rows)?.into_iter()))
}

/// The four headline values, from the reports of [`headline_configs`].
pub fn headline_values(r: &[RunReport; 6]) -> [f64; 4] {
    let [base1, helm1, base8, all44, helm_dram, all_dram] = r;
    [
        1.0 - helm1.tbt_ms() / base1.tbt_ms(),
        all44.throughput_tps() / base8.throughput_tps(),
        helm1.tbt_ms() / helm_dram.tbt_ms() - 1.0,
        1.0 - all44.throughput_tps() / all_dram.throughput_tps(),
    ]
}

pub fn headline_dev_pct(r: &[RunReport; 6]) -> f64 {
    let ours = headline_values(r);
    mean_abs_dev_pct(HEADLINE.iter().zip(ours).map(|(&(_, paper), v)| (paper, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_hold_sixty_plus_four_cells() {
        let cells: usize = TABLE_IV.iter().map(|row| row.3.len()).sum();
        assert_eq!(cells, 60);
        assert_eq!(HEADLINE.len(), 4);
        assert_eq!(headline_configs().len(), 6);
        // Every (policy, batch, stage) row is distinct.
        for (i, a) in TABLE_IV.iter().enumerate() {
            for b in &TABLE_IV[i + 1..] {
                assert!((a.0, a.1, a.2) != (b.0, b.1, b.2));
            }
        }
    }

    #[test]
    fn table_iv_cells_cover_the_projection_exactly() {
        let rows = helm_core::projection::table_iv(&workload::WorkloadSpec::paper_default())
            .expect("Table IV projects");
        assert_eq!(rows.len() * 2, 60, "one row holds two ratio cells");
        let cells = table_iv_cells(&rows).expect("every paper cell has a simulated value");
        assert_eq!(cells.len(), 60);
    }
}
