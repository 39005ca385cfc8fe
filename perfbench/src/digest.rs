//! Fingerprints of simulated outputs.
//!
//! A report is fingerprinted by hashing its `Debug` rendering as it is
//! written, so no string is built. Host-time fields (`SearchStats.wall_ms`,
//! `PlanReport.confirm_wall_ms`) are zeroed first: they differ between
//! identical runs. The per-step records of a full-record `RunReport`
//! (about a megabyte of text each) are hashed field by field, bit for
//! bit, instead of being rendered; everything else is rendered.

use helm_core::autoplace::AutoPlacement;
use helm_core::metrics::RunReport;
use helm_core::planner::PlanReport;
use std::fmt::{self, Debug, Write as _};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

impl Digest {
    pub fn value(self) -> u64 {
        self.0
    }

    pub fn debug(&mut self, value: &impl Debug) {
        write!(self, "{value:?}").expect("writing into a hash cannot fail");
    }

    pub fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(FNV_PRIME).rotate_left(23);
    }

    /// A run report with its records hashed bitwise.
    pub fn run_report(&mut self, report: &mut RunReport) {
        let records = std::mem::take(&mut report.records);
        self.debug(report);
        self.word(records.len() as u64);
        for r in &records {
            self.word(r.token as u64);
            self.word(r.layer_index as u64);
            self.word(r.kind as u64);
            self.word(r.stage as u64);
            self.word(r.compute.as_secs().to_bits());
            self.word(r.load_next.as_secs().to_bits());
            self.word(r.next_kind.map_or(u64::MAX, |k| k as u64));
            self.word(r.h2d_bytes.as_u64());
            self.word(r.d2h_bytes.as_u64());
            self.word(r.step.as_secs().to_bits());
        }
        report.records = records;
    }

    pub fn plan_report(&mut self, report: &PlanReport) {
        let mut report = report.clone();
        report.stats.wall_ms = 0.0;
        report.confirm_wall_ms = 0.0;
        self.debug(&report);
    }

    /// A placement search's outcome, field by field, so its winning
    /// run report gets the bitwise record hash.
    pub fn auto_placement(&mut self, found: &mut AutoPlacement) {
        let mut stats = found.stats;
        stats.wall_ms = 0.0;
        self.debug(&(
            found.mha_gpu_percent,
            found.ffn_gpu_percent,
            found.batch,
            &found.placement,
            stats,
            &found.frontier,
        ));
        self.run_report(&mut found.report);
    }
}
