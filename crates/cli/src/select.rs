//! Name → configuration resolution shared by the subcommands.

use crate::args::ArgError;
use helm_core::placement::PlacementKind;
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use simcore::units::Bandwidth;

/// Model names the CLI accepts.
pub const MODELS: &[&str] = &[
    "opt-125m", "opt-1.3b", "opt-6.7b", "opt-13b", "opt-30b", "opt-66b", "opt-175b",
];

/// Memory configuration names the CLI accepts.
pub const MEMORIES: &[&str] = &[
    "dram",
    "nvdram",
    "memory-mode",
    "ssd",
    "fsdax",
    "cxl-fpga",
    "cxl-asic",
    "cxl:<GB/s>",
];

/// Placement names the CLI accepts.
pub const PLACEMENTS: &[&str] = &["baseline", "helm", "all-cpu"];

/// Resolves a model name.
///
/// # Errors
///
/// Lists the accepted names on mismatch.
pub fn model(name: &str) -> Result<ModelConfig, ArgError> {
    Ok(match name {
        "opt-125m" => ModelConfig::opt_125m(),
        "opt-1.3b" => ModelConfig::opt_1_3b(),
        "opt-6.7b" => ModelConfig::opt_6_7b(),
        "opt-13b" => ModelConfig::opt_13b(),
        "opt-30b" => ModelConfig::opt_30b(),
        "opt-66b" => ModelConfig::opt_66b(),
        "opt-175b" => ModelConfig::opt_175b(),
        other => {
            return Err(ArgError(format!(
                "unknown model '{other}'; one of: {}",
                MODELS.join(", ")
            )))
        }
    })
}

/// Resolves a memory configuration name; `cxl:<GB/s>` builds a custom
/// expander.
///
/// # Errors
///
/// Lists the accepted names on mismatch.
pub fn memory(name: &str) -> Result<HostMemoryConfig, ArgError> {
    if let Some(rate) = name.strip_prefix("cxl:") {
        let gbps: f64 = rate
            .parse()
            .map_err(|_| ArgError(format!("bad CXL bandwidth '{rate}'")))?;
        if !(gbps.is_finite() && gbps > 0.0) {
            return Err(ArgError("CXL bandwidth must be positive and finite".into()));
        }
        return Ok(HostMemoryConfig::cxl_custom(Bandwidth::from_gb_per_s(gbps)));
    }
    Ok(match name {
        "dram" => HostMemoryConfig::dram(),
        "nvdram" => HostMemoryConfig::nvdram(),
        "memory-mode" | "mm" => HostMemoryConfig::memory_mode(),
        "ssd" => HostMemoryConfig::ssd(),
        "fsdax" => HostMemoryConfig::fsdax(),
        "cxl-fpga" => HostMemoryConfig::cxl_fpga(),
        "cxl-asic" => HostMemoryConfig::cxl_asic(),
        other => {
            return Err(ArgError(format!(
                "unknown memory '{other}'; one of: {}",
                MEMORIES.join(", ")
            )))
        }
    })
}

/// Resolves a placement-policy name.
///
/// # Errors
///
/// Lists the accepted names on mismatch.
pub fn placement(name: &str) -> Result<PlacementKind, ArgError> {
    name.parse().map_err(|_| {
        ArgError(format!(
            "unknown placement '{name}'; one of: {}",
            PLACEMENTS.join(", ")
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::MemoryConfigKind;

    #[test]
    fn every_listed_model_resolves() {
        for name in MODELS {
            assert!(model(name).is_ok(), "{name}");
        }
        assert!(model("gpt-5").is_err());
    }

    #[test]
    fn every_listed_memory_resolves() {
        for name in MEMORIES.iter().filter(|n| !n.contains('<')) {
            assert!(memory(name).is_ok(), "{name}");
        }
        assert_eq!(memory("mm").unwrap().kind(), MemoryConfigKind::MemoryMode);
        assert!(memory("floppy").is_err());
    }

    #[test]
    fn custom_cxl_rates_parse() {
        let m = memory("cxl:12.5").unwrap();
        assert_eq!(m.kind(), MemoryConfigKind::CxlCustom);
        assert!(memory("cxl:-3").is_err());
        assert!(memory("cxl:nan").is_err());
        assert!(memory("cxl:inf").is_err());
        assert!(memory("cxl:fast").is_err());
    }

    #[test]
    fn placements_resolve() {
        for name in PLACEMENTS {
            assert!(placement(name).is_ok());
        }
        assert!(placement("magic").is_err());
    }
}
