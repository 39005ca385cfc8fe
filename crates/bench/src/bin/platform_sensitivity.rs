//! Extension: how the paper's conclusions move with the platform.
//!
//! Two axes the paper fixes (A100-40GB, PCIe Gen 4) but the conclusion
//! section implicitly asks about:
//!
//! * **GPU memory**: more HBM means more resident weights and bigger
//!   batches — does placement still matter at 80 GB?
//! * **PCIe generation**: a faster accelerator link moves the
//!   bottleneck from the link to the host memory itself, changing how
//!   much an Optane-class tier costs.

use bench::{print_table, section};
use gpusim::GpuSpec;
use helm_core::exec::{run_pipeline, LayerCostTable, PipelineInputs, RecordMode};
use helm_core::placement::{ModelPlacement, PlacementKind};
use helm_core::policy::Policy;
use helm_core::server::Server;
use helm_core::system::SystemConfig;
use hetmem::numa::{NodeId, NumaTopology};
use hetmem::HostMemoryConfig;
use llm::ModelConfig;
use workload::WorkloadSpec;
use xfer::path::PathModel;
use xfer::pcie::{PcieGen, PcieLink};

fn system(gpu: GpuSpec, gen: PcieGen) -> SystemConfig {
    SystemConfig::new(
        HostMemoryConfig::nvdram(),
        gpu,
        NumaTopology::paper_system(),
        PathModel::new(PcieLink::new(gen, 16), NodeId(0)),
        NodeId(0),
    )
}

fn main() -> Result<(), helm_core::HelmError> {
    let model = ModelConfig::opt_175b();
    let workload = WorkloadSpec::paper_default();

    section("GPU memory axis (NVDRAM, compressed, PCIe Gen 4)");
    let mut rows = Vec::new();
    for gpu in [
        GpuSpec::a100_40gb(),
        GpuSpec::a100_80gb(),
        GpuSpec::h100_80gb(),
    ] {
        let sys = system(gpu.clone(), PcieGen::Gen4);
        let policy = Policy::paper_default(&model, sys.memory().kind())
            .with_compression(true)
            .with_placement(PlacementKind::AllCpu);
        let server = Server::new(sys.clone(), model.clone(), policy.clone())?;
        let max = server.max_batch(&workload);
        let best = Server::new(sys, model.clone(), policy.with_batch_size(max))?.run(&workload)?;
        rows.push((
            gpu.name().to_owned(),
            vec![f64::from(max), best.throughput_tps()],
        ));
    }
    print_table(&["GPU", "All-CPU max batch", "tok/s at max"], &rows);

    section("PCIe generation axis (NVDRAM, compressed, batch 1)");
    let mut rows = Vec::new();
    for gen in [PcieGen::Gen3, PcieGen::Gen4, PcieGen::Gen5] {
        let sys = system(GpuSpec::a100_40gb(), gen);
        let mut tbt = Vec::new();
        for kind in [PlacementKind::Baseline, PlacementKind::Helm] {
            let policy = Policy::paper_default(&model, sys.memory().kind())
                .with_compression(true)
                .with_placement(kind)
                .with_batch_size(1);
            let placement = ModelPlacement::compute(&model, &policy);
            let inputs = PipelineInputs {
                system: &sys,
                model: &model,
                policy: &policy,
                placement: &placement,
                workload: &workload,
            };
            let table = LayerCostTable::build(&inputs)?;
            let report = run_pipeline(&inputs, &table, RecordMode::Full, None)?;
            tbt.push(report.tbt_ms());
        }
        rows.push((
            format!("{gen:?} x16"),
            vec![tbt[0], tbt[1], (1.0 - tbt[1] / tbt[0]) * 100.0],
        ));
    }
    print_table(
        &["link", "base TBT(ms)", "HeLM TBT(ms)", "HeLM gain %"],
        &rows,
    );
    println!(
        "\nReading: doubling HBM roughly doubles the All-CPU batch ceiling\n\
         (KV scales with batch); the H100's extra compute barely moves\n\
         transfer-bound decode. Across PCIe generations, the Optane media\n\
         itself bounds the feed (~16-20 GB/s), so Gen 5 adds little --\n\
         HeLM's balancing gain persists on every link, because the\n\
         imbalance it fixes is relative, not absolute."
    );
    Ok(())
}
