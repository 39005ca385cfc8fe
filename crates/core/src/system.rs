//! The full platform assembly (Table I + Table II).

use crate::placement::Tier;
use gpusim::GpuSpec;
use hetmem::config::DeviceHandle;
use hetmem::numa::{NodeId, NumaTopology};
use hetmem::HostMemoryConfig;
use simcore::time::SimDuration;
use simcore::units::{Bandwidth, ByteSize};
use xfer::path::{HostEndpoint, PathModel, TransferRequest};

/// Which NUMA node(s) hold host-resident data.
///
/// The paper's Fig 3b makes node choice matter: GPU→Optane writes to
/// the GPU-local node contend with inbound PCIe traffic on the mesh
/// and run *slower* than writes to the remote node, while reads pay a
/// small penalty remotely. Interleaving splits traffic across both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodePolicy {
    /// Everything on the GPU-local node (node 0).
    #[default]
    GpuLocal,
    /// Everything on the remote node (node 1).
    Remote,
    /// Pages interleaved across both nodes (Linux default for
    /// `numactl --interleave`).
    Interleaved,
}

/// The serving platform: host memory configuration, GPU, NUMA
/// topology, and the data-path model between them.
///
/// # Examples
///
/// ```
/// use helm_core::system::SystemConfig;
/// use helm_core::placement::Tier;
/// use hetmem::HostMemoryConfig;
/// use simcore::units::ByteSize;
///
/// let sys = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
/// let bw = sys.tier_bandwidth(Tier::Cpu, ByteSize::from_mb(300.0), None).unwrap();
/// assert!(bw.as_gb_per_s() < 21.0); // Optane-fed, not PCIe-fed
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    memory: HostMemoryConfig,
    gpu: GpuSpec,
    topology: NumaTopology,
    path: PathModel,
    node_policy: NodePolicy,
    kv_node_policy: NodePolicy,
}

impl SystemConfig {
    /// The paper's platform (Table I): dual-socket Ice Lake, A100 on
    /// node 0 over PCIe Gen 4 x16, host weights on the GPU-local node.
    ///
    /// CXL configurations get a Gen 5 x16 link instead: the paper's
    /// §V-D projection divides weights by the Table III device
    /// bandwidths directly, i.e. it assumes the expander — not the
    /// accelerator link — is the bottleneck (CXL itself rides PCIe 5,
    /// §II-D).
    pub fn paper_platform(memory: HostMemoryConfig) -> Self {
        use hetmem::MemoryConfigKind as K;
        let path = match memory.kind() {
            K::CxlFpga | K::CxlAsic | K::CxlCustom => PathModel::new(
                xfer::pcie::PcieLink::new(xfer::pcie::PcieGen::Gen5, 16),
                NodeId(0),
            ),
            _ => PathModel::paper_system(),
        };
        SystemConfig {
            memory,
            gpu: GpuSpec::a100_40gb(),
            topology: NumaTopology::paper_system(),
            path,
            node_policy: NodePolicy::GpuLocal,
            kv_node_policy: NodePolicy::GpuLocal,
        }
    }

    /// A custom platform.
    pub fn new(
        memory: HostMemoryConfig,
        gpu: GpuSpec,
        topology: NumaTopology,
        path: PathModel,
        weight_node: NodeId,
    ) -> Self {
        SystemConfig {
            memory,
            gpu,
            topology,
            path,
            node_policy: if weight_node == NodeId(0) {
                NodePolicy::GpuLocal
            } else {
                NodePolicy::Remote
            },
            kv_node_policy: NodePolicy::GpuLocal,
        }
    }

    /// Selects where host-resident weights live across the NUMA
    /// nodes (also the default for the KV cache unless
    /// [`SystemConfig::with_kv_node_policy`] overrides it).
    pub fn with_node_policy(mut self, policy: NodePolicy) -> Self {
        self.node_policy = policy;
        self.kv_node_policy = policy;
        self
    }

    /// Overrides the node placement of the host-resident KV cache
    /// independently of the weights — the Fig 3b asymmetry makes
    /// "weights local, write-heavy cache remote" the interesting
    /// split.
    pub fn with_kv_node_policy(mut self, policy: NodePolicy) -> Self {
        self.kv_node_policy = policy;
        self
    }

    /// The active NUMA placement policy for host weights.
    pub fn node_policy(&self) -> NodePolicy {
        self.node_policy
    }

    /// The active NUMA placement policy for the host KV cache.
    pub fn kv_node_policy(&self) -> NodePolicy {
        self.kv_node_policy
    }

    /// Effective bandwidth for `req` under the node policy. The
    /// interleaved rate is the harmonic blend of the two nodes' path
    /// rates: halves share one PCIe link, so per-byte costs add.
    fn policy_bandwidth_for(
        &self,
        policy: NodePolicy,
        device: &DeviceHandle,
        req: &TransferRequest,
    ) -> Bandwidth {
        match policy {
            NodePolicy::GpuLocal => self
                .path
                .effective_bandwidth(&HostEndpoint::direct(device.as_ref(), NodeId(0)), req),
            NodePolicy::Remote => self
                .path
                .effective_bandwidth(&HostEndpoint::direct(device.as_ref(), NodeId(1)), req),
            NodePolicy::Interleaved => {
                let a = self
                    .path
                    .effective_bandwidth(&HostEndpoint::direct(device.as_ref(), NodeId(0)), req)
                    .as_bytes_per_s();
                let b = self
                    .path
                    .effective_bandwidth(&HostEndpoint::direct(device.as_ref(), NodeId(1)), req)
                    .as_bytes_per_s();
                // Half the bytes at each node's rate, serialized over
                // the shared link: blended per-byte cost.
                Bandwidth::from_bytes_per_s(1.0 / (0.5 / a + 0.5 / b))
            }
        }
    }

    fn policy_bandwidth(&self, device: &DeviceHandle, req: &TransferRequest) -> Bandwidth {
        self.policy_bandwidth_for(self.node_policy, device, req)
    }

    /// Effective host→GPU bandwidth for KV-cache streams under the
    /// KV node policy.
    pub fn kv_stream_bandwidth(
        &self,
        bytes: ByteSize,
        working_set: Option<ByteSize>,
    ) -> Option<Bandwidth> {
        let device = self.tier_device(Tier::Cpu)?;
        let mut req = TransferRequest::host_to_gpu(bytes);
        req.working_set = working_set;
        Some(self.policy_bandwidth_for(self.kv_node_policy, device, &req))
    }

    /// The host memory configuration.
    pub fn memory(&self) -> &HostMemoryConfig {
        &self.memory
    }

    /// Swaps the host memory configuration (used by the CXL
    /// projections, which re-cost the same placement on different
    /// memory).
    pub fn with_memory(mut self, memory: HostMemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// The GPU.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The NUMA topology.
    pub fn topology(&self) -> &NumaTopology {
        &self.topology
    }

    /// The host/GPU path model.
    pub fn path(&self) -> &PathModel {
        &self.path
    }

    /// The device backing a placement tier, if the configuration has
    /// one (`Tier::Gpu` has none — it needs no host transfer).
    pub fn tier_device(&self, tier: Tier) -> Option<&DeviceHandle> {
        match tier {
            Tier::Cpu => Some(self.memory.cpu_device()),
            Tier::Disk => self.memory.disk_device(),
            Tier::Gpu => None,
        }
    }

    /// The capacity of a placement tier.
    pub fn tier_capacity(&self, tier: Tier) -> ByteSize {
        match tier {
            Tier::Gpu => self.gpu.hbm_capacity(),
            _ => self
                .tier_device(tier)
                .map(|d| d.capacity())
                .unwrap_or(ByteSize::ZERO),
        }
    }

    /// Effective host→GPU bandwidth streaming `bytes` from `tier`,
    /// with an optional cyclic `working_set` (total tier-resident
    /// weight bytes). `None` when the configuration lacks the tier.
    pub fn tier_bandwidth(
        &self,
        tier: Tier,
        bytes: ByteSize,
        working_set: Option<ByteSize>,
    ) -> Option<Bandwidth> {
        let device = self.tier_device(tier)?;
        let mut req = TransferRequest::host_to_gpu(bytes);
        req.working_set = working_set;
        Some(self.policy_bandwidth(device, &req))
    }

    /// Wall-clock time for one host→GPU transfer of `bytes` from
    /// `tier` (setup + latency + streaming).
    pub fn tier_transfer_time(
        &self,
        tier: Tier,
        bytes: ByteSize,
        working_set: Option<ByteSize>,
    ) -> Option<SimDuration> {
        let device = self.tier_device(tier)?;
        let mut req = TransferRequest::host_to_gpu(bytes);
        req.working_set = working_set;
        // Fixed (setup/latency) costs from the local-node endpoint;
        // streaming at the policy-blended rate.
        let ep = HostEndpoint::direct(device.as_ref(), NodeId(0));
        let local = self.path.transfer_time(&ep, &req);
        let local_bw = self.path.effective_bandwidth(&ep, &req);
        let fixed = local - local_bw.time_for(bytes);
        Some(fixed + self.policy_bandwidth(device, &req).time_for(bytes))
    }

    /// Effective GPU→host bandwidth writing `bytes` back to `tier`
    /// (KV-cache write-back under offloading). Hits the paper's
    /// Fig 3b regime: Optane writes collapse to ~3 GB/s. Only the
    /// discrete-event oracle streams write-backs at a rate; the
    /// production executor prices them with [`Self::tier_writeback_time`].
    #[cfg(any(test, feature = "oracles"))]
    pub fn tier_writeback_bandwidth(
        &self,
        tier: Tier,
        bytes: ByteSize,
        working_set: Option<ByteSize>,
    ) -> Option<Bandwidth> {
        let device = self.tier_device(tier)?;
        let mut req = TransferRequest::gpu_to_host(bytes);
        req.working_set = working_set;
        Some(self.policy_bandwidth_for(self.kv_node_policy, device, &req))
    }

    /// Wall-clock time for one GPU→host write-back of `bytes`.
    pub fn tier_writeback_time(
        &self,
        tier: Tier,
        bytes: ByteSize,
        working_set: Option<ByteSize>,
    ) -> Option<SimDuration> {
        let device = self.tier_device(tier)?;
        let mut req = TransferRequest::gpu_to_host(bytes);
        req.working_set = working_set;
        let ep = HostEndpoint::direct(device.as_ref(), NodeId(0));
        let local = self.path.transfer_time(&ep, &req);
        let local_bw = self.path.effective_bandwidth(&ep, &req);
        let fixed = local - local_bw.time_for(bytes);
        Some(
            fixed
                + self
                    .policy_bandwidth_for(self.kv_node_policy, device, &req)
                    .time_for(bytes),
        )
    }

    /// The PCIe link capacity available to concurrent weight flows.
    pub fn link_capacity(&self, bytes: ByteSize) -> Bandwidth {
        self.path
            .pcie()
            .effective(xfer::pcie::LinkDirection::HostToDevice, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_devices_follow_config() {
        let nv = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
        assert!(nv.tier_device(Tier::Cpu).is_some());
        assert!(nv.tier_device(Tier::Disk).is_none());
        assert!(nv.tier_device(Tier::Gpu).is_none());
        let ssd = SystemConfig::paper_platform(HostMemoryConfig::ssd());
        assert!(ssd.tier_device(Tier::Disk).is_some());
    }

    #[test]
    fn capacities_match_table_i() {
        let sys = SystemConfig::paper_platform(HostMemoryConfig::dram());
        assert_eq!(sys.tier_capacity(Tier::Gpu), ByteSize::from_gb(40.0));
        assert_eq!(sys.tier_capacity(Tier::Cpu), ByteSize::from_gib(256.0));
        assert_eq!(sys.tier_capacity(Tier::Disk), ByteSize::ZERO);
    }

    #[test]
    fn dram_tier_runs_at_pcie_rate() {
        let sys = SystemConfig::paper_platform(HostMemoryConfig::dram());
        let bw = sys
            .tier_bandwidth(Tier::Cpu, ByteSize::from_gb(1.0), None)
            .unwrap();
        assert!((bw.as_gb_per_s() - 24.7).abs() < 0.5, "{bw}");
    }

    #[test]
    fn nvdram_with_working_set_degrades() {
        let sys = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
        let fresh = sys
            .tier_bandwidth(Tier::Cpu, ByteSize::from_mb(300.0), None)
            .unwrap();
        let cycled = sys
            .tier_bandwidth(
                Tier::Cpu,
                ByteSize::from_mb(300.0),
                Some(ByteSize::from_gb(300.0)),
            )
            .unwrap();
        assert!(cycled < fresh);
        assert!((cycled.as_gb_per_s() - 16.7).abs() < 0.4, "{cycled}");
    }

    #[test]
    fn disk_transfer_time_includes_bounce() {
        let sys = SystemConfig::paper_platform(HostMemoryConfig::fsdax());
        let t = sys
            .tier_transfer_time(Tier::Disk, ByteSize::from_gb(1.0), None)
            .unwrap();
        // ~1 GB at ~3 GB/s plus fill latency.
        assert!(t.as_secs() > 0.3);
    }
}

#[cfg(test)]
mod node_policy_tests {
    use super::*;
    use crate::placement::Tier;
    use hetmem::HostMemoryConfig;

    fn sys(policy: NodePolicy) -> SystemConfig {
        SystemConfig::paper_platform(HostMemoryConfig::nvdram()).with_node_policy(policy)
    }

    #[test]
    fn remote_reads_are_slightly_slower() {
        let bytes = ByteSize::from_mb(300.0);
        let local = sys(NodePolicy::GpuLocal)
            .tier_bandwidth(Tier::Cpu, bytes, None)
            .unwrap();
        let remote = sys(NodePolicy::Remote)
            .tier_bandwidth(Tier::Cpu, bytes, None)
            .unwrap();
        let inter = sys(NodePolicy::Interleaved)
            .tier_bandwidth(Tier::Cpu, bytes, None)
            .unwrap();
        assert!(remote < local);
        assert!(inter > remote && inter < local);
    }

    #[test]
    fn remote_writes_are_faster_on_optane() {
        // The Fig 3b asymmetry surfaces through the policy: GPU->
        // Optane write-back is FASTER on the remote node.
        let bytes = ByteSize::from_mb(300.0);
        let local = sys(NodePolicy::GpuLocal)
            .tier_writeback_bandwidth(Tier::Cpu, bytes, None)
            .unwrap();
        let remote = sys(NodePolicy::Remote)
            .tier_writeback_bandwidth(Tier::Cpu, bytes, None)
            .unwrap();
        assert!(
            remote > local.scale(1.1),
            "remote {remote} should beat local {local}"
        );
    }

    #[test]
    fn policy_accessor_round_trips() {
        assert_eq!(
            sys(NodePolicy::Interleaved).node_policy(),
            NodePolicy::Interleaved
        );
        assert_eq!(
            SystemConfig::paper_platform(HostMemoryConfig::dram()).node_policy(),
            NodePolicy::GpuLocal
        );
    }
}
