//! # helm-core — out-of-core LLM serving on heterogeneous memory
//!
//! The paper's contribution, rebuilt as a library: a FlexGen-style
//! serving engine whose weight-placement policy is pluggable, driving
//! the calibrated device/interconnect/GPU models from the substrate
//! crates.
//!
//! * [`policy`] — serving policies: percentage distributions,
//!   compression, batch size (FlexGen's `Policy`).
//! * [`placement`] — the three weight-placement algorithms:
//!   [`placement::PlacementKind::Baseline`] (a faithful port of
//!   FlexGen's `init_weight_list`, paper Listing 2),
//!   [`placement::PlacementKind::Helm`] (the latency-optimizing
//!   Heterogeneous Layerwise Mapping, Listing 3), and
//!   [`placement::PlacementKind::AllCpu`] (the throughput-optimizing
//!   all-host placement, §V-C).
//! * [`system`] — the full platform assembly (Table I + Table II).
//! * [`exec`] — the zig-zag pipeline executor (Listing 1): compute of
//!   layer *j* overlapped with the weight transfer of layer *j+1* on
//!   a shared PCIe link model. It is the one executor every report
//!   comes from.
//! * [`metrics`] — TTFT / TBT / throughput and the per-layer,
//!   per-stage timers behind the paper's overlap figures.
//! * [`server`] — the high-level entry point.
//! * [`projection`] — CXL performance projections (§V-D, Table IV).
//! * [`autoplace`] — automatic weight-placement search.
//! * [`online`] — request-level serving: Poisson arrivals, the
//!   calibrated per-batch service model and the cluster engine.
//! * [`planner`] — SLO-aware capacity planning over the cluster
//!   engine.
//! * [`energy`] — system energy accounting.
//! * [`trace`] — per-request span traces and critical-path
//!   attribution.
//! * [`error`] — the serving error type.
//! * `oracles` — test oracles (the discrete-event executor, the seed
//!   evaluator, the hand-rolled online loop, the budgeted cluster
//!   door), compiled only for tests and with the `oracles` feature.
//!
//! # Examples
//!
//! Serve OPT-175B on Optane main memory with HeLM placement:
//!
//! ```
//! use helm_core::placement::PlacementKind;
//! use helm_core::policy::Policy;
//! use helm_core::server::Server;
//! use helm_core::system::SystemConfig;
//! use hetmem::HostMemoryConfig;
//! use llm::ModelConfig;
//! use workload::WorkloadSpec;
//!
//! let system = SystemConfig::paper_platform(HostMemoryConfig::nvdram());
//! let model = ModelConfig::opt_175b();
//! let policy = Policy::paper_default(&model, system.memory().kind())
//!     .with_compression(true)
//!     .with_placement(PlacementKind::Helm)
//!     .with_batch_size(1);
//! let report = Server::new(system, model, policy)?.run(&WorkloadSpec::paper_default())?;
//! assert!(report.tbt_ms() > 0.0);
//! # Ok::<(), helm_core::error::HelmError>(())
//! ```

pub mod autoplace;
pub mod energy;
pub mod error;
pub mod exec;
pub mod metrics;
pub mod online;
#[cfg(any(test, feature = "oracles"))]
pub mod oracles;
pub mod placement;
pub mod planner;
pub mod policy;
pub mod projection;
pub mod server;
pub mod system;
pub mod trace;

pub use error::HelmError;
pub use metrics::RunReport;
pub use placement::{ModelPlacement, PlacementKind, Tier};
pub use policy::Policy;
pub use server::Server;
pub use system::SystemConfig;
pub use trace::{Attribution, RequestTrace, Trace};
