//! # simcore — discrete-event simulation engine
//!
//! Foundation crate for the `helmsim` workspace. It provides the
//! building blocks every other crate in the workspace composes into the
//! full out-of-core LLM inference simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — simulated wall-clock time with
//!   total ordering and convenient unit constructors.
//! * [`EventQueue`] — a deterministic calendar queue of timestamped
//!   events (FIFO among equal timestamps).
//! * [`Simulator`] — a closure-driven discrete-event executor.
//! * [`stats`] — statistic accumulators implementing the paper's
//!   "arithmetic mean discarding the first sample" metric rule.
//! * [`trace`] — span trees on an integer tick lattice.
//! * [`units`] — typed byte sizes, bandwidths and compute rates.
//! * [`rng`] — deterministic, splittable random-number helpers.
//!
//! # Examples
//!
//! Run two events in timestamp order:
//!
//! ```
//! use simcore::{Simulator, SimDuration};
//!
//! let mut sim = Simulator::new(Vec::<&str>::new());
//! sim.schedule_in(SimDuration::from_millis(2.0), |_, log: &mut Vec<&str>| log.push("second"));
//! sim.schedule_in(SimDuration::from_millis(1.0), |_, log: &mut Vec<&str>| log.push("first"));
//! let log = sim.run();
//! assert_eq!(log, vec!["first", "second"]);
//! ```

pub mod audit;
pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use engine::{SimError, Simulator, SpanId};
pub use queue::EventQueue;
pub use stats::{Accumulator, Reservoir, SeriesStats};
pub use time::{SimDuration, SimTime};
pub use trace::{NestingError, TraceSpan};
pub use units::{Bandwidth, ByteSize, ComputeRate, PowerDensity, UnitError};
