//! Full-system simulator and experiments for the ISCA'11 STT-RAM NoC
//! paper.
//!
//! [`system::System`] assembles the 3D CMP (cores, L1s, network, L2
//! banks, memory controllers); [`scenario::Scenario`] names the six
//! design points of Section 4.1; [`metrics`] implements the evaluation
//! metrics; and [`experiments`] regenerates every table and figure of
//! the evaluation section.
//!
//! # Example
//!
//! ```
//! use snoc_core::scenario::Scenario;
//! use snoc_core::system::System;
//! use snoc_workload::table3;
//!
//! let mut cfg = Scenario::SttRam4TsbWb.config();
//! cfg.warmup_cycles = 200;
//! cfg.measure_cycles = 1_500;
//! let profile = table3::by_name("sap").unwrap();
//! let metrics = System::homogeneous(cfg, profile).run();
//! assert!(metrics.instruction_throughput() > 0.0);
//! ```

pub mod cellcache;
pub mod experiments;
pub mod metrics;
pub mod observer;
pub mod report;
pub mod scenario;
pub mod serve;
pub mod sweep;
pub mod system;

pub use metrics::RunMetrics;
pub use observer::{NullObserver, ProgressObserver, RunObserver};
pub use report::Rows;
pub use scenario::Scenario;
pub use sweep::{CellResult, Experiment, RunSpec, SweepRunner};
pub use system::{DriveMode, System};
