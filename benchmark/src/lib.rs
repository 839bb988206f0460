//! The repository's benchmark: five sweep workloads measured end to end
//! (host time, simulation rate, set-up time, peak memory) and layer by
//! layer (a traced re-implementation of the profile-mode step), with
//! every run's simulated outputs checked against checked-in digests.
//!
//! The `snoc-benchmark` binary is the entry point; see the README for
//! the command line, the metrics and the workloads.

pub mod digest;
pub mod json;
pub mod measure;
pub mod stats;
pub mod trace;
pub mod workloads;
