//! End-to-end and per-layer benchmark of the ocelotl analysis pipeline.
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run them.

pub mod affinity;
pub mod alloc;
pub mod metrics;
pub mod open;
pub mod pipeline;
pub mod plan;
pub mod report;
pub mod run;
pub mod serve;
pub mod slider;
pub mod spans;
pub mod stats;
