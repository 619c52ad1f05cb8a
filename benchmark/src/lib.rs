//! `gsqlbench` — the repository's benchmark: five workloads, end-to-end
//! metrics and a per-layer trace, all measured from outside by timing
//! calls into the engine crates' public functions. `benchmark/README.md`
//! describes the workloads, the metrics and how to read the output.

pub mod e2e;
pub mod host;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
