//! `lfbench`: an unmodeled step-exchange benchmark of the LowFive
//! reproduction, measured from outside the product. See `README.md`.

pub mod compare;
pub mod driver;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod result;
pub mod runner;
pub mod stats;
pub mod sysres;
pub mod workloads;
