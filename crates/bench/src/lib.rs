//! # bench — benchmark harness regenerating every table and figure
//!
//! The `figures` binary (`cargo run -p bench --release --bin figures -- <exp>`)
//! prints the rows/series of each experiment in the paper's evaluation
//! (Table I, Figs. 5–9, 11, Table II) and times the ablations called out
//! in DESIGN.md.

pub mod ablations;
pub mod runners;
pub mod table2;
pub mod workload;
