//! Experiment harness: one module per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the index). The `repro` binary drives
//! these; integration tests run them at `Scale::Test` to keep every figure
//! permanently regenerable.

pub mod benchjson;
pub mod experiments;
pub mod probe;
pub mod runner;

pub use runner::ExpConfig;
