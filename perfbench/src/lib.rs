//! End-to-end benchmark of the block-delayed sequence library and the
//! pipeline service built on it, with a traced run that splits the time
//! by layer. See `perfbench/README.md`.

pub mod check;
pub mod paper;
pub mod report;
pub mod rng;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
