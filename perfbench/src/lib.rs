//! End-to-end and per-layer benchmark of the npqm queue-management
//! library. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.

pub mod output;
pub mod probe;
pub mod replay;
pub mod workloads;
