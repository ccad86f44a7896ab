//! The repo's one benchmark for the compile path `lower -> EqSat select`:
//! four workloads, seven end-to-end metrics and 62 per-layer metrics,
//! measured from outside the program. See `README.md` beside this crate.

pub mod alloc;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod population;
pub mod rng;
pub mod staged;
pub mod stats;
pub mod verify;
pub mod workloads;
