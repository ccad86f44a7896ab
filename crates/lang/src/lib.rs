//! # hb-lang — a mini user-schedulable language
//!
//! The front end of the reproduction: Halide-style algorithms
//! ([`ast::Func`], [`ast::ImageParam`], [`ast::RDom`]) with separate
//! schedules ([`schedule::StageSchedule`]: `split`, `reorder`, `vectorize`,
//! `unroll`, `atomic`, `gpu_blocks`/`gpu_threads`; [`ast::Func::compute_at`],
//! [`ast::Func::store_in`]), lowered by [`lower::lower`] to `hb-ir` loop
//! nests with nested vectorization ([`vectorize`]) — the IR HARDBOILED's
//! instruction selector consumes.
//!
//! Every name the front end holds — a func's, an image's, a dimension's, a
//! loop or reduction variable's — is an interned `hb_ir::Symbol`, the type
//! the IR and the selector's e-graph name things with; the builders take
//! `&str` and intern it once. Its tables are small vectors, not hash maps:
//! a [`ast::Pipeline`] lists its funcs and images sorted by name, and a
//! func's bounds and a stage's loop kinds are `(name, value)` pairs, where
//! setting a name again overwrites its value. Lowering compares and copies
//! 4-byte symbols, and rejects two different funcs or images that share a
//! name.
//!
//! [`ast::Pipeline`] and [`lower::Lowered`] implement
//! `hardboiled::IntoProgram`, so `session.compile(&pipeline)` lowers and
//! selects in one call through the `Session` API.
//!
//! ```
//! use hb_lang::ast::{hf, hv, Func, ImageParam, Pipeline};
//! use hb_ir::types::ScalarType;
//!
//! let img = ImageParam::new("in", ScalarType::F32, &[16]);
//! let out = Func::new("out", &["x"], ScalarType::F32);
//! out.define(img.at(&[hv("x")]) * hf(3.0));
//! out.bound("x", 0, 16);
//! let p = Pipeline::new(&out, &[], &[&img]);
//! let lowered = hb_lang::lower::lower(&p).unwrap();
//! assert_eq!(lowered.output_len, 16);
//! ```

pub mod ast;
pub mod lower;
pub mod schedule;
pub mod vectorize;

pub use ast::{cast_f32, hf, hi, hv, Func, HExpr, ImageParam, Pipeline, RDom};
pub use lower::{lower, Lowered, RegionDim};
pub use schedule::{LoopKind, StageSchedule};
pub use vectorize::{LowerError, LowerResult};
