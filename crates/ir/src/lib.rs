//! # hb-ir — Halide-like vector IR
//!
//! The intermediate representation underlying the HARDBOILED reproduction.
//! It models the fragment of Halide IR that the paper's tensor instruction
//! selector operates on (paper Fig. 9):
//!
//! * vector values built from [`expr::Expr::Ramp`] / [`expr::Expr::Broadcast`]
//!   index constructors,
//! * vectorized [`expr::Expr::Load`]s and [`stmt::Stmt::Store`]s,
//! * [`expr::Expr::VectorReduceAdd`] reductions produced by vectorizing along
//!   a reduction dimension,
//! * explicit [`expr::Expr::LocToLoc`] data-movement markers between memory
//!   and accelerator register files, and
//! * loops, allocations and intrinsic calls on the statement level.
//!
//! Every name in a tree — variables, buffers, intrinsics, loop variables —
//! is an interned [`symbol::Symbol`], so copying, comparing and hashing a
//! tree never touches a `String` (see the [`symbol`] module docs).
//!
//! The [`simplify`] module reproduces Halide's pattern-obscuring local
//! rewrites, which is the phase-ordering problem HARDBOILED's equality
//! saturation undoes.
//!
//! ## Example
//!
//! ```
//! use hb_ir::builder::*;
//! use hb_ir::types::Type;
//!
//! // The 3-tap convolution access of paper Fig. 2:
//! let taps = load(Type::f32().with_lanes(24), "A", bcast(ramp(int(0), int(1), 3), 8));
//! let conv = vreduce_add(8, taps);
//! assert_eq!(conv.lanes(), 8);
//! assert_eq!(conv.to_string(), "(float32x8)vector_reduce_add(A[x8(ramp(0, 1, 3))])");
//! ```

pub mod builder;
pub mod expr;
pub mod interval;
pub mod numeric;
pub mod printer;
pub mod reference;
pub mod simplify;
pub mod stmt;
pub mod symbol;
pub mod types;

pub use expr::{BinOp, Expr};
pub use stmt::{ForKind, Stmt};
pub use symbol::Symbol;
pub use types::{Location, MemoryType, ScalarType, Type};
