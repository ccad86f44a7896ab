//! Convenience constructors for IR expressions and statements.
//!
//! These free functions keep test and lowering code close to the paper's
//! notation: `ramp(base, stride, n)`, `bcast(v, n)` (printed `xn(v)`),
//! `vreduce_add(n, e)`, and the data-movement markers `mem_to_amx` etc.

use crate::expr::{BinOp, Expr};
use crate::stmt::{ForKind, Stmt};
use crate::types::{Location, MemoryType, ScalarType, Type};

/// Integer immediate (scalar `int32`).
#[must_use]
pub fn int(v: i64) -> Expr {
    Expr::IntImm(v)
}

/// `float32` immediate.
#[must_use]
pub fn flt(v: f64) -> Expr {
    Expr::FloatImm(v, ScalarType::F32)
}

/// Floating immediate with explicit element type.
#[must_use]
pub fn flt_t(v: f64, st: ScalarType) -> Expr {
    Expr::FloatImm(v, st)
}

/// Scalar `int32` variable.
#[must_use]
pub fn var(name: &str) -> Expr {
    Expr::Var(name.to_string(), ScalarType::I32)
}

/// Scalar variable with explicit element type.
#[must_use]
pub fn var_t(name: &str, st: ScalarType) -> Expr {
    Expr::Var(name.to_string(), st)
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    let (a, b) = match_lanes(a, b);
    Expr::Binary(op, Box::new(a), Box::new(b))
}

/// Broadcasts the scalar side of a scalar/vector pair so both operands have
/// equal lane counts (Halide's implicit broadcasting rule).
#[must_use]
pub fn match_lanes(a: Expr, b: Expr) -> (Expr, Expr) {
    let (la, lb) = (a.lanes(), b.lanes());
    if la == lb {
        (a, b)
    } else if la == 1 {
        let b_l = lb;
        (bcast(a, b_l), b)
    } else if lb == 1 {
        (a, bcast(b, la))
    } else {
        panic!("cannot match lanes {la} vs {lb}");
    }
}

/// Pointwise addition (scalars broadcast implicitly).
#[must_use]
pub fn add(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Add, a, b)
}

/// Pointwise subtraction.
#[must_use]
pub fn sub(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Sub, a, b)
}

/// Pointwise multiplication.
#[must_use]
pub fn mul(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Mul, a, b)
}

/// Pointwise Euclidean division.
#[must_use]
pub fn div(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Div, a, b)
}

/// Pointwise Euclidean remainder.
#[must_use]
pub fn modulo(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Mod, a, b)
}

/// Pointwise minimum.
#[must_use]
pub fn min(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Min, a, b)
}

/// Pointwise maximum.
#[must_use]
pub fn max(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Max, a, b)
}

/// Pointwise `<`.
#[must_use]
pub fn lt(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Lt, a, b)
}

/// Pointwise `<=`.
#[must_use]
pub fn le(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Le, a, b)
}

/// Pointwise `==`.
#[must_use]
pub fn eq(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Eq, a, b)
}

/// Pointwise logical and.
#[must_use]
pub fn and(a: Expr, b: Expr) -> Expr {
    bin(BinOp::And, a, b)
}

/// Pointwise logical or.
#[must_use]
pub fn or(a: Expr, b: Expr) -> Expr {
    bin(BinOp::Or, a, b)
}

/// Pointwise select `cond ? t : f` (scalar condition broadcasts).
#[must_use]
pub fn select(cond: Expr, t: Expr, f: Expr) -> Expr {
    let (t, f) = match_lanes(t, f);
    let cond = if cond.lanes() == t.lanes() {
        cond
    } else {
        bcast(cond, t.lanes())
    };
    Expr::Select(Box::new(cond), Box::new(t), Box::new(f))
}

/// `ramp(base, stride, lanes)`: the linear sequence primitive.
#[must_use]
pub fn ramp(base: Expr, stride: Expr, lanes: u32) -> Expr {
    assert_eq!(
        base.lanes(),
        stride.lanes(),
        "ramp base/stride lane mismatch"
    );
    Expr::Ramp {
        base: Box::new(base),
        stride: Box::new(stride),
        lanes,
    }
}

/// `broadcast(value, lanes)`, printed `x{lanes}(value)`.
#[must_use]
pub fn bcast(value: Expr, lanes: u32) -> Expr {
    Expr::Broadcast {
        value: Box::new(value),
        lanes,
    }
}

/// Vectorized load `buffer[index]` of the given result type.
///
/// # Panics
///
/// Panics if `ty.lanes` differs from `index` lanes.
#[must_use]
pub fn load(ty: Type, buffer: &str, index: Expr) -> Expr {
    assert_eq!(ty.lanes, index.lanes(), "load type/index lane mismatch");
    Expr::Load {
        ty,
        buffer: buffer.to_string(),
        index: Box::new(index),
    }
}

/// Type-converting cast.
#[must_use]
pub fn cast(ty: Type, value: Expr) -> Expr {
    assert_eq!(ty.lanes, value.lanes(), "cast must preserve lanes");
    Expr::Cast(ty, Box::new(value))
}

/// Casts to `float32` preserving lane count (the common accumulate cast).
#[must_use]
pub fn cast_f32(value: Expr) -> Expr {
    let lanes = value.lanes();
    cast(Type::f32().with_lanes(lanes), value)
}

/// `vector_reduce_add(lanes, value)`.
#[must_use]
pub fn vreduce_add(lanes: u32, value: Expr) -> Expr {
    Expr::VectorReduceAdd {
        lanes,
        value: Box::new(value),
    }
}

/// Intrinsic call.
#[must_use]
pub fn call(ty: Type, name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call {
        ty,
        name: name.to_string(),
        args,
    }
}

/// Generic location-to-location data movement.
#[must_use]
pub fn loc_to_loc(from: Location, to: Location, value: Expr) -> Expr {
    Expr::LocToLoc {
        from,
        to,
        value: Box::new(value),
    }
}

/// `mem_to_amx(value)`: value moved into AMX tile registers.
#[must_use]
pub fn mem_to_amx(value: Expr) -> Expr {
    loc_to_loc(Location::Mem, Location::Amx, value)
}

/// `amx_to_mem(value)`: tile register contents stored back to memory.
#[must_use]
pub fn amx_to_mem(value: Expr) -> Expr {
    loc_to_loc(Location::Amx, Location::Mem, value)
}

/// `mem_to_wmma(value)`: value moved into WMMA fragments.
#[must_use]
pub fn mem_to_wmma(value: Expr) -> Expr {
    loc_to_loc(Location::Mem, Location::Wmma, value)
}

/// `wmma_to_mem(value)`: fragment contents stored back to memory.
#[must_use]
pub fn wmma_to_mem(value: Expr) -> Expr {
    loc_to_loc(Location::Wmma, Location::Mem, value)
}

/// Store statement `buffer[index] = value`.
#[must_use]
pub fn store(buffer: &str, index: Expr, value: Expr) -> Stmt {
    assert_eq!(index.lanes(), value.lanes(), "store index/value lanes");
    Stmt::Store {
        buffer: buffer.to_string(),
        index,
        value,
    }
}

/// Evaluate-for-side-effect statement.
#[must_use]
pub fn evaluate(e: Expr) -> Stmt {
    Stmt::Evaluate(e)
}

/// Serial `for` loop.
#[must_use]
pub fn for_serial(v: &str, min: Expr, extent: Expr, body: Stmt) -> Stmt {
    for_kind(v, min, extent, ForKind::Serial, body)
}

/// Loop with an explicit kind.
#[must_use]
pub fn for_kind(v: &str, min: Expr, extent: Expr, kind: ForKind, body: Stmt) -> Stmt {
    Stmt::For {
        var: v.to_string(),
        min,
        extent,
        kind,
        body: Box::new(body),
    }
}

/// Statement sequence.
#[must_use]
pub fn block(stmts: Vec<Stmt>) -> Stmt {
    Stmt::Block(stmts)
}

/// Scoped allocation.
#[must_use]
pub fn allocate(name: &str, elem: ScalarType, size: u64, memory: MemoryType, body: Stmt) -> Stmt {
    Stmt::Allocate {
        name: name.to_string(),
        elem,
        size,
        memory,
        body: Box::new(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_scalar_broadcast() {
        let e = add(var("x"), bcast(int(1), 8));
        assert_eq!(e.lanes(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot match lanes")]
    fn mismatched_vectors_rejected() {
        let _ = add(bcast(int(0), 4), bcast(int(0), 8));
    }

    #[test]
    fn select_broadcasts_condition() {
        let e = select(lt(var("x"), int(3)), bcast(flt(1.0), 4), bcast(flt(0.0), 4));
        assert_eq!(e.lanes(), 4);
    }

    #[test]
    #[should_panic(expected = "lane mismatch")]
    fn load_lane_mismatch_rejected() {
        let _ = load(Type::f32().with_lanes(8), "A", int(0));
    }

    #[test]
    fn movement_helpers_compose() {
        let v = bcast(flt(0.0), 16);
        let e = amx_to_mem(mem_to_amx(v));
        match e {
            Expr::LocToLoc { from, to, .. } => {
                assert_eq!(from, Location::Amx);
                assert_eq!(to, Location::Mem);
            }
            other => panic!("expected LocToLoc, got {other:?}"),
        }
    }

    #[test]
    fn store_checks_lanes() {
        let s = store("out", ramp(int(0), int(1), 4), bcast(flt(0.0), 4));
        match s {
            Stmt::Store { buffer, .. } => assert_eq!(buffer, "out"),
            other => panic!("expected store, got {other:?}"),
        }
    }
}
