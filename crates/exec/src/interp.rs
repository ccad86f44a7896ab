//! The IR interpreter.
//!
//! Executes lowered `hb-ir` statements over simulated [`Memory`], dispatching
//! accelerator intrinsics into the `hb-accel` functional units, and counting
//! the work performed (CUDA FLOPs, tensor FMAs, bytes per memory level) for
//! the roofline performance model.

use std::collections::HashMap;

use hb_accel::amx::AmxUnit;
use hb_accel::counters::CostCounters;
use hb_accel::wmma::TensorCoreUnit;
use hb_ir::expr::{BinOp, Expr};
use hb_ir::numeric::round_to;
use hb_ir::stmt::{ForKind, Stmt};
use hb_ir::symbol::Symbol;
use hb_ir::types::ScalarType;

use crate::buffer::{ExecError, ExecResult, Memory};
use crate::intrinsics;
use crate::value::Value;

/// Interpreter state: memory, loop environment, accelerator units, counters.
#[derive(Debug, Clone, Default)]
pub struct Interp {
    /// Simulated memory (owns the byte counters).
    pub mem: Memory,
    /// Loop-variable bindings.
    env: HashMap<Symbol, i64>,
    /// AMX tile unit.
    pub amx: AmxUnit,
    /// Tensor-core unit.
    pub tc: TensorCoreUnit,
    /// Scalar/SIMT float operations executed outside accelerator intrinsics.
    pub cuda_flops: u64,
    /// Kernel launches recorded via [`Interp::run_kernel`].
    pub kernel_launches: u64,
}

impl Interp {
    /// Fresh interpreter with empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles the full cost-counter set for the work executed so far.
    #[must_use]
    pub fn counters(&self) -> CostCounters {
        let mut c = self.mem.counters;
        c.tensor_fmas = self.amx.fmas + self.tc.fmas;
        c.cuda_flops = self.cuda_flops;
        c.kernel_launches = self.kernel_launches;
        c
    }

    /// Binds a loop/parameter variable for the duration of the run.
    pub fn bind(&mut self, name: &str, v: i64) {
        self.env.insert(Symbol::from(name), v);
    }

    /// Current binding of a variable.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<i64> {
        self.env.get(&Symbol::from(name)).copied()
    }

    /// Runs a statement as one GPU kernel (counts a launch).
    ///
    /// # Errors
    ///
    /// Propagates any execution error.
    pub fn run_kernel(&mut self, stmt: &Stmt) -> ExecResult<()> {
        self.kernel_launches += 1;
        self.exec(stmt)
    }

    /// Executes a statement tree.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds accesses, unknown buffers/variables, or
    /// malformed intrinsic calls.
    pub fn exec(&mut self, stmt: &Stmt) -> ExecResult<()> {
        match stmt {
            Stmt::Store {
                buffer,
                index,
                value,
            } => {
                let idx = self.eval(index)?;
                let val = self.eval(value)?;
                self.mem.write(buffer, &idx.to_indices(), &val.data)
            }
            Stmt::Evaluate(e) => {
                let _ = self.eval(e)?;
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec(s)?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                min,
                extent,
                kind,
                body,
            } => {
                let min = self.eval(min)?.as_i64();
                let extent = self.eval(extent)?.as_i64();
                let saved = self.env.get(var).copied();
                if *kind == ForKind::GpuLane {
                    // Warp-synchronous: WMMA statements execute once for the
                    // whole warp (the functional simulator holds whole tiles).
                    self.env.insert(*var, min);
                    self.exec(body)?;
                } else {
                    for i in min..min + extent {
                        self.env.insert(*var, i);
                        self.exec(body)?;
                    }
                }
                match saved {
                    Some(v) => self.env.insert(*var, v),
                    None => self.env.remove(var),
                };
                Ok(())
            }
            Stmt::Allocate {
                name,
                elem,
                size,
                memory,
                body,
            } => {
                self.mem.alloc(name, *elem, *size as usize, *memory)?;
                let result = self.exec(body);
                self.mem.free(name)?;
                result
            }
            Stmt::If { cond, then_case } => {
                let c = self.eval(cond)?;
                if c.as_i64() != 0 {
                    self.exec(then_case)?;
                }
                Ok(())
            }
        }
    }

    /// Evaluates an expression to a [`Value`].
    ///
    /// # Errors
    ///
    /// Fails on unknown variables/buffers or intrinsic misuse.
    pub fn eval(&mut self, e: &Expr) -> ExecResult<Value> {
        match e {
            Expr::IntImm(v) => Ok(Value::int(*v)),
            Expr::FloatImm(v, st) => Ok(Value::float(round_to(*st, *v), *st)),
            Expr::Var(name, st) => {
                let v = self
                    .env
                    .get(name)
                    .copied()
                    .ok_or_else(|| ExecError(format!("unbound variable {name}")))?;
                Ok(Value::new(hb_ir::types::Type::new(*st, 1), vec![v as f64]))
            }
            Expr::Cast(ty, v) => {
                let val = self.eval(v)?;
                let data = val.data.iter().map(|&x| round_to(ty.elem, x)).collect();
                Ok(Value::new(*ty, data))
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.eval_binary(*op, &va, &vb)
            }
            Expr::Select(c, t, f) => {
                let vc = self.eval(c)?;
                let vt = self.eval(t)?;
                let vf = self.eval(f)?;
                let data = vc
                    .data
                    .iter()
                    .zip(vt.data.iter().zip(vf.data.iter()))
                    .map(|(&c, (&t, &f))| if c != 0.0 { t } else { f })
                    .collect();
                Ok(Value::new(vt.ty, data))
            }
            Expr::Ramp {
                base,
                stride,
                lanes,
            } => {
                let vb = self.eval(base)?;
                let vs = self.eval(stride)?;
                let inner = vb.lanes();
                let mut data = Vec::with_capacity(inner * *lanes as usize);
                for i in 0..i64::from(*lanes) {
                    for j in 0..inner {
                        data.push(vb.data[j] + i as f64 * vs.data[j]);
                    }
                }
                Ok(Value::new(vb.ty.with_lanes(vb.ty.lanes * lanes), data))
            }
            Expr::Broadcast { value, lanes } => Ok(self.eval(value)?.broadcast(*lanes)),
            Expr::Load { ty, buffer, index } => {
                let idx = self.eval(index)?;
                let data = self.mem.read(buffer, &idx.to_indices())?;
                Ok(Value::new(*ty, data))
            }
            Expr::VectorReduceAdd { lanes, value } => {
                let v = self.eval(value)?;
                let out_lanes = *lanes as usize;
                if v.lanes() % out_lanes != 0 {
                    return Err(ExecError(format!(
                        "vector_reduce_add: {} lanes not divisible by {out_lanes}",
                        v.lanes()
                    )));
                }
                let group = v.lanes() / out_lanes;
                let mut data = Vec::with_capacity(out_lanes);
                for i in 0..out_lanes {
                    data.push(v.data[i * group..(i + 1) * group].iter().sum());
                }
                if v.ty.elem.is_float() {
                    self.cuda_flops += (v.lanes() - out_lanes) as u64;
                }
                Ok(Value::new(v.ty.with_lanes(*lanes), data))
            }
            Expr::Call { ty, name, args } => intrinsics::dispatch(self, name, args, *ty),
            Expr::LocToLoc { value, .. } => self.eval(value),
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: &Value, b: &Value) -> ExecResult<Value> {
        if a.lanes() != b.lanes() {
            return Err(ExecError(format!(
                "binary lane mismatch: {} vs {}",
                a.lanes(),
                b.lanes()
            )));
        }
        let int_ty = a.ty.elem == ScalarType::I32 || a.ty.elem == ScalarType::Bool;
        let data: ExecResult<Vec<f64>> = a
            .data
            .iter()
            .zip(b.data.iter())
            .map(|(&x, &y)| apply_binop(op, x, y, int_ty))
            .collect();
        let data = data?;
        let out_ty = if op.is_comparison() {
            a.ty.with_lanes(a.ty.lanes).elem_to_bool()
        } else {
            a.ty
        };
        if a.ty.elem.is_float() && !op.is_comparison() {
            self.cuda_flops += a.lanes() as u64;
        }
        let data = if out_ty.elem.is_float() && !op.is_comparison() {
            data.into_iter().map(|v| round_to(out_ty.elem, v)).collect()
        } else {
            data
        };
        Ok(Value::new(out_ty, data))
    }
}

fn apply_binop(op: BinOp, x: f64, y: f64, int_ty: bool) -> ExecResult<f64> {
    let v = if int_ty {
        let (xi, yi) = (x as i64, y as i64);
        let r = match op {
            BinOp::Add => xi + yi,
            BinOp::Sub => xi - yi,
            BinOp::Mul => xi * yi,
            BinOp::Div => {
                if yi == 0 {
                    return Err(ExecError("integer division by zero".into()));
                }
                xi.div_euclid(yi)
            }
            BinOp::Mod => {
                if yi == 0 {
                    return Err(ExecError("integer modulo by zero".into()));
                }
                xi.rem_euclid(yi)
            }
            BinOp::Min => xi.min(yi),
            BinOp::Max => xi.max(yi),
            BinOp::Lt => i64::from(xi < yi),
            BinOp::Le => i64::from(xi <= yi),
            BinOp::Eq => i64::from(xi == yi),
            BinOp::And => i64::from(xi != 0 && yi != 0),
            BinOp::Or => i64::from(xi != 0 || yi != 0),
        };
        r as f64
    } else {
        match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Mod => x.rem_euclid(y),
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::Lt => f64::from(x < y),
            BinOp::Le => f64::from(x <= y),
            BinOp::Eq => f64::from((x - y).abs() == 0.0),
            BinOp::And => f64::from(x != 0.0 && y != 0.0),
            BinOp::Or => f64::from(x != 0.0 || y != 0.0),
        }
    };
    Ok(v)
}

/// Extension trait used by the interpreter to form comparison result types.
trait TypeExt {
    fn elem_to_bool(self) -> hb_ir::types::Type;
}

impl TypeExt for hb_ir::types::Type {
    fn elem_to_bool(self) -> hb_ir::types::Type {
        hb_ir::types::Type::new(ScalarType::Bool, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder::*;
    use hb_ir::types::{MemoryType, Type};

    fn fresh_with(buffers: &[(&str, ScalarType, Vec<f64>)]) -> Interp {
        let mut it = Interp::new();
        for (name, elem, data) in buffers {
            it.mem
                .alloc_init(name, *elem, MemoryType::Heap, data)
                .unwrap();
        }
        it
    }

    #[test]
    fn scalar_arithmetic() {
        let mut it = Interp::new();
        let v = it.eval(&add(int(2), mul(int(3), int(4)))).unwrap();
        assert_eq!(v.as_i64(), 14);
        let v = it.eval(&modulo(int(-1), int(4))).unwrap();
        assert_eq!(v.as_i64(), 3, "euclidean mod");
    }

    #[test]
    fn ramp_and_broadcast_lanes() {
        let mut it = Interp::new();
        // ramp(ramp(0,1,3), x3(10), 2) = [0,1,2, 10,11,12]
        let e = ramp(ramp(int(0), int(1), 3), bcast(int(10), 3), 2);
        let v = it.eval(&e).unwrap();
        assert_eq!(v.to_indices(), vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn vectorized_load_store() {
        let mut it = fresh_with(&[("a", ScalarType::F32, vec![1.0, 2.0, 3.0, 4.0])]);
        it.mem
            .alloc("out", ScalarType::F32, 4, MemoryType::Heap)
            .unwrap();
        // out[ramp(0,1,4)] = a[ramp(3,-1,4)]  (reverse copy)
        let s = store(
            "out",
            ramp(int(0), int(1), 4),
            load(Type::f32().with_lanes(4), "a", ramp(int(3), int(-1), 4)),
        );
        it.exec(&s).unwrap();
        assert_eq!(it.mem.snapshot("out").unwrap(), vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn vector_reduce_add_groups() {
        let mut it = fresh_with(&[("a", ScalarType::F32, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])]);
        let e = vreduce_add(
            2,
            load(Type::f32().with_lanes(6), "a", ramp(int(0), int(1), 6)),
        );
        let v = it.eval(&e).unwrap();
        assert_eq!(v.data, vec![6.0, 15.0]);
        assert_eq!(it.cuda_flops, 4, "6->2 lanes = 4 adds");
    }

    #[test]
    fn loops_accumulate() {
        let mut it = fresh_with(&[("a", ScalarType::F32, (0..10).map(f64::from).collect())]);
        it.mem
            .alloc("sum", ScalarType::F32, 1, MemoryType::Heap)
            .unwrap();
        // for i in 0..10 { sum[0] = sum[0] + a[i] }
        let body = store(
            "sum",
            int(0),
            add(
                load(Type::f32(), "sum", int(0)),
                load(Type::f32(), "a", var("i")),
            ),
        );
        it.exec(&for_serial("i", int(0), int(10), body)).unwrap();
        assert_eq!(it.mem.snapshot("sum").unwrap()[0], 45.0);
    }

    #[test]
    fn gpu_lane_loop_executes_once() {
        let mut it = Interp::new();
        it.mem
            .alloc("c", ScalarType::F32, 1, MemoryType::Heap)
            .unwrap();
        let body = store("c", int(0), add(load(Type::f32(), "c", int(0)), flt(1.0)));
        let warp = for_kind("lane", int(0), int(32), ForKind::GpuLane, body);
        it.exec(&warp).unwrap();
        assert_eq!(it.mem.snapshot("c").unwrap()[0], 1.0);
    }

    #[test]
    fn allocate_scopes_buffers() {
        let mut it = Interp::new();
        let inner = store("tmp", int(0), flt(5.0));
        let s = allocate("tmp", ScalarType::F32, 4, MemoryType::Stack, inner);
        it.exec(&s).unwrap();
        assert!(!it.mem.contains("tmp"), "freed at scope exit");
        // Re-entrant: allocate inside a loop works.
        let s2 = for_serial(
            "i",
            int(0),
            int(3),
            allocate(
                "tmp",
                ScalarType::F32,
                4,
                MemoryType::Stack,
                store("tmp", int(0), flt(1.0)),
            ),
        );
        it.exec(&s2).unwrap();
    }

    #[test]
    fn if_guards() {
        let mut it = Interp::new();
        it.mem
            .alloc("c", ScalarType::F32, 1, MemoryType::Heap)
            .unwrap();
        let s = for_serial(
            "i",
            int(0),
            int(10),
            Stmt::If {
                cond: lt(var("i"), int(3)),
                then_case: Box::new(store(
                    "c",
                    int(0),
                    add(load(Type::f32(), "c", int(0)), flt(1.0)),
                )),
            },
        );
        it.exec(&s).unwrap();
        assert_eq!(it.mem.snapshot("c").unwrap()[0], 3.0);
    }

    #[test]
    fn float_ops_counted_as_cuda_flops() {
        let mut it = Interp::new();
        let e = mul(bcast(flt(2.0), 8), bcast(flt(3.0), 8));
        let _ = it.eval(&e).unwrap();
        assert_eq!(it.cuda_flops, 8);
        // Integer index arithmetic is free.
        let e2 = mul(bcast(int(2), 8), bcast(int(3), 8));
        let _ = it.eval(&e2).unwrap();
        assert_eq!(it.cuda_flops, 8);
    }

    #[test]
    fn kernel_launch_counting() {
        let mut it = Interp::new();
        it.mem
            .alloc("c", ScalarType::F32, 1, MemoryType::Heap)
            .unwrap();
        it.run_kernel(&store("c", int(0), flt(1.0))).unwrap();
        it.run_kernel(&store("c", int(0), flt(2.0))).unwrap();
        assert_eq!(it.counters().kernel_launches, 2);
    }

    #[test]
    fn f16_loads_round() {
        let mut it = fresh_with(&[("h", ScalarType::F16, vec![1.0 + 2f64.powi(-13)])]);
        let v = it.eval(&load(Type::f16(), "h", int(0))).unwrap();
        assert_eq!(v.data[0], 1.0);
    }

    #[test]
    fn division_by_zero_errors() {
        let mut it = Interp::new();
        assert!(it.eval(&div(int(1), int(0))).is_err());
        assert!(it.eval(&modulo(int(1), int(0))).is_err());
    }

    #[test]
    fn select_vectorized() {
        let mut it = Interp::new();
        let e = select(
            lt(ramp(int(0), int(1), 4), bcast(int(2), 4)),
            bcast(flt(1.0), 4),
            bcast(flt(0.0), 4),
        );
        let v = it.eval(&e).unwrap();
        assert_eq!(v.data, vec![1.0, 1.0, 0.0, 0.0]);
    }
}
