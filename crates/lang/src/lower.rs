//! Lowering: algorithms + schedules → `hb-ir` loop nests.
//!
//! Mirrors the Halide pipeline the paper builds on: loop-nest construction
//! from the schedule (splits, reorder, loop kinds), `compute_at`
//! realizations with interval-analysis region inference, reduction handling,
//! nested vectorization ([`crate::vectorize`]) and a final pass of the
//! pattern-obscuring simplifier ([`hb_ir::simplify`]) — the exact IR diet
//! HARDBOILED's equality saturation is designed to digest.
//!
//! Every step owns the tree it works on and edits it in place (the
//! discipline stated in [`hb_ir::expr`]): index expressions are built and
//! then simplified where they stand, a vectorized loop hands its body to
//! the consuming vectorizer ([`crate::vectorize`]), an unrolled loop is
//! one `clone` per copy plus an in-place substitute-and-simplify, and unit
//! loops and the final simplification rewrite the finished statement
//! without rebuilding it. Funcs are read through their `RefCell` borrow,
//! not cloned, and schedules are consulted under the names the user wrote —
//! only IR loop variables carry the `func__var` qualification. Every name is
//! a [`Symbol`], the type of the IR's names, so lowering compares and copies
//! 4-byte symbols and a call site's buffer name goes into the IR as is.
//!
//! # Cost
//!
//! Lowering is linear in what it builds. No step walks a subtree once per
//! node above it: the vectorizer scans each expression once per loop, a
//! node's type is O(depth) ([`Expr::ty`]), and "does this body load from
//! that producer?" is one walk. Beside the output's own nodes and names it
//! allocates little:
//!
//! - a stage binds its variables in a short list searched by name (`Env`),
//!   and each use of a binding copies its expression;
//! - a split's recombination moves into the one place its variable occurs,
//!   the loop order is computed over symbols, and a loop's qualified name
//!   is interned once per lowering (`Qualified`) through one reused buffer,
//!   so it allocates only the first time the process meets it;
//! - index sums are built unfolded (`0 + i·1 + …`) and left to the
//!   simplifier, which is the one place constants fold.
//!
//! `lower` never panics on a schedule or algorithm the front-end API can
//! express: inconsistent reorders, non-dividing splits, splits that reuse a
//! loop variable's name, non-positive vector divisors, producer call sites
//! whose regions cannot be merged and two funcs or images sharing a name
//! all come back as [`LowerError`] (`Session::compile` calls it outside its
//! `catch_unwind`).

use std::cell::RefCell;
use std::collections::HashMap;

use hb_ir::builder as b;
use hb_ir::expr::{BinOp, Expr};
use hb_ir::interval::{bounds_with, Interval};
use hb_ir::simplify::{simplify_in_place, simplify_stmt_in_place};
use hb_ir::stmt::{ForKind, Stmt};
use hb_ir::symbol::Symbol;
use hb_ir::types::{MemoryType, ScalarType, Type};

use crate::ast::{get, ComputePlacement, Func, HExpr, ImageParam, Pipeline};
use crate::schedule::{LoopKind, StageSchedule};
use crate::vectorize::{LowerError, LowerResult, WidenScratch};

/// One dimension of a realized region.
#[derive(Debug, Clone)]
pub struct RegionDim {
    /// Global index of the first element (an expression over outer loop
    /// variables).
    pub min: Expr,
    /// Static extent.
    pub size: i64,
}

/// Region per producer name.
type Regions = Vec<(Symbol, Vec<RegionDim>)>;

/// A stage's bindings: each variable name the algorithm writes → its IR
/// expression. A stage binds a handful of names, so a scan beats hashing.
struct Env {
    vars: Vec<(Symbol, Expr)>,
}

impl Env {
    /// A copy of the expression `name` is bound to.
    fn lookup(&self, name: Symbol) -> Option<Expr> {
        self.vars
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| e.clone())
    }
}

/// The result of lowering a pipeline.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The complete statement (producer allocations inside).
    pub stmt: Stmt,
    /// Buffer placements (output, images, and accelerator buffers).
    pub placements: HashMap<String, MemoryType>,
    /// Output buffer name.
    pub output_name: String,
    /// Output element type.
    pub output_elem: ScalarType,
    /// Output length in elements.
    pub output_len: i64,
    /// Input images: `(name, elem, len)`.
    pub inputs: Vec<(String, ScalarType, i64)>,
}

/// One final loop of a stage.
struct LoopVar {
    /// The schedule's name of the loop variable.
    var: Symbol,
    /// Its IR name, qualified with the func name ([`Qualified`]), so
    /// producer loops never shadow consumer loops (region minima reference
    /// consumer variables symbolically).
    ir: Symbol,
    /// Trip count.
    extent: i64,
    /// How the loop executes.
    kind: LoopKind,
    /// Whether it descends from a reduction variable.
    is_rvar: bool,
}

/// Per-stage lowering context.
struct StageCtx {
    /// Final loops, innermost first.
    vars: Vec<LoopVar>,
    /// Whether `atomic()` was requested.
    atomic: bool,
}

/// The IR names of schedule variables, `fname__var`, each pair interned at
/// most once per lowering: a pair met again is a scan of this short list,
/// which takes no lock.
struct Qualified {
    names: Vec<((Symbol, Symbol), Symbol)>,
}

impl Qualified {
    fn new() -> Self {
        // Room for the pairs of a typical pipeline: one allocation.
        Qualified {
            names: Vec::with_capacity(32),
        }
    }

    /// The IR name of `fname`'s schedule variable `var`. A pair met first
    /// is built in a reused buffer, so a name the process met before costs
    /// no allocation.
    fn get(&mut self, fname: Symbol, var: Symbol) -> Symbol {
        thread_local! {
            static NAME: RefCell<String> = const { RefCell::new(String::new()) };
        }
        if let Some(&(_, name)) = self.names.iter().find(|(key, _)| *key == (fname, var)) {
            return name;
        }
        let name = NAME.with_borrow_mut(|name| {
            name.clear();
            name.push_str(&fname);
            name.push_str("__");
            name.push_str(&var);
            Symbol::from(name.as_str())
        });
        self.names.push(((fname, var), name));
        name
    }
}

/// A loop variable's IR name as an IR variable.
fn loop_var(ir: Symbol) -> Expr {
    Expr::Var(ir, ScalarType::I32)
}

/// One live variable while the splits rewrite a stage's roots.
struct Live {
    /// The schedule's name.
    var: Symbol,
    /// The IR name.
    ir: Symbol,
    extent: i64,
    is_rvar: bool,
    /// The index of the root whose recombination the variable occurs in
    /// (exactly once).
    root: usize,
}

/// Builds the loop structure of one stage of `fname`, and each root
/// variable's recombination over the final loop variables (local
/// coordinates, starting at zero), in the order of `roots`. `roots` and the
/// schedule use the algorithm's variable names; only the IR names in the
/// result are qualified.
fn stage_ctx(
    fname: Symbol,
    roots: impl Iterator<Item = (Symbol, i64, bool)>, // (name, extent, is_rvar) innermost first
    sched: &StageSchedule,
    qualified: &mut Qualified,
) -> LowerResult<(StageCtx, Vec<(Symbol, Expr)>)> {
    let num_roots = roots.size_hint().0;
    let mut live: Vec<Live> = Vec::with_capacity(num_roots + sched.splits.len());
    let mut recomb: Vec<(Symbol, Expr)> = Vec::with_capacity(num_roots);
    for (root, (var, extent, is_rvar)) in roots.enumerate() {
        if live.iter().any(|l| l.var == var) {
            return Err(LowerError(format!(
                "{fname}: variable {var} is bound twice"
            )));
        }
        let ir = qualified.get(fname, var);
        live.push(Live {
            var,
            ir,
            extent,
            is_rvar,
            root,
        });
        recomb.push((var, loop_var(ir)));
    }
    for split in &sched.splits {
        let pos = live
            .iter()
            .position(|l| l.var == split.old)
            .ok_or_else(|| {
                LowerError(format!("split of unknown variable {fname}__{}", split.old))
            })?;
        let old = live.swap_remove(pos);
        if split.factor <= 0 || old.extent % split.factor != 0 {
            return Err(LowerError(format!(
                "split of {} (extent {}) by non-dividing factor {}",
                old.ir, old.extent, split.factor
            )));
        }
        let (outer, inner) = (split.outer, split.inner);
        if outer == inner || live.iter().any(|l| l.var == outer || l.var == inner) {
            return Err(LowerError(format!(
                "{fname}: split of {} into {outer} and {inner} reuses a loop variable's name",
                split.old
            )));
        }
        let (outer_ir, inner_ir) = (qualified.get(fname, outer), qualified.get(fname, inner));
        // The recombination moves into the one place `old` occurs.
        let mut replacement = Some(b::add(
            b::mul(loop_var(outer_ir), b::int(split.factor)),
            loop_var(inner_ir),
        ));
        recomb[old.root].1.rewrite_bottom_up(&mut |e| match e {
            Expr::Var(n, _) if *n == old.ir => replacement.take().map(|r| *e = r).is_some(),
            _ => false,
        });
        live.push(Live {
            var: inner,
            ir: inner_ir,
            extent: split.factor,
            ..old
        });
        live.push(Live {
            var: outer,
            ir: outer_ir,
            extent: old.extent / split.factor,
            ..old
        });
    }
    let order = sched
        .try_loop_vars(recomb.iter().map(|&(var, _)| var))
        .map_err(|e| LowerError(format!("{fname}: {e}")))?;
    let vars = order
        .into_iter()
        .map(|var| {
            let l = live
                .iter()
                .find(|l| l.var == var)
                .expect("loop order and live variables come from the same splits");
            LoopVar {
                var,
                ir: l.ir,
                extent: l.extent,
                kind: sched.kind(var),
                is_rvar: l.is_rvar,
            }
        })
        .collect();
    let ctx = StageCtx {
        vars,
        atomic: sched.atomic,
    };
    Ok((ctx, recomb))
}

/// Merges the region one call site needs into the region of the sites
/// before it, dimension by dimension: the smaller minimum, and a size
/// reaching the farther end. Two minima must differ by a constant (the
/// same expression up to an integer offset) for the ends to compare.
fn merge_regions(
    pname: &str,
    prev: Vec<RegionDim>,
    site: Vec<RegionDim>,
) -> LowerResult<Vec<RegionDim>> {
    prev.into_iter()
        .zip(site)
        .map(|(a, bb)| {
            if a.min == bb.min {
                return Ok(RegionDim {
                    size: a.size.max(bb.size),
                    min: a.min,
                });
            }
            let delta = constant_offset(&a.min, &bb.min).ok_or_else(|| {
                LowerError(format!(
                    "call sites of {pname} start at {} and {}, which differ by a non-constant",
                    a.min, bb.min
                ))
            })?;
            // `bb` starts `delta` elements after `a`; the region runs from
            // the smaller start to the farther end.
            let (min, lead) = if delta >= 0 {
                (a.min, Some(0))
            } else {
                (bb.min, delta.checked_neg())
            };
            let size = lead
                .and_then(|lead| {
                    let end_a = a.size.checked_add(lead)?;
                    let end_b = bb.size.checked_add(delta.checked_add(lead)?)?;
                    Some(end_a.max(end_b))
                })
                .ok_or_else(|| LowerError(format!("the region of {pname} overflows")))?;
            Ok(RegionDim { min, size })
        })
        .collect()
}

/// `b - a` when `a` and `b` are one expression plus different integer
/// constants (`x`, `x + 1`, `x - 2`, `3`).
fn constant_offset(a: &Expr, b: &Expr) -> Option<i64> {
    /// Splits off the integer constant added at the top: `(rest, c)`.
    fn split(e: &Expr) -> Option<(Option<&Expr>, i64)> {
        Some(match e {
            Expr::IntImm(c) => (None, *c),
            Expr::Binary(op @ (BinOp::Add | BinOp::Sub), x, y) => match (x.as_int(), y.as_int()) {
                (_, Some(c)) => {
                    let (rest, d) = split(x)?;
                    let sum = if *op == BinOp::Add {
                        d.checked_add(c)
                    } else {
                        d.checked_sub(c)
                    };
                    (rest, sum?)
                }
                (Some(c), None) if *op == BinOp::Add => {
                    let (rest, d) = split(y)?;
                    (rest, c.checked_add(d)?)
                }
                _ => (Some(e), 0),
            },
            _ => (Some(e), 0),
        })
    }
    let ((ra, ca), (rb, cb)) = (split(a)?, split(b)?);
    if ra == rb {
        cb.checked_sub(ca)
    } else {
        None
    }
}

/// The lowering driver.
struct Lowerer<'a> {
    /// The pipeline's funcs, by name.
    funcs: Vec<(Symbol, &'a Func)>,
    /// The pipeline's input images.
    images: &'a [ImageParam],
    placements: HashMap<String, MemoryType>,
    qualified: Qualified,
    /// The vectorizer's scan buffer, shared by every vectorized loop.
    widen: WidenScratch,
}

impl<'a> Lowerer<'a> {
    fn image(&self, name: Symbol) -> Option<&'a ImageParam> {
        self.images.iter().find(|i| i.name == name)
    }

    fn func(&self, name: Symbol) -> Option<&'a Func> {
        self.funcs.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
    }

    /// Lowers a front-end expression to scalar IR under `env`.
    fn lower_hexpr(&self, e: &HExpr, env: &Env, regions: &Regions) -> LowerResult<Expr> {
        match e {
            HExpr::Int(v) => Ok(b::int(*v)),
            HExpr::Float(v, st) => Ok(b::flt_t(*v, *st)),
            HExpr::Var(name) => env
                .lookup(*name)
                .ok_or_else(|| LowerError(format!("unbound variable {name}"))),
            HExpr::Binary(op, a, bb) => {
                let a = self.lower_hexpr(a, env, regions)?;
                let bb = self.lower_hexpr(bb, env, regions)?;
                Ok(Expr::Binary(*op, Box::new(a), Box::new(bb)))
            }
            HExpr::Cast(st, inner) => {
                let inner = self.lower_hexpr(inner, env, regions)?;
                Ok(b::cast(Type::new(*st, 1), inner))
            }
            HExpr::Select(ops) => {
                let [c, t, f] = &**ops;
                let c = self.lower_hexpr(c, env, regions)?;
                let t = self.lower_hexpr(t, env, regions)?;
                let f = self.lower_hexpr(f, env, regions)?;
                Ok(b::select(c, t, f))
            }
            HExpr::Call(name, args) => self.lower_call(*name, args, env, regions),
        }
    }

    fn lower_call(
        &self,
        name: Symbol,
        args: &[HExpr],
        env: &Env,
        regions: &Regions,
    ) -> LowerResult<Expr> {
        if let Some(img) = self.image(name) {
            let mut idx = b::int(0);
            for (a, stride) in args.iter().zip(img.strides()) {
                let a = self.lower_hexpr(a, env, regions)?;
                idx = b::add(idx, b::mul(a, b::int(stride)));
            }
            simplify_in_place(&mut idx);
            return Ok(b::load(Type::new(img.elem, 1), name, idx));
        }
        let f = self
            .func(name)
            .ok_or_else(|| LowerError(format!("call to unknown func {name}")))?;
        let inner = f.borrow();
        match &inner.placement {
            ComputePlacement::Inline => {
                if inner.update_def().is_some() {
                    return Err(LowerError(format!(
                        "func {name} has an update and must be given a compute_at placement"
                    )));
                }
                let def = inner
                    .pure_def
                    .as_ref()
                    .ok_or_else(|| LowerError(format!("inlined func {name} is undefined")))?;
                let substituted = subst_hexpr(def, &inner.dims, args);
                self.lower_hexpr(&substituted, env, regions)
            }
            ComputePlacement::At { .. } => {
                let region = regions
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, r)| r)
                    .ok_or_else(|| {
                        LowerError(format!(
                            "func {name} is used here but realized in a different scope"
                        ))
                    })?;
                let mut idx = b::int(0);
                let mut stride = 1i64;
                for (a, dim) in args.iter().zip(region.iter()) {
                    let a = self.lower_hexpr(a, env, regions)?;
                    let local = b::sub(a, dim.min.clone());
                    idx = b::add(idx, b::mul(local, b::int(stride)));
                    stride *= dim.size;
                }
                simplify_in_place(&mut idx);
                Ok(b::load(Type::new(inner.elem, 1), name, idx))
            }
        }
    }

    /// Infers the region of `producer` required by `consumer`, realized at
    /// the loop `ctx.vars[at]` of the consumer's stage described by
    /// `ctx`/`env`.
    fn infer_region(
        &self,
        consumer: &Func,
        producer: &Func,
        at: usize,
        ctx: &StageCtx,
        env: &Env,
        regions: &Regions,
    ) -> LowerResult<Vec<RegionDim>> {
        let pinner = producer.borrow();
        let pname = pinner.name;
        // Gather call sites in the consumer's definitions.
        let cinner = consumer.borrow();
        let mut sites: Vec<&[HExpr]> = Vec::new();
        if let Some(d) = &cinner.pure_def {
            collect_call_args(d, pname, &mut sites);
        }
        if let Some(u) = cinner.update_def() {
            collect_call_args(&u.rhs, pname, &mut sites);
        }
        if sites.is_empty() {
            return Err(LowerError(format!(
                "{pname} is computed at {} of {} but never called by it",
                ctx.vars[at].ir, cinner.name
            )));
        }
        let arity = pinner.dims.len();
        // Loop variables strictly inside the realization loop vary per
        // instance; everything else is pinned to 0 for the size.
        let inner_vars = &ctx.vars[..at];
        let inner_var = |name: Symbol| inner_vars.iter().find(|lv| lv.ir == name);
        let range_of = |name: Symbol| {
            Some(inner_var(name).map_or(Interval::point(0), |lv| Interval::new(0, lv.extent - 1)))
        };

        let mut region: Option<Vec<RegionDim>> = None;
        for site in sites {
            if site.len() != arity {
                return Err(LowerError(format!("arity mismatch calling {pname}")));
            }
            let mut dims = Vec::with_capacity(arity);
            for arg in site {
                let idx = self.lower_hexpr(arg, env, regions)?;
                let iv = bounds_with(&idx, &range_of)
                    .ok_or_else(|| LowerError(format!("cannot bound access {idx} to {pname}")))?;
                // Min: inner vars at zero, outer ones kept symbolic.
                let mut min = idx;
                min.rewrite_bottom_up(&mut |e| match e {
                    Expr::Var(n, _) if inner_var(*n).is_some() => {
                        *e = Expr::IntImm(0);
                        true
                    }
                    _ => false,
                });
                simplify_in_place(&mut min);
                dims.push(RegionDim {
                    min,
                    size: iv.extent(),
                });
            }
            region = Some(match region.take() {
                None => dims,
                Some(prev) => merge_regions(&pname, prev, dims)?,
            });
        }
        Ok(region.expect("at least one site"))
    }

    /// Realizes `f` over `region`, returning the statement computing it
    /// (without the enclosing allocation — the caller scopes it).
    #[allow(clippy::too_many_lines)]
    fn realize(&mut self, f: &Func, region: &[RegionDim]) -> LowerResult<Stmt> {
        let inner = f.borrow();
        let fname = inner.name;
        let update_stage =
            (inner.update.as_deref()).and_then(|u| Some((u.def.as_ref()?, &u.schedule)));
        // Sized exactly: the returned program keeps this capacity.
        let mut stages = Vec::with_capacity(1 + usize::from(update_stage.is_some()));
        let stage_descrs = std::iter::once((None, &inner.init_schedule))
            .chain(update_stage.map(|(u, sched)| (Some(u), sched)));
        for (update, sched) in stage_descrs {
            // Roots: reduction vars innermost, then dims.
            let rvars = update.map_or(&[][..], |u| &u.rdom.vars[..]);
            let roots = (rvars.iter().map(|&(rv, _, extent)| (rv, extent, true)))
                .chain((inner.dims.iter().zip(region)).map(|(&d, r)| (d, r.size, false)));
            let (ctx, recomb) = stage_ctx(fname, roots, sched, &mut self.qualified)?;
            let mut env = Env { vars: recomb };

            // The leaf's index: the dims' local coordinates.
            let mut idx = b::int(0);
            let mut stride = 1i64;
            for ((_, local), r) in env.vars[rvars.len()..].iter().zip(region) {
                idx = b::add(idx, b::mul(local.clone(), b::int(stride)));
                stride *= r.size;
            }
            simplify_in_place(&mut idx);

            // Environment: each root's recombination becomes its global
            // coordinate, min + recombination.
            let mins = rvars
                .iter()
                .map(|(_, rmin, _)| b::int(*rmin))
                .chain(region.iter().map(|r| r.min.clone()));
            for ((_, coord), min) in env.vars.iter_mut().zip(mins) {
                *coord = b::add(min, coord.take());
                simplify_in_place(coord);
            }

            // Regions of this func's own producers (used in both leaf
            // construction and loop wrapping), and the loop each is
            // realized in.
            let mut regions = Regions::new();
            let mut realize_plan: Vec<(usize, &Func)> = Vec::new();
            for &(pname, prod) in &self.funcs {
                let at = match prod.borrow().placement {
                    ComputePlacement::At { consumer, var } if consumer == fname => {
                        ctx.vars.iter().position(|lv| lv.var == var)
                    }
                    _ => continue, // not one of this func's producers
                };
                let Some(at) = at else {
                    continue; // realized in the other stage's loops
                };
                let r = self.infer_region(f, prod, at, &ctx, &env, &regions)?;
                regions.push((pname, r));
                realize_plan.push((at, prod));
            }

            // Leaf statement.
            let mut body = if let Some(u) = update {
                let rhs = self.lower_hexpr(&u.rhs, &env, &regions)?;
                let load = b::load(Type::new(inner.elem, 1), fname, idx.clone());
                b::store(fname, idx, b::add(load, rhs))
            } else {
                let d = inner
                    .pure_def
                    .as_ref()
                    .ok_or_else(|| LowerError(format!("func {fname} has no pure definition")))?;
                let rhs = self.lower_hexpr(d, &env, &regions)?;
                b::store(fname, idx, rhs)
            };

            // Wrap loops innermost-first.
            for (
                at,
                LoopVar {
                    ir,
                    extent,
                    kind,
                    is_rvar,
                    ..
                },
            ) in ctx.vars.into_iter().enumerate()
            {
                // Attach producer realizations scheduled at this loop (only
                // if this stage actually uses them).
                for (r, &(plan_at, prod)) in realize_plan.iter().enumerate() {
                    if plan_at != at {
                        continue;
                    }
                    let pinner = prod.borrow();
                    let pname = pinner.name;
                    let mut used = false;
                    body.for_each_expr(&mut |e| {
                        used |= matches!(e, Expr::Load { buffer, .. } if *buffer == pname);
                    });
                    if used {
                        let region = &regions[r].1;
                        let prod_stmt = self.realize(prod, region)?;
                        let size: i64 = region.iter().map(|d| d.size).product();
                        self.placements.insert(pname.to_string(), pinner.store_in);
                        body = b::allocate(
                            pname,
                            pinner.elem,
                            size as u64,
                            pinner.store_in,
                            b::block(vec![prod_stmt, body]),
                        );
                    }
                }
                match kind {
                    LoopKind::Vectorized => {
                        let n = u32::try_from(extent)
                            .map_err(|_| LowerError(format!("vector extent {extent} too large")))?;
                        if is_rvar && !ctx.atomic {
                            return Err(LowerError(format!(
                                "vectorizing reduction variable {ir} requires atomic()"
                            )));
                        }
                        body = self.widen.vectorize(body, ir, n)?;
                    }
                    LoopKind::Unrolled => {
                        let mut copies = Vec::with_capacity(extent as usize);
                        for i in 0..extent {
                            let mut copy = body.clone();
                            bind_var(&mut copy, ir, &b::int(i));
                            copies.push(copy);
                        }
                        body = b::block(copies);
                    }
                    k => {
                        let kind = match k {
                            LoopKind::Serial => ForKind::Serial,
                            LoopKind::Parallel => ForKind::Parallel,
                            LoopKind::GpuBlock => ForKind::GpuBlock,
                            LoopKind::GpuThread => ForKind::GpuThread,
                            LoopKind::Vectorized | LoopKind::Unrolled => unreachable!(),
                        };
                        body = Stmt::For {
                            var: ir,
                            min: b::int(0),
                            extent: b::int(extent),
                            kind,
                            body: Box::new(body),
                        };
                    }
                }
            }
            stages.push(body);
        }
        Ok(b::block(stages))
    }
}

/// Binds `var` to `value` throughout `s`: substitutes it into every
/// expression and simplifies each one, in place.
fn bind_var(s: &mut Stmt, var: Symbol, value: &Expr) {
    s.map_exprs(&mut |e| e.substitute(var, value) | simplify_in_place(e));
}

fn collect_call_args<'a>(e: &'a HExpr, name: Symbol, out: &mut Vec<&'a [HExpr]>) {
    match e {
        HExpr::Int(_) | HExpr::Float(..) | HExpr::Var(_) => {}
        HExpr::Call(n, args) => {
            if *n == name {
                out.push(args);
            }
            for a in args {
                collect_call_args(a, name, out);
            }
        }
        HExpr::Binary(_, a, bb) => {
            collect_call_args(a, name, out);
            collect_call_args(bb, name, out);
        }
        HExpr::Cast(_, inner) => collect_call_args(inner, name, out),
        HExpr::Select(ops) => {
            for op in ops.iter() {
                collect_call_args(op, name, out);
            }
        }
    }
}

/// `e` with each of `dims` replaced by the argument in the same position.
fn subst_hexpr(e: &HExpr, dims: &[Symbol], args: &[HExpr]) -> HExpr {
    let sub = |e: &HExpr| Box::new(subst_hexpr(e, dims, args));
    match e {
        HExpr::Int(_) | HExpr::Float(..) => e.clone(),
        HExpr::Var(v) => dims
            .iter()
            .position(|d| d == v)
            .and_then(|i| args.get(i))
            .unwrap_or(e)
            .clone(),
        HExpr::Call(n, call_args) => HExpr::Call(
            *n,
            call_args
                .iter()
                .map(|a| subst_hexpr(a, dims, args))
                .collect(),
        ),
        HExpr::Binary(op, a, bb) => HExpr::Binary(*op, sub(a), sub(bb)),
        HExpr::Cast(st, inner) => HExpr::Cast(*st, sub(inner)),
        HExpr::Select(ops) => {
            HExpr::Select(Box::new(ops.each_ref().map(|e| subst_hexpr(e, dims, args))))
        }
    }
}

/// Replaces unit-extent loops by binding the variable to its minimum.
fn elide_unit_loops(s: &mut Stmt) {
    s.rewrite_stmts_in_place(&mut |st| {
        let Stmt::For {
            var,
            min,
            extent,
            body,
            ..
        } = st
        else {
            return false;
        };
        if extent.as_int() != Some(1) {
            return false;
        }
        let mut body = body.take();
        bind_var(&mut body, *var, min);
        *st = body;
        true
    });
}

/// A name two of the pipeline's funcs and images share: a call could not
/// tell them apart. ([`Pipeline::new`] keeps a handle or an image listed
/// twice once.)
fn shared_name(funcs: &[(Symbol, &Func)], images: &[ImageParam]) -> Option<Symbol> {
    let names = || (funcs.iter().map(|&(name, _)| name)).chain(images.iter().map(|i| i.name));
    names()
        .enumerate()
        .find_map(|(at, name)| names().take(at).any(|n| n == name).then_some(name))
}

/// Lowers a pipeline to IR.
///
/// # Errors
///
/// Fails when the output lacks explicit bounds, a schedule is inconsistent
/// (non-dividing splits, reduction vectorization without `atomic()`), two
/// funcs or images share a name, or an algorithm uses unsupported
/// constructs.
pub fn lower(p: &Pipeline) -> LowerResult<Lowered> {
    let mut funcs: Vec<(Symbol, &Func)> = p.funcs.iter().map(|f| (f.name(), f)).collect();
    if let Some(name) = shared_name(&funcs, &p.images) {
        return Err(LowerError(format!(
            "two different funcs or images are named {name}"
        )));
    }
    funcs.sort_unstable_by_key(|&(name, _)| name);
    let out = p.output.borrow();
    let mut region = Vec::with_capacity(out.dims.len());
    for &d in &out.dims {
        let (min, extent) = get(&out.bounds, d).ok_or_else(|| {
            LowerError(format!(
                "output {} needs bound() for dimension {d}",
                out.name
            ))
        })?;
        region.push(RegionDim {
            min: b::int(min),
            size: extent,
        });
    }
    let mut lowerer = Lowerer {
        funcs,
        images: &p.images,
        placements: HashMap::new(),
        qualified: Qualified::new(),
        widen: WidenScratch::default(),
    };
    let mut stmt = lowerer.realize(&p.output, &region)?;
    elide_unit_loops(&mut stmt);
    simplify_stmt_in_place(&mut stmt);

    let mut placements = lowerer.placements;
    placements.insert(out.name.to_string(), MemoryType::Heap);
    for img in &p.images {
        placements.insert(img.name.to_string(), MemoryType::Heap);
    }
    // Listed by name, so two lowerings of one pipeline agree whatever order
    // its images were given in.
    let mut inputs: Vec<(String, ScalarType, i64)> = (p.images.iter())
        .map(|i| (i.name.to_string(), i.elem, i.len()))
        .collect();
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Lowered {
        stmt,
        placements,
        output_name: out.name.to_string(),
        output_elem: out.elem,
        output_len: region.iter().map(|d| d.size).product(),
        inputs,
    })
}

/// Front-end integration with the `hardboiled::Session` API: pipelines
/// lower on demand inside `Session::compile`, so
/// `session.compile(&pipeline)` is the one-call entry point from source to
/// selected IR. Lowering failures surface as `CompileError::Lower`, and the
/// lowering summary lands in the unified report's notes.
impl hardboiled::IntoProgram for Pipeline {
    fn to_program(&self) -> Result<hardboiled::Program, hardboiled::CompileError> {
        let lowered = lower(self).map_err(|e| hardboiled::CompileError::Lower(e.to_string()))?;
        hardboiled::IntoProgram::into_program(lowered)
    }
}

/// Pre-lowered pipelines compile directly (the harness lowers once, keeps
/// the I/O metadata for execution, and hands the rest to the session).
impl hardboiled::IntoProgram for Lowered {
    fn to_program(&self) -> Result<hardboiled::Program, hardboiled::CompileError> {
        hardboiled::IntoProgram::into_program(self.clone())
    }

    /// The session's view of the lowered pipeline; the statement and the
    /// placements move.
    fn into_program(self) -> Result<hardboiled::Program, hardboiled::CompileError> {
        Ok(hardboiled::Program {
            notes: vec![format!(
                "lowered pipeline '{}': {} input(s), {}-element {} output",
                self.output_name,
                self.inputs.len(),
                self.output_len,
                self.output_elem,
            )],
            stmt: self.stmt,
            placements: self.placements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{cast_f32, hf, hv, Func, ImageParam, Pipeline, RDom};
    use hb_exec::Interp;

    fn run(lowered: &Lowered, inputs: &[(&str, Vec<f64>)]) -> Vec<f64> {
        let mut it = Interp::new();
        for (name, elem, len) in &lowered.inputs {
            let data = inputs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| d.clone())
                .unwrap_or_else(|| vec![0.0; *len as usize]);
            it.mem
                .alloc_init(name, *elem, MemoryType::Heap, &data)
                .unwrap();
        }
        it.mem
            .alloc(
                &lowered.output_name,
                lowered.output_elem,
                lowered.output_len as usize,
                MemoryType::Heap,
            )
            .unwrap();
        it.exec(&lowered.stmt).unwrap();
        it.mem.snapshot(&lowered.output_name).unwrap()
    }

    #[test]
    fn pipelines_compile_through_a_session() {
        // The IntoProgram integration: one call from Pipeline to selected
        // IR, with the lowering summary in the unified report.
        let img = ImageParam::new("in", ScalarType::F32, &[8]);
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(img.at(&[hv("x")]) * hf(2.0));
        out.bound("x", 0, 8);
        let p = Pipeline::new(&out, &[], &[&img]);
        let session = hardboiled::Session::default();
        let result = session.compile(&p).unwrap();
        // No accelerator placements: the program passes through unchanged.
        assert_eq!(result.report.num_statements(), 0);
        assert_eq!(
            result.program.to_string(),
            lower(&p).unwrap().stmt.to_string()
        );
        assert!(
            result.report.notes.iter().any(|n| n.contains("'out'")),
            "{:?}",
            result.report.notes
        );
        assert!(result.report.stages.lower > std::time::Duration::ZERO);
    }

    #[test]
    fn inputs_are_listed_by_name_whatever_the_listing_order() {
        let build = |names: [&str; 6]| {
            let imgs: Vec<ImageParam> = names
                .iter()
                .map(|n| ImageParam::new(n, ScalarType::F32, &[8]))
                .collect();
            let out = Func::new("out", &["x"], ScalarType::F32);
            out.define(
                imgs.iter()
                    .map(|i| i.at(&[hv("x")]))
                    .reduce(|a, b| a + b)
                    .unwrap(),
            );
            out.bound("x", 0, 8);
            let refs: Vec<&ImageParam> = imgs.iter().collect();
            lower(&Pipeline::new(&out, &[], &refs)).unwrap()
        };
        let first = build(["e", "b", "d", "a", "c", "f"]);
        let second = build(["f", "a", "c", "e", "d", "b"]);
        assert_eq!(first.inputs, second.inputs);
        let names: Vec<&str> = first.inputs.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "d", "e", "f"]);
    }

    /// `lower` fails with a message containing `needle`, and so does the
    /// session, as `CompileError::Lower` (`to_program` runs outside the
    /// session's `catch_unwind`, so a panic here would take the caller down).
    fn assert_lower_error(p: &Pipeline, needle: &str) {
        let err = lower(p).unwrap_err();
        assert!(err.0.contains(needle), "{err}");
        match hardboiled::Session::default().compile(p) {
            Err(hardboiled::CompileError::Lower(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected CompileError::Lower, got {other:?}"),
        }
    }

    #[test]
    fn bad_reorder_is_a_lower_error_not_a_panic() {
        let img = ImageParam::new("in", ScalarType::F32, &[64]);
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(img.at(&[hv("x")]));
        out.bound("x", 0, 64);
        // `x` no longer exists after the split, and `xo` is missing.
        out.stage_init(|s| {
            s.split("x", "xo", "xi", 8).reorder(&["xi", "x"]);
        });
        let p = Pipeline::new(&out, &[], &[&img]);
        assert_lower_error(&p, "reorder must mention exactly");
    }

    #[test]
    fn splits_that_reuse_a_loop_variable_name_are_lower_errors() {
        // Two loops of one name would shadow each other; the
        // recombination of `x` would read the wrong one.
        let splits: [&dyn Fn(&mut StageSchedule); 3] = [
            &|s| {
                s.split("x", "xi", "xi", 8);
            },
            &|s| {
                s.split("x", "y", "xi", 8);
            },
            &|s| {
                s.split("x", "xo", "xi", 8).split("xo", "xoo", "xi", 2);
            },
        ];
        for split in splits {
            let img = ImageParam::new("in", ScalarType::F32, &[64 * 4]);
            let out = Func::new("out", &["x", "y"], ScalarType::F32);
            out.define(img.at(&[hv("x") + hv("y") * crate::ast::hi(64)]));
            out.bound("x", 0, 64).bound("y", 0, 4);
            out.stage_init(|s| split(s));
            let p = Pipeline::new(&out, &[], &[&img]);
            assert_lower_error(&p, "reuses a loop variable's name");
        }
        // Reusing the split variable's own name is fine (Halide's
        // `split(x, x, xi, 8)`).
        let img = ImageParam::new("in", ScalarType::F32, &[64]);
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(img.at(&[hv("x")]));
        out.bound("x", 0, 64);
        out.stage_init(|s| {
            s.split("x", "x", "xi", 8);
        });
        let p = Pipeline::new(&out, &[], &[&img]);
        let data: Vec<f64> = (0..64).map(f64::from).collect();
        assert_eq!(run(&lower(&p).unwrap(), &[("in", data.clone())]), data);
    }

    #[test]
    fn a_reduction_variable_named_like_a_dimension_is_a_lower_error() {
        let img = ImageParam::new("in", ScalarType::F32, &[16]);
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(hf(0.0));
        out.update_add(img.at(&[hv("x")]), &RDom::new("x", 0, 8));
        out.bound("x", 0, 8);
        let p = Pipeline::new(&out, &[], &[&img]);
        assert_lower_error(&p, "variable x is bound twice");
    }

    #[test]
    fn funcs_and_images_that_share_a_name_are_lower_errors() {
        // Two different funcs named `g`: a call to `g` cannot tell them
        // apart, whichever order they are listed in.
        let img = ImageParam::new("I", ScalarType::F32, &[8]);
        let a = Func::new("g", &["x"], ScalarType::F32);
        a.define(img.at(&[hv("x")]) + hf(1.0));
        let b = Func::new("g", &["x"], ScalarType::F32);
        b.define(img.at(&[hv("x")]) * hf(2.0));
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(a.at(&[hv("x")]));
        out.bound("x", 0, 8);
        for funcs in [[&a, &b], [&b, &a]] {
            let p = Pipeline::new(&out, &funcs, &[&img]);
            assert_lower_error(&p, "two different funcs or images are named g");
        }
        // A func named like an image, and two different images of one name.
        let shadow = Func::new("I", &["x"], ScalarType::F32);
        shadow.define(hf(0.0));
        let p = Pipeline::new(&out, &[&a, &shadow], &[&img]);
        assert_lower_error(&p, "two different funcs or images are named I");
        let wider = ImageParam::new("I", ScalarType::F32, &[16]);
        let p = Pipeline::new(&out, &[&a], &[&img, &wider]);
        assert_lower_error(&p, "two different funcs or images are named I");
        // The same handle or image listed twice, and the output listed
        // again among the funcs, stay legal.
        let p = Pipeline::new(&out, &[&a, &a, &out], &[&img, &img]);
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let want: Vec<f64> = data.iter().map(|v| v + 1.0).collect();
        assert_eq!(run(&lower(&p).unwrap(), &[("I", data)]), want);
    }

    #[test]
    fn call_sites_whose_regions_do_not_line_up_are_lower_errors() {
        // f(x) and f(2x) start at `xo*4` and `xo*4*2`: no constant offset
        // relates the two, so no one region serves both.
        let img = ImageParam::new("in", ScalarType::F32, &[64]);
        let f = Func::new("f", &["x"], ScalarType::F32);
        f.define(img.at(&[hv("x")]));
        let g = Func::new("g", &["x"], ScalarType::F32);
        g.define(f.at(&[hv("x")]) + f.at(&[hv("x") * crate::ast::hi(2)]));
        g.bound("x", 0, 16);
        g.stage_init(|s| {
            s.split("x", "xo", "xi", 4);
        });
        f.compute_at(&g, "xo");
        let p = Pipeline::new(&g, &[&f], &[&img]);
        assert_lower_error(&p, "differ by a non-constant");
    }

    #[test]
    fn constant_offsets_are_read_through_sums_and_differences() {
        let x = || b::var("x");
        assert_eq!(constant_offset(&x(), &b::add(x(), b::int(3))), Some(3));
        assert_eq!(constant_offset(&b::add(x(), b::int(3)), &x()), Some(-3));
        assert_eq!(
            constant_offset(&b::sub(x(), b::int(2)), &b::add(b::int(1), x())),
            Some(3)
        );
        assert_eq!(constant_offset(&b::int(4), &b::int(9)), Some(5));
        assert_eq!(constant_offset(&x(), &b::var("y")), None);
        assert_eq!(constant_offset(&x(), &b::int(0)), None);
        assert_eq!(
            constant_offset(&b::int(i64::MIN), &b::int(1)),
            None,
            "overflow"
        );
    }

    #[test]
    fn non_positive_vector_divisor_is_a_lower_error_not_a_panic() {
        for (divisor, by_mod) in [(0, true), (0, false), (-2, true), (-2, false)] {
            let img = ImageParam::new("in", ScalarType::F32, &[64]);
            let out = Func::new("out", &["x"], ScalarType::F32);
            let idx = if by_mod {
                hv("x") % crate::ast::hi(divisor)
            } else {
                hv("x") / crate::ast::hi(divisor)
            };
            out.define(img.at(&[idx]));
            out.bound("x", 0, 16);
            out.stage_init(|s| {
                s.vectorize("x");
            });
            let p = Pipeline::new(&out, &[], &[&img]);
            assert_lower_error(&p, &format!("non-positive divisor {divisor}"));
        }
    }

    #[test]
    fn scalar_copy_pipeline() {
        let img = ImageParam::new("in", ScalarType::F32, &[8]);
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(img.at(&[hv("x")]) * hf(2.0));
        out.bound("x", 0, 8);
        let p = Pipeline::new(&out, &[], &[&img]);
        let lowered = lower(&p).unwrap();
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let got = run(&lowered, &[("in", data.clone())]);
        let want: Vec<f64> = data.iter().map(|v| v * 2.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn vectorized_pipeline_matches_serial() {
        let img = ImageParam::new("in", ScalarType::F32, &[64]);
        let mk = |vectorize: bool| {
            let out = Func::new("out", &["x"], ScalarType::F32);
            out.define(img.at(&[hv("x") + hi_(1)]) + img.at(&[hv("x")]));
            out.bound("x", 0, 32);
            if vectorize {
                out.stage_init(|s| {
                    s.split("x", "xo", "xi", 8).vectorize("xi");
                });
            }
            let p = Pipeline::new(&out, &[], &[&img]);
            lower(&p).unwrap()
        };
        fn hi_(v: i64) -> HExpr {
            crate::ast::hi(v)
        }
        let data: Vec<f64> = (0..64).map(|i| f64::from(i) * 0.5).collect();
        let serial = run(&mk(false), &[("in", data.clone())]);
        let vectorized = run(&mk(true), &[("in", data)]);
        assert_eq!(serial, vectorized);
    }

    #[test]
    fn inline_funcs_substitute() {
        let img = ImageParam::new("in", ScalarType::F32, &[16]);
        let twice = Func::new("twice", &["x"], ScalarType::F32);
        twice.define(img.at(&[hv("x")]) * hf(2.0));
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(twice.at(&[hv("x")]) + twice.at(&[hv("x")]));
        out.bound("x", 0, 16);
        let p = Pipeline::new(&out, &[&twice], &[&img]);
        let lowered = lower(&p).unwrap();
        let data: Vec<f64> = (0..16).map(f64::from).collect();
        let got = run(&lowered, &[("in", data.clone())]);
        let want: Vec<f64> = data.iter().map(|v| v * 4.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reduction_update_computes_convolution() {
        // conv(x) += K(rx) * I(x + rx), serial everything.
        let img = ImageParam::new("I", ScalarType::F32, &[24]);
        let kern = ImageParam::new("K", ScalarType::F32, &[8]);
        let conv = Func::new("conv", &["x"], ScalarType::F32);
        conv.define(hf(0.0));
        let r = RDom::new("rx", 0, 8);
        conv.update_add(kern.at(&[hv("rx")]) * img.at(&[hv("x") + hv("rx")]), &r);
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(conv.at(&[hv("x")]));
        out.bound("x", 0, 16);
        conv.compute_at(&out, "x");
        let p = Pipeline::new(&out, &[&conv], &[&img, &kern]);
        let lowered = lower(&p).unwrap();

        let i_data: Vec<f64> = (0..24).map(|v| f64::from(v % 5)).collect();
        let k_data: Vec<f64> = (0..8).map(|v| f64::from(v + 1) * 0.125).collect();
        let got = run(&lowered, &[("I", i_data.clone()), ("K", k_data.clone())]);
        for x in 0..16usize {
            let want: f64 = (0..8).map(|r| k_data[r] * i_data[x + r]).sum();
            assert!((got[x] - want).abs() < 1e-6, "x={x}: {} vs {want}", got[x]);
        }
    }

    #[test]
    fn compute_at_produces_scoped_allocation() {
        let img = ImageParam::new("I", ScalarType::F32, &[64 + 8]);
        let kern = ImageParam::new("K", ScalarType::F32, &[8]);
        let conv = Func::new("conv", &["x"], ScalarType::F32);
        conv.define(hf(0.0));
        conv.update_add(
            kern.at(&[hv("rx")]) * img.at(&[hv("x") + hv("rx")]),
            &RDom::new("rx", 0, 8),
        );
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(conv.at(&[hv("x")]));
        out.bound("x", 0, 64);
        out.stage_init(|s| {
            s.split("x", "xo", "xi", 16);
        });
        conv.compute_at(&out, "xo");
        let p = Pipeline::new(&out, &[&conv], &[&img, &kern]);
        let lowered = lower(&p).unwrap();
        // There must be an Allocate of conv with size 16 (the xi segment).
        let mut alloc_size = None;
        lowered.stmt.for_each_stmt(&mut |s| {
            if let Stmt::Allocate { name, size, .. } = s {
                if name == "conv" {
                    alloc_size = Some(*size);
                }
            }
        });
        assert_eq!(alloc_size, Some(16));
        // And the result must be correct.
        let i_data: Vec<f64> = (0..72).map(|v| f64::from(v % 7)).collect();
        let k_data: Vec<f64> = (0..8).map(|v| f64::from(v) * 0.25).collect();
        let got = run(&lowered, &[("I", i_data.clone()), ("K", k_data.clone())]);
        for x in 0..64usize {
            let want: f64 = (0..8).map(|r| k_data[r] * i_data[x + r]).sum();
            assert!((got[x] - want).abs() < 1e-6);
        }
    }

    #[test]
    fn atomic_required_for_reduction_vectorization() {
        let img = ImageParam::new("I", ScalarType::F32, &[24]);
        let kern = ImageParam::new("K", ScalarType::F32, &[8]);
        let conv = Func::new("conv", &["x"], ScalarType::F32);
        conv.define(hf(0.0));
        conv.update_add(
            kern.at(&[hv("rx")]) * img.at(&[hv("x") + hv("rx")]),
            &RDom::new("rx", 0, 8),
        );
        conv.stage_update(|s| {
            s.vectorize("rx");
        });
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(conv.at(&[hv("x")]));
        out.bound("x", 0, 16);
        conv.compute_at(&out, "x");
        let p = Pipeline::new(&out, &[&conv], &[&img, &kern]);
        let err = lower(&p).unwrap_err();
        assert!(err.0.contains("atomic"), "{err}");
    }

    #[test]
    fn vectorized_reduction_with_atomic_is_correct() {
        let img = ImageParam::new("I", ScalarType::F16, &[256 + 16]);
        let kern = ImageParam::new("K", ScalarType::F16, &[8]);
        let conv = Func::new("conv", &["x"], ScalarType::F32);
        conv.define(hf(0.0));
        conv.update_add(
            cast_f32(kern.at(&[hv("rx")])) * cast_f32(img.at(&[hv("x") + hv("rx")])),
            &RDom::new("rx", 0, 8),
        );
        conv.stage_init(|s| {
            s.vectorize("x");
        });
        conv.stage_update(|s| {
            s.reorder(&["rx", "x"])
                .atomic()
                .vectorize("x")
                .vectorize("rx");
        });
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(conv.at(&[hv("x")]));
        out.bound("x", 0, 256);
        out.stage_init(|s| {
            s.split("x", "xo", "xi", 256)
                .vectorize("xi")
                .gpu_blocks("xo");
        });
        conv.compute_at(&out, "xo");
        let p = Pipeline::new(&out, &[&conv], &[&img, &kern]);
        let lowered = lower(&p).unwrap();
        // The update must contain the canonical conv1d pattern lanes.
        let mut saw_vra = false;
        lowered.stmt.for_each_expr(&mut |e| {
            if let Expr::VectorReduceAdd { lanes, value } = e {
                assert_eq!(*lanes, 256);
                assert_eq!(value.lanes(), 2048);
                saw_vra = true;
            }
        });
        assert!(saw_vra, "expected a 2048->256 reduction:\n{}", lowered.stmt);

        let i_data: Vec<f64> = (0..272).map(|v| f64::from(v % 9) * 0.125).collect();
        let k_data: Vec<f64> = (0..8).map(|v| f64::from(v + 1) * 0.0625).collect();
        let got = run(&lowered, &[("I", i_data.clone()), ("K", k_data.clone())]);
        for x in 0..256usize {
            let want: f64 = (0..8).map(|r| k_data[r] * i_data[x + r]).sum();
            assert!((got[x] - want).abs() < 1e-2, "x={x}: {} vs {want}", got[x]);
        }
    }
}
