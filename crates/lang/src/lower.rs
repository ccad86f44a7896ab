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
//! the consuming [`crate::vectorize::widen_stmt_owned`], an unrolled loop
//! is one `clone` per copy plus an in-place substitute-and-simplify, and
//! unit loops and the final simplification rewrite the finished statement
//! without rebuilding it. Funcs are read through their `RefCell` borrow,
//! not cloned, and schedules are consulted under the names the user wrote —
//! only IR loop variables carry the `func__var` qualification.
//!
//! `lower` never panics on a schedule or algorithm the front-end API can
//! express: inconsistent reorders, non-dividing splits and non-positive
//! vector divisors all come back as [`LowerError`] (`Session::compile`
//! calls it outside its `catch_unwind`).

use std::collections::HashMap;

use hb_ir::builder as b;
use hb_ir::expr::Expr;
use hb_ir::interval::{bounds, Interval, VarRanges};
use hb_ir::simplify::{simplify_in_place, simplify_stmt_in_place};
use hb_ir::stmt::{ForKind, Stmt};
use hb_ir::types::{MemoryType, ScalarType, Type};

use crate::ast::{ComputePlacement, Func, HExpr, Pipeline};
use crate::schedule::{LoopKind, StageSchedule};
use crate::vectorize::{
    decompose_mod_div, mod_div_divisor, widen_stmt_owned, LowerError, LowerResult,
};

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
type Regions = HashMap<String, Vec<RegionDim>>;

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
    /// IR loop variable: the schedule's name qualified with the func name,
    /// so producer loops never shadow consumer loops (region minima
    /// reference consumer variables symbolically).
    name: String,
    /// Trip count.
    extent: i64,
    /// How the loop executes.
    kind: LoopKind,
    /// Whether it descends from a reduction variable.
    is_rvar: bool,
}

/// Per-stage lowering context.
struct StageCtx<'a> {
    /// Final loops, innermost first.
    vars: Vec<LoopVar>,
    /// Root variable (as the algorithm names it) → recombination over the
    /// final loop variables (local coordinates, starting at zero).
    recomb: Vec<(&'a str, Expr)>,
    /// Whether `atomic()` was requested.
    atomic: bool,
}

impl StageCtx<'_> {
    fn recomb(&self, root: &str) -> &Expr {
        let (_, e) = self
            .recomb
            .iter()
            .find(|(name, _)| *name == root)
            .expect("every root variable has a recombination");
        e
    }
}

/// Builds the loop structure of one stage of `fname`. `roots` and the
/// schedule use the algorithm's variable names; only the IR names in the
/// result are qualified.
fn stage_ctx<'a>(
    fname: &str,
    roots: &[(&'a str, i64, bool)], // (name, extent, is_rvar) innermost first
    sched: &StageSchedule,
) -> LowerResult<StageCtx<'a>> {
    let q = |v: &str| format!("{fname}__{v}");
    // Live variables as the splits rewrite them.
    let mut live: Vec<(&str, i64, bool)> = roots.to_vec();
    let mut recomb: Vec<(&str, Expr)> = roots
        .iter()
        .map(|(name, _, _)| (*name, b::var(&q(name))))
        .collect();
    for split in &sched.splits {
        let old = q(&split.old);
        let pos = live
            .iter()
            .position(|(name, _, _)| *name == split.old)
            .ok_or_else(|| LowerError(format!("split of unknown variable {old}")))?;
        let (_, old_extent, is_r) = live.swap_remove(pos);
        if split.factor <= 0 || old_extent % split.factor != 0 {
            return Err(LowerError(format!(
                "split of {old} (extent {old_extent}) by non-dividing factor {}",
                split.factor
            )));
        }
        let replacement = b::add(
            b::mul(b::var(&q(&split.outer)), b::int(split.factor)),
            b::var(&q(&split.inner)),
        );
        for (_, e) in &mut recomb {
            e.substitute(&old, &replacement);
        }
        live.push((&split.inner, split.factor, is_r));
        live.push((&split.outer, old_extent / split.factor, is_r));
    }
    let names: Vec<String> = roots.iter().map(|(n, _, _)| (*n).to_string()).collect();
    let order = sched
        .try_loop_vars(&names)
        .map_err(|e| LowerError(format!("{fname}: {e}")))?;
    let vars = order
        .iter()
        .map(|v| {
            let &(_, extent, is_rvar) = live
                .iter()
                .find(|(name, _, _)| name == v)
                .expect("loop order and live variables come from the same splits");
            LoopVar {
                name: q(v),
                extent,
                kind: sched.kind(v),
                is_rvar,
            }
        })
        .collect();
    Ok(StageCtx {
        vars,
        recomb,
        atomic: sched.atomic,
    })
}

/// The lowering driver.
struct Lowerer<'a> {
    p: &'a Pipeline,
    placements: HashMap<String, MemoryType>,
}

impl<'a> Lowerer<'a> {
    /// All producers placed anywhere inside `consumer`.
    fn producers_of(&self, consumer: &str) -> Vec<Func> {
        let mut out = Vec::new();
        for f in self.p.funcs.values() {
            if let ComputePlacement::At { consumer: c, .. } = &f.borrow().placement {
                if c == consumer {
                    out.push(f.clone());
                }
            }
        }
        out.sort_by_key(Func::name);
        out
    }

    /// Lowers a front-end expression to scalar IR under `env`.
    fn lower_hexpr(
        &self,
        e: &HExpr,
        env: &HashMap<String, Expr>,
        regions: &Regions,
    ) -> LowerResult<Expr> {
        match e {
            HExpr::Int(v) => Ok(b::int(*v)),
            HExpr::Float(v, st) => Ok(b::flt_t(*v, *st)),
            HExpr::Var(name) => env
                .get(name)
                .cloned()
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
            HExpr::Select(c, t, f) => {
                let c = self.lower_hexpr(c, env, regions)?;
                let t = self.lower_hexpr(t, env, regions)?;
                let f = self.lower_hexpr(f, env, regions)?;
                Ok(b::select(c, t, f))
            }
            HExpr::Call(name, args) => self.lower_call(name, args, env, regions),
        }
    }

    fn lower_call(
        &self,
        name: &str,
        args: &[HExpr],
        env: &HashMap<String, Expr>,
        regions: &Regions,
    ) -> LowerResult<Expr> {
        if let Some(img) = self.p.images.get(name) {
            let strides = img.strides();
            let mut idx = b::int(0);
            for (a, s) in args.iter().zip(&strides) {
                let a = self.lower_hexpr(a, env, regions)?;
                idx = b::add(idx, b::mul(a, b::int(*s)));
            }
            simplify_in_place(&mut idx);
            return Ok(b::load(Type::new(img.elem, 1), name, idx));
        }
        let f = self
            .p
            .funcs
            .get(name)
            .ok_or_else(|| LowerError(format!("call to unknown func {name}")))?;
        let inner = f.borrow();
        match &inner.placement {
            ComputePlacement::Inline => {
                if inner.update.is_some() {
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
                let region = regions.get(name).ok_or_else(|| {
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
    /// `at_var` of the consumer's stage described by `ctx`/`env`.
    fn infer_region(
        &self,
        consumer: &Func,
        producer: &Func,
        at_var: &str,
        ctx: &StageCtx,
        env: &HashMap<String, Expr>,
        regions: &Regions,
    ) -> LowerResult<Vec<RegionDim>> {
        let pinner = producer.borrow();
        let pname = pinner.name.as_str();
        // Gather call sites in the consumer's definitions.
        let cinner = consumer.borrow();
        let mut sites: Vec<&[HExpr]> = Vec::new();
        if let Some(d) = &cinner.pure_def {
            collect_call_args(d, pname, &mut sites);
        }
        if let Some(u) = &cinner.update {
            collect_call_args(&u.rhs, pname, &mut sites);
        }
        if sites.is_empty() {
            return Err(LowerError(format!(
                "{pname} is computed at {at_var} of {} but never called by it",
                cinner.name
            )));
        }
        let arity = pinner.dims.len();
        // Loop variables strictly inside `at_var` vary per instance.
        let pos = ctx
            .vars
            .iter()
            .position(|lv| lv.name == at_var)
            .ok_or_else(|| {
                LowerError(format!(
                    "compute_at variable {at_var} not found in {}'s loops",
                    cinner.name
                ))
            })?;
        let inner_vars = &ctx.vars[..pos];
        let zero = b::int(0);

        let mut region: Option<Vec<RegionDim>> = None;
        for site in sites {
            if site.len() != arity {
                return Err(LowerError(format!("arity mismatch calling {pname}")));
            }
            let mut dims = Vec::with_capacity(arity);
            for arg in site {
                let idx = self.lower_hexpr(arg, env, regions)?;
                // Size: inner vars range fully, everything else pinned to 0.
                let mut ranges = VarRanges::new();
                idx.for_each(&mut |e| {
                    if let Expr::Var(n, _) = e {
                        ranges.insert(n.clone(), Interval::point(0));
                    }
                });
                for lv in inner_vars {
                    ranges.insert(lv.name.clone(), Interval::new(0, lv.extent - 1));
                }
                let iv = bounds(&idx, &ranges)
                    .ok_or_else(|| LowerError(format!("cannot bound access {idx} to {pname}")))?;
                // Min: substitute inner vars by zero, keep outer symbolic.
                let mut min = idx;
                for lv in inner_vars {
                    min.substitute(&lv.name, &zero);
                }
                simplify_in_place(&mut min);
                dims.push(RegionDim {
                    min,
                    size: iv.extent(),
                });
            }
            region = Some(match region.take() {
                None => dims,
                Some(prev) => prev
                    .into_iter()
                    .zip(dims)
                    .map(|(a, bb)| {
                        let size = a.size.max(bb.size);
                        let min = if a.min == bb.min {
                            a.min
                        } else {
                            // Conservative: take the smaller min via Min node.
                            let mut min = b::min(a.min, bb.min);
                            simplify_in_place(&mut min);
                            min
                        };
                        RegionDim { min, size }
                    })
                    .collect(),
            });
        }
        Ok(region.expect("at least one site"))
    }

    /// Realizes `f` over `region`, returning the statement computing it
    /// (without the enclosing allocation — the caller scopes it).
    #[allow(clippy::too_many_lines)]
    fn realize(&mut self, f: &Func, region: &[RegionDim]) -> LowerResult<Stmt> {
        let inner = f.borrow();
        let q = |v: &str| format!("{}__{v}", inner.name);
        let mut stages: Vec<Stmt> = Vec::new();
        let update_stage = inner.update.as_ref();
        let stage_descrs = std::iter::once((None, &inner.init_schedule))
            .chain(update_stage.map(|u| (Some(u), &inner.update_schedule)));
        for (update, sched) in stage_descrs {
            // Roots: reduction vars innermost, then dims.
            let rvars = update.map_or(&[][..], |u| &u.rdom.vars[..]);
            let mut roots: Vec<(&str, i64, bool)> = Vec::new();
            for (rv, _, extent) in rvars {
                roots.push((rv, *extent, true));
            }
            for (d, r) in inner.dims.iter().zip(region) {
                roots.push((d, r.size, false));
            }
            let ctx = stage_ctx(&inner.name, &roots, sched)?;

            // Environment: dim -> global expr; rvar -> min + recomb.
            let mut env: HashMap<String, Expr> = HashMap::new();
            for (d, r) in inner.dims.iter().zip(region) {
                let mut global = b::add(r.min.clone(), ctx.recomb(d).clone());
                simplify_in_place(&mut global);
                env.insert(d.clone(), global);
            }
            for (rv, rmin, _) in rvars {
                let mut global = b::add(b::int(*rmin), ctx.recomb(rv).clone());
                simplify_in_place(&mut global);
                env.insert(rv.clone(), global);
            }

            // Regions of this func's own producers (used in both leaf
            // construction and loop wrapping), and where each is realized.
            let mut regions = Regions::new();
            let mut realize_plan: Vec<(String, Func)> = Vec::new();
            for prod in self.producers_of(&inner.name) {
                let var = match &prod.borrow().placement {
                    ComputePlacement::At { var, .. } => q(var),
                    ComputePlacement::Inline => continue,
                };
                if !ctx.vars.iter().any(|lv| lv.name == var) {
                    continue; // realized in the other stage's loops
                }
                let r = self.infer_region(f, &prod, &var, &ctx, &env, &regions)?;
                regions.insert(prod.name(), r);
                realize_plan.push((var, prod));
            }

            // Leaf statement.
            let mut idx = b::int(0);
            let mut stride = 1i64;
            for (d, r) in inner.dims.iter().zip(region) {
                idx = b::add(idx, b::mul(ctx.recomb(d).clone(), b::int(stride)));
                stride *= r.size;
            }
            simplify_in_place(&mut idx);
            let mut body = if let Some(u) = update {
                let rhs = self.lower_hexpr(&u.rhs, &env, &regions)?;
                let load = b::load(Type::new(inner.elem, 1), &inner.name, idx.clone());
                b::store(&inner.name, idx, b::add(load, rhs))
            } else {
                let d = inner.pure_def.as_ref().ok_or_else(|| {
                    LowerError(format!("func {} has no pure definition", inner.name))
                })?;
                let rhs = self.lower_hexpr(d, &env, &regions)?;
                b::store(&inner.name, idx, rhs)
            };

            // Wrap loops innermost-first.
            for LoopVar {
                name: var,
                extent,
                kind,
                is_rvar,
            } in &ctx.vars
            {
                // Attach producer realizations scheduled at this var (only
                // if this stage actually uses them).
                for (at_var, prod) in &realize_plan {
                    if at_var != var {
                        continue;
                    }
                    let pinner = prod.borrow();
                    let mut used = false;
                    body.for_each_expr(&mut |e| used |= e.uses_buffer(&pinner.name));
                    if used {
                        let r = &regions[&pinner.name];
                        let prod_stmt = self.realize(prod, r)?;
                        let size: i64 = r.iter().map(|d| d.size).product();
                        self.placements.insert(pinner.name.clone(), pinner.store_in);
                        body = b::allocate(
                            &pinner.name,
                            pinner.elem,
                            size as u64,
                            pinner.store_in,
                            b::block(vec![prod_stmt, body]),
                        );
                    }
                }
                match kind {
                    LoopKind::Vectorized => {
                        let n = u32::try_from(*extent)
                            .map_err(|_| LowerError(format!("vector extent {extent} too large")))?;
                        if *is_rvar && !ctx.atomic {
                            return Err(LowerError(format!(
                                "vectorizing reduction variable {var} requires atomic()"
                            )));
                        }
                        if let Some(c) = mod_div_divisor(&body, var)? {
                            // The divisor is whatever constant the algorithm
                            // wrote: zero or negative must not reach `%`.
                            let inner_lanes = u32::try_from(c)
                                .ok()
                                .filter(|lanes| *lanes > 0)
                                .ok_or_else(|| {
                                    LowerError(format!(
                                        "cannot vectorize {var} over its non-positive divisor {c}"
                                    ))
                                })?;
                            if n % inner_lanes != 0 {
                                return Err(LowerError(format!(
                                    "extent {extent} of {var} not divisible by {c}"
                                )));
                            }
                            let v0 = format!("{var}__p0");
                            let v1 = format!("{var}__p1");
                            let d = decompose_mod_div(body, var, c, &v0, &v1);
                            let w0 = widen_stmt_owned(d, &v0, 0, inner_lanes)?;
                            body = widen_stmt_owned(w0, &v1, 0, n / inner_lanes)?;
                        } else {
                            body = widen_stmt_owned(body, var, 0, n)?;
                        }
                    }
                    LoopKind::Unrolled => {
                        let mut copies = Vec::with_capacity(*extent as usize);
                        for i in 0..*extent {
                            let mut copy = body.clone();
                            bind_var(&mut copy, var, &b::int(i));
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
                        body = b::for_kind(var, b::int(0), b::int(*extent), kind, body);
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
fn bind_var(s: &mut Stmt, var: &str, value: &Expr) {
    s.map_exprs(&mut |e| e.substitute(var, value) | simplify_in_place(e));
}

fn collect_call_args<'a>(e: &'a HExpr, name: &str, out: &mut Vec<&'a [HExpr]>) {
    match e {
        HExpr::Int(_) | HExpr::Float(..) | HExpr::Var(_) => {}
        HExpr::Call(n, args) => {
            if n == name {
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
        HExpr::Select(c, t, f) => {
            collect_call_args(c, name, out);
            collect_call_args(t, name, out);
            collect_call_args(f, name, out);
        }
    }
}

/// `e` with each of `dims` replaced by the argument in the same position.
fn subst_hexpr(e: &HExpr, dims: &[String], args: &[HExpr]) -> HExpr {
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
            n.clone(),
            call_args
                .iter()
                .map(|a| subst_hexpr(a, dims, args))
                .collect(),
        ),
        HExpr::Binary(op, a, bb) => HExpr::Binary(*op, sub(a), sub(bb)),
        HExpr::Cast(st, inner) => HExpr::Cast(*st, sub(inner)),
        HExpr::Select(c, t, f) => HExpr::Select(sub(c), sub(t), sub(f)),
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
        bind_var(&mut body, var, min);
        *st = body;
        true
    });
}

/// Lowers a pipeline to IR.
///
/// # Errors
///
/// Fails when the output lacks explicit bounds, a schedule is inconsistent
/// (non-dividing splits, reduction vectorization without `atomic()`), or an
/// algorithm uses unsupported constructs.
pub fn lower(p: &Pipeline) -> LowerResult<Lowered> {
    let out = p.output.borrow();
    let mut region = Vec::with_capacity(out.dims.len());
    for d in &out.dims {
        let (min, extent) = out.bounds.get(d).copied().ok_or_else(|| {
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
        p,
        placements: HashMap::new(),
    };
    let mut stmt = lowerer.realize(&p.output, &region)?;
    elide_unit_loops(&mut stmt);
    simplify_stmt_in_place(&mut stmt);

    let mut placements = lowerer.placements;
    placements.insert(out.name.clone(), MemoryType::Heap);
    for img in p.images.values() {
        placements.insert(img.name.clone(), MemoryType::Heap);
    }
    // `images` is a randomly keyed map: list the inputs by name so two
    // lowerings of one pipeline agree.
    let mut inputs: Vec<(String, ScalarType, i64)> = p
        .images
        .values()
        .map(|i| (i.name.clone(), i.elem, i.len()))
        .collect();
    inputs.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Lowered {
        stmt,
        placements,
        output_name: out.name.clone(),
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
    fn inputs_are_listed_by_name_whatever_the_map_order() {
        // `Pipeline::images` is a randomly keyed map: two builds of one
        // pipeline iterate it in different orders.
        let build = || {
            let names = ["e", "b", "d", "a", "c", "f"];
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
        let (first, second) = (build(), build());
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
