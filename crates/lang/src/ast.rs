//! The user-facing algorithm language: `Func`s, `ImageParam`s, `RDom`s and
//! expressions, in the style of Halide's front end.
//!
//! Algorithms are functional definitions of arrays (paper §II-B); schedules
//! (in [`crate::schedule`]) separately describe how they execute.
//!
//! Every name — a func's, its dimensions', an image's, a reduction
//! variable's and a placement's — is an interned [`Symbol`], the type the
//! IR names its variables and buffers with: the builders take `&str` and
//! intern it once, and lowering copies and compares 4-byte symbols. The
//! keyed tables are small vectors: a func's bounds are `(dimension,
//! range)` pairs in the order they were first set, where setting a
//! dimension again overwrites its range, and a [`Pipeline`] lists its funcs
//! and images sorted by name.

use std::cell::RefCell;
use std::rc::Rc;

use hb_ir::expr::BinOp;
use hb_ir::symbol::Symbol;
use hb_ir::types::{MemoryType, ScalarType};

use crate::schedule::StageSchedule;

/// A front-end expression.
#[derive(Debug, Clone, PartialEq)]
pub enum HExpr {
    /// Integer immediate.
    Int(i64),
    /// Float immediate with element type.
    Float(f64, ScalarType),
    /// A (pure or reduction) variable.
    Var(Symbol),
    /// A call to a [`Func`] or [`ImageParam`]; arguments are listed
    /// innermost dimension first (the Halide/OpenGL convention, paper fn. 1).
    Call(Symbol, Box<[HExpr]>),
    /// Binary operation.
    Binary(BinOp, Box<HExpr>, Box<HExpr>),
    /// Element-type cast.
    Cast(ScalarType, Box<HExpr>),
    /// Two-way select: condition, then the true and false values, boxed
    /// together so an `HExpr` stays three words.
    Select(Box<[HExpr; 3]>),
}

impl HExpr {
    /// Whether the expression mentions variable `name`.
    #[must_use]
    pub fn uses_var(&self, name: &str) -> bool {
        match self {
            HExpr::Int(_) | HExpr::Float(..) => false,
            HExpr::Var(v) => *v == name,
            HExpr::Call(_, args) => args.iter().any(|a| a.uses_var(name)),
            HExpr::Binary(_, a, b) => a.uses_var(name) || b.uses_var(name),
            HExpr::Cast(_, e) => e.uses_var(name),
            HExpr::Select(ops) => ops.iter().any(|e| e.uses_var(name)),
        }
    }
}

/// Float literal (f32).
#[must_use]
pub fn hf(v: f64) -> HExpr {
    HExpr::Float(v, ScalarType::F32)
}

/// Integer literal.
#[must_use]
pub fn hi(v: i64) -> HExpr {
    HExpr::Int(v)
}

/// Variable reference.
#[must_use]
pub fn hv(name: &str) -> HExpr {
    HExpr::Var(Symbol::from(name))
}

/// `cast<float32>(e)` — the ubiquitous accumulate cast.
#[must_use]
pub fn cast_f32(e: HExpr) -> HExpr {
    HExpr::Cast(ScalarType::F32, Box::new(e))
}

macro_rules! hexpr_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for HExpr {
            type Output = HExpr;
            fn $method(self, rhs: HExpr) -> HExpr {
                HExpr::Binary($op, Box::new(self), Box::new(rhs))
            }
        }
    };
}

hexpr_binop!(Add, add, BinOp::Add);
hexpr_binop!(Sub, sub, BinOp::Sub);
hexpr_binop!(Mul, mul, BinOp::Mul);
hexpr_binop!(Div, div, BinOp::Div);
hexpr_binop!(Rem, rem, BinOp::Mod);

/// An input buffer (Halide's `ImageParam`): a named, typed, multi-dimensional
/// array provided by the caller. Dimensions are innermost-first with explicit
/// extents (needed to compute storage strides).
#[derive(Debug, Clone, PartialEq)]
pub struct ImageParam {
    /// Buffer name.
    pub name: Symbol,
    /// Element type.
    pub elem: ScalarType,
    /// Extents, innermost dimension first.
    pub extents: Vec<i64>,
}

impl ImageParam {
    /// Declares an input image.
    #[must_use]
    pub fn new(name: &str, elem: ScalarType, extents: &[i64]) -> Self {
        ImageParam {
            name: Symbol::from(name),
            elem,
            extents: extents.to_vec(),
        }
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> i64 {
        self.extents.iter().product()
    }

    /// Whether the image is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Strides per dimension (innermost first).
    pub fn strides(&self) -> impl Iterator<Item = i64> + '_ {
        self.extents.iter().scan(1i64, |acc, e| {
            let stride = *acc;
            *acc *= e;
            Some(stride)
        })
    }

    /// Calls the image at the given indices (innermost first).
    #[must_use]
    pub fn at(&self, args: &[HExpr]) -> HExpr {
        assert_eq!(
            args.len(),
            self.extents.len(),
            "arity mismatch for {}",
            self.name
        );
        HExpr::Call(self.name, args.into())
    }
}

/// A reduction domain: named variables with `(min, extent)` ranges, iterated
/// by update definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RDom {
    /// Variables: `(name, min, extent)`, innermost first.
    pub vars: Vec<(Symbol, i64, i64)>,
}

impl RDom {
    /// Single-variable reduction domain.
    #[must_use]
    pub fn new(name: &str, min: i64, extent: i64) -> Self {
        RDom {
            vars: vec![(Symbol::from(name), min, extent)],
        }
    }

    /// Adds another (outer) reduction variable.
    #[must_use]
    pub fn with(mut self, name: &str, min: i64, extent: i64) -> Self {
        push_exact(&mut self.vars, (Symbol::from(name), min, extent));
        self
    }

    /// Whether `name` is one of the reduction variables.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.vars.iter().any(|(n, _, _)| *n == name)
    }
}

/// An update definition `f(args) += rhs` over a reduction domain.
///
/// The left-hand side is the identity on the pure dimensions (the only form
/// the case studies need; Halide general update LHS indexing is out of
/// scope — see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateDef {
    /// Right-hand side added into the func.
    pub rhs: HExpr,
    /// Reduction domain.
    pub rdom: RDom,
}

/// A func's update stage: its definition and its schedule. A func holds one
/// only once [`Func::update_add`] or [`Func::stage_update`], whichever comes
/// first, creates it, so a func with no update carries one empty pointer.
#[derive(Debug, Clone, Default)]
pub struct UpdateStage {
    /// Update definition, once [`Func::update_add`] has given it.
    pub def: Option<UpdateDef>,
    /// Schedule of the update stage.
    pub schedule: StageSchedule,
}

/// Where and when a func is computed.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ComputePlacement {
    /// Substituted into consumers (Halide's default).
    #[default]
    Inline,
    /// Realized at the given loop variable of the given consumer func.
    At {
        /// Consumer func name.
        consumer: Symbol,
        /// Loop variable (post-split name) in the consumer's nest.
        var: Symbol,
    },
}

/// Internal state of a [`Func`].
#[derive(Debug, Clone)]
pub struct FuncInner {
    /// Func name (also its buffer name when realized).
    pub name: Symbol,
    /// Pure dimension names, innermost first.
    pub dims: Box<[Symbol]>,
    /// Storage element type.
    pub elem: ScalarType,
    /// Explicit output bounds per dimension (required for the pipeline
    /// output): `(dimension, (min, extent))`, one pair per dimension in the
    /// order first bound; bounding a dimension again overwrites it.
    pub bounds: Vec<(Symbol, (i64, i64))>,
    /// Pure (initialization) definition.
    pub pure_def: Option<HExpr>,
    /// Update stage, boxed on first use.
    pub update: Option<Box<UpdateStage>>,
    /// Placement.
    pub placement: ComputePlacement,
    /// Storage placement (the `store_in` directive, §III).
    pub store_in: MemoryType,
    /// Schedule of the pure stage.
    pub init_schedule: StageSchedule,
}

impl FuncInner {
    /// The update definition, if any.
    #[must_use]
    pub fn update_def(&self) -> Option<&UpdateDef> {
        self.update.as_ref()?.def.as_ref()
    }

    /// The update stage, created on first use.
    fn update_stage(&mut self) -> &mut UpdateStage {
        self.update.get_or_insert_with(Box::default)
    }
}

/// A pipeline stage: a named, schedulable, functional array definition.
///
/// Cloning a `Func` clones a *handle* to shared state, so schedules can be
/// applied after the func is referenced by others.
#[derive(Debug, Clone)]
pub struct Func {
    inner: Rc<RefCell<FuncInner>>,
}

impl Func {
    /// Creates an undefined func with the given dimensions (innermost first).
    #[must_use]
    pub fn new(name: &str, dims: &[&str], elem: ScalarType) -> Self {
        Func {
            inner: Rc::new(RefCell::new(FuncInner {
                name: Symbol::from(name),
                dims: dims.iter().map(|&d| Symbol::from(d)).collect(),
                elem,
                bounds: Vec::new(),
                pure_def: None,
                update: None,
                placement: ComputePlacement::Inline,
                store_in: MemoryType::Heap,
                init_schedule: StageSchedule::default(),
            })),
        }
    }

    /// The func's name.
    #[must_use]
    pub fn name(&self) -> Symbol {
        self.inner.borrow().name
    }

    /// Read access to the internal state.
    #[must_use]
    pub fn borrow(&self) -> std::cell::Ref<'_, FuncInner> {
        self.inner.borrow()
    }

    /// Sets the pure definition `f(dims) = expr`.
    pub fn define(&self, expr: HExpr) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.pure_def.is_none(), "{} already defined", inner.name);
        inner.pure_def = Some(expr);
    }

    /// Adds the update definition `f(dims) += rhs` over `rdom`.
    pub fn update_add(&self, rhs: HExpr, rdom: &RDom) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.pure_def.is_some(),
            "{} needs a pure def first",
            inner.name
        );
        assert!(
            inner.update_def().is_none(),
            "{} already has an update",
            inner.name
        );
        inner.update_stage().def = Some(UpdateDef {
            rhs,
            rdom: rdom.clone(),
        });
    }

    /// Calls the func at the given indices (innermost first).
    #[must_use]
    pub fn at(&self, args: &[HExpr]) -> HExpr {
        let inner = self.inner.borrow();
        assert_eq!(
            args.len(),
            inner.dims.len(),
            "arity mismatch for {}",
            inner.name
        );
        HExpr::Call(inner.name, args.into())
    }

    /// Constrains a dimension to `[min, min+extent)` (Halide's `bound`).
    pub fn bound(&self, dim: &str, min: i64, extent: i64) -> &Self {
        set(
            &mut self.inner.borrow_mut().bounds,
            dim.into(),
            (min, extent),
        );
        self
    }

    /// Requests realization at `var` of `consumer` (Halide's `compute_at`).
    pub fn compute_at(&self, consumer: &Func, var: &str) -> &Self {
        self.inner.borrow_mut().placement = ComputePlacement::At {
            consumer: consumer.name(),
            var: var.into(),
        };
        self
    }

    /// Places the func's storage (the paper's accelerator directive).
    pub fn store_in(&self, memory: MemoryType) -> &Self {
        self.inner.borrow_mut().store_in = memory;
        self
    }

    /// Applies schedule edits to the pure (initialization) stage.
    pub fn stage_init(&self, edit: impl FnOnce(&mut StageSchedule)) -> &Self {
        edit(&mut self.inner.borrow_mut().init_schedule);
        self
    }

    /// Applies schedule edits to the update stage.
    pub fn stage_update(&self, edit: impl FnOnce(&mut StageSchedule)) -> &Self {
        edit(&mut self.inner.borrow_mut().update_stage().schedule);
        self
    }
}

/// Appends `item`, growing the vector by exactly one slot: the front end's
/// lists hold a few entries each and live as long as their pipeline, so
/// they keep no spare capacity.
pub(crate) fn push_exact<T>(items: &mut Vec<T>, item: T) {
    items.reserve_exact(1);
    items.push(item);
}

/// Sets `key` to `value` in a small keyed table: overwrites the pair that
/// has the key, or appends one.
pub(crate) fn set<V>(pairs: &mut Vec<(Symbol, V)>, key: Symbol, value: V) {
    if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| *k == key) {
        *v = value;
    } else {
        push_exact(pairs, (key, value));
    }
}

/// The value `key` is set to in a small keyed table.
pub(crate) fn get<V: Copy>(pairs: &[(Symbol, V)], key: Symbol) -> Option<V> {
    pairs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// A complete pipeline: the output func plus the input images, with every
/// reachable func discoverable through call edges.
///
/// Funcs and images are kept sorted by name. A handle listed twice (or the
/// output listed again among the funcs) and an image listed twice are kept
/// once; two *different* funcs or images that share a name, or a func named
/// like an image, are all kept, and [`crate::lower::lower`] rejects the
/// pipeline naming the shared name.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Output func.
    pub output: Func,
    /// All funcs (output included), sorted by name.
    pub funcs: Vec<Func>,
    /// Input images, sorted by name.
    pub images: Vec<ImageParam>,
}

impl Pipeline {
    /// Builds a pipeline from an output func, explicitly listing every func
    /// and image it (transitively) references.
    #[must_use]
    pub fn new(output: &Func, funcs: &[&Func], images: &[&ImageParam]) -> Self {
        let mut all: Vec<Func> = Vec::with_capacity(1 + funcs.len());
        for f in std::iter::once(output).chain(funcs.iter().copied()) {
            if !all.iter().any(|g| Rc::ptr_eq(&g.inner, &f.inner)) {
                all.push(f.clone());
            }
        }
        all.sort_by_key(Func::name);
        let mut imgs: Vec<ImageParam> = Vec::with_capacity(images.len());
        for &i in images {
            if !imgs.contains(i) {
                imgs.push(i.clone());
            }
        }
        imgs.sort_by_key(|i| i.name);
        Pipeline {
            output: output.clone(),
            funcs: all,
            images: imgs,
        }
    }

    /// The func named `name` (the first listed, if several share it).
    #[must_use]
    pub fn func(&self, name: &str) -> Option<&Func> {
        let at = self
            .funcs
            .partition_point(|f| f.borrow().name.as_str() < name);
        self.funcs.get(at).filter(|f| f.borrow().name == name)
    }

    /// The image named `name` (the first listed, if several share it).
    #[must_use]
    pub fn image(&self, name: &str) -> Option<&ImageParam> {
        let at = self.images.partition_point(|i| i.name.as_str() < name);
        self.images.get(at).filter(|i| i.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_sugar_builds_trees() {
        let e = hv("x") + hi(1) * hv("y");
        match e {
            HExpr::Binary(BinOp::Add, _, rhs) => match *rhs {
                HExpr::Binary(BinOp::Mul, ..) => {}
                other => panic!("expected mul, got {other:?}"),
            },
            other => panic!("expected add, got {other:?}"),
        }
        assert!((hv("x") + hv("y")).uses_var("y"));
        assert!(!(hv("x")).uses_var("y"));
    }

    #[test]
    fn image_param_strides() {
        let img = ImageParam::new("I", ScalarType::F16, &[64, 32, 3]);
        assert_eq!(img.strides().collect::<Vec<_>>(), vec![1, 64, 64 * 32]);
        assert_eq!(img.len(), 64 * 32 * 3);
        assert!(!img.is_empty());
    }

    #[test]
    fn func_definition_and_update() {
        let f = Func::new("f", &["x"], ScalarType::F32);
        f.define(hf(0.0));
        let r = RDom::new("r", 0, 16);
        f.update_add(hv("x") + hv("r"), &r);
        let inner = f.borrow();
        assert!(inner.pure_def.is_some());
        assert!(inner.update_def().unwrap().rdom.contains("r"));
    }

    #[test]
    fn the_update_stage_is_boxed_by_whichever_call_comes_first() {
        let r = RDom::new("r", 0, 16);
        let plain = Func::new("p", &["x"], ScalarType::F32);
        plain.define(hf(0.0));
        assert!(plain.borrow().update.is_none(), "no update, no stage");

        // Scheduled before it is defined, and the other way round: either
        // order keeps both the definition and the schedule.
        let early = Func::new("e", &["x"], ScalarType::F32);
        early.define(hf(0.0));
        early.stage_update(|s| s.atomic = true);
        early.update_add(hv("r"), &r);
        let late = Func::new("l", &["x"], ScalarType::F32);
        late.define(hf(0.0));
        late.update_add(hv("r"), &r);
        late.stage_update(|s| s.atomic = true);
        for f in [&early, &late] {
            let inner = f.borrow();
            assert!(inner.update_def().is_some_and(|u| u.rdom.contains("r")));
            assert!(inner.update.as_ref().unwrap().schedule.atomic);
        }
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn double_definition_rejected() {
        let f = Func::new("f", &["x"], ScalarType::F32);
        f.define(hf(0.0));
        f.define(hf(1.0));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn call_arity_checked() {
        let f = Func::new("f", &["x", "y"], ScalarType::F32);
        let _ = f.at(&[hv("x")]);
    }

    #[test]
    fn placement_and_storage_directives() {
        let g = Func::new("g", &["x"], ScalarType::F32);
        let f = Func::new("f", &["x"], ScalarType::F32);
        f.compute_at(&g, "xo").store_in(MemoryType::WmmaAccumulator);
        let inner = f.borrow();
        assert_eq!(
            inner.placement,
            ComputePlacement::At {
                consumer: "g".into(),
                var: "xo".into()
            }
        );
        assert_eq!(inner.store_in, MemoryType::WmmaAccumulator);
    }

    #[test]
    fn front_end_nodes_are_small() {
        // What every clone, move and drop of an expression copies per node,
        // and what every `Func` handle points at: names are 4-byte symbols,
        // not 24-byte strings, the keyed tables are vectors, not maps, and
        // the update stage is boxed on first use (48 and 480 bytes with
        // `String` names and hash maps, `FuncInner` 280 with the update's
        // definition and schedule inline).
        assert_eq!(std::mem::size_of::<HExpr>(), 24);
        assert_eq!(std::mem::size_of::<FuncInner>(), 168);
    }

    #[test]
    fn bounds_overwrite_and_pipelines_sort_by_name() {
        let f = Func::new("f", &["x", "y"], ScalarType::F32);
        f.bound("y", 0, 4).bound("x", 0, 8).bound("y", 2, 6);
        let pairs: Vec<(&str, (i64, i64))> = (f.borrow().bounds.iter())
            .map(|(d, r)| (d.as_str(), *r))
            .collect();
        assert_eq!(pairs, [("y", (2, 6)), ("x", (0, 8))]);

        let (c, a) = (
            ImageParam::new("c", ScalarType::F32, &[8]),
            ImageParam::new("a", ScalarType::F32, &[8]),
        );
        let g = Func::new("g", &["x"], ScalarType::F32);
        let p = Pipeline::new(&g, &[&f, &g, &f], &[&c, &a, &c]);
        let funcs: Vec<Symbol> = p.funcs.iter().map(Func::name).collect();
        let images: Vec<Symbol> = p.images.iter().map(|i| i.name).collect();
        assert_eq!(
            (funcs, images),
            (vec!["f".into(), "g".into()], vec!["a".into(), "c".into()])
        );
        assert_eq!(p.func("g").map(Func::name), Some("g".into()));
        assert_eq!(p.image("c"), Some(&c));
        assert!(p.func("h").is_none() && p.image("b").is_none());
    }

    #[test]
    fn rdom_multi_var() {
        let r = RDom::new("rx", 0, 8).with("ry", 0, 4);
        assert!(r.contains("rx") && r.contains("ry"));
        assert_eq!(r.vars.len(), 2);
    }
}
