//! The user-facing algorithm language: `Func`s, `ImageParam`s, `RDom`s and
//! expressions, in the style of Halide's front end.
//!
//! Algorithms are functional definitions of arrays (paper §II-B); schedules
//! (in [`crate::schedule`]) separately describe how they execute.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hb_ir::expr::BinOp;
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
    Var(String),
    /// A call to a [`Func`] or [`ImageParam`]; arguments are listed
    /// innermost dimension first (the Halide/OpenGL convention, paper fn. 1).
    Call(String, Vec<HExpr>),
    /// Binary operation.
    Binary(BinOp, Box<HExpr>, Box<HExpr>),
    /// Element-type cast.
    Cast(ScalarType, Box<HExpr>),
    /// Two-way select.
    Select(Box<HExpr>, Box<HExpr>, Box<HExpr>),
}

impl HExpr {
    /// Whether the expression mentions variable `name`.
    #[must_use]
    pub fn uses_var(&self, name: &str) -> bool {
        match self {
            HExpr::Int(_) | HExpr::Float(..) => false,
            HExpr::Var(v) => v == name,
            HExpr::Call(_, args) => args.iter().any(|a| a.uses_var(name)),
            HExpr::Binary(_, a, b) => a.uses_var(name) || b.uses_var(name),
            HExpr::Cast(_, e) => e.uses_var(name),
            HExpr::Select(c, t, f) => c.uses_var(name) || t.uses_var(name) || f.uses_var(name),
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
    HExpr::Var(name.to_string())
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
    pub name: String,
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
            name: name.to_string(),
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
        HExpr::Call(self.name.clone(), args.to_vec())
    }
}

/// A reduction domain: named variables with `(min, extent)` ranges, iterated
/// by update definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RDom {
    /// Variables: `(name, min, extent)`, innermost first.
    pub vars: Vec<(String, i64, i64)>,
}

impl RDom {
    /// Single-variable reduction domain.
    #[must_use]
    pub fn new(name: &str, min: i64, extent: i64) -> Self {
        RDom {
            vars: vec![(name.to_string(), min, extent)],
        }
    }

    /// Adds another (outer) reduction variable.
    #[must_use]
    pub fn with(mut self, name: &str, min: i64, extent: i64) -> Self {
        self.vars.push((name.to_string(), min, extent));
        self
    }

    /// Whether `name` is one of the reduction variables.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.vars.iter().any(|(n, _, _)| n == name)
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

/// Where and when a func is computed.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ComputePlacement {
    /// Substituted into consumers (Halide's default).
    #[default]
    Inline,
    /// Realized at the given loop variable of the given consumer func.
    At {
        /// Consumer func name.
        consumer: String,
        /// Loop variable (post-split name) in the consumer's nest.
        var: String,
    },
}

/// Internal state of a [`Func`].
#[derive(Debug, Clone)]
pub struct FuncInner {
    /// Func name (also its buffer name when realized).
    pub name: String,
    /// Pure dimension names, innermost first.
    pub dims: Vec<String>,
    /// Storage element type.
    pub elem: ScalarType,
    /// Explicit output bounds per dimension (required for the pipeline
    /// output): `(min, extent)`.
    pub bounds: HashMap<String, (i64, i64)>,
    /// Pure (initialization) definition.
    pub pure_def: Option<HExpr>,
    /// Update definition, if any.
    pub update: Option<UpdateDef>,
    /// Placement.
    pub placement: ComputePlacement,
    /// Storage placement (the `store_in` directive, §III).
    pub store_in: MemoryType,
    /// Schedule of the pure stage.
    pub init_schedule: StageSchedule,
    /// Schedule of the update stage.
    pub update_schedule: StageSchedule,
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
                name: name.to_string(),
                dims: dims.iter().map(|d| (*d).to_string()).collect(),
                elem,
                bounds: HashMap::new(),
                pure_def: None,
                update: None,
                placement: ComputePlacement::Inline,
                store_in: MemoryType::Heap,
                init_schedule: StageSchedule::default(),
                update_schedule: StageSchedule::default(),
            })),
        }
    }

    /// The func's name.
    #[must_use]
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
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
            inner.update.is_none(),
            "{} already has an update",
            inner.name
        );
        inner.update = Some(UpdateDef {
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
        HExpr::Call(inner.name.clone(), args.to_vec())
    }

    /// Constrains a dimension to `[min, min+extent)` (Halide's `bound`).
    pub fn bound(&self, dim: &str, min: i64, extent: i64) -> &Self {
        self.inner
            .borrow_mut()
            .bounds
            .insert(dim.to_string(), (min, extent));
        self
    }

    /// Requests realization at `var` of `consumer` (Halide's `compute_at`).
    pub fn compute_at(&self, consumer: &Func, var: &str) -> &Self {
        self.inner.borrow_mut().placement = ComputePlacement::At {
            consumer: consumer.name(),
            var: var.to_string(),
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
        edit(&mut self.inner.borrow_mut().update_schedule);
        self
    }
}

/// A complete pipeline: the output func plus the input images, with every
/// reachable func discoverable through call edges.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Output func.
    pub output: Func,
    /// All funcs by name (output included).
    pub funcs: HashMap<String, Func>,
    /// Input images by name.
    pub images: HashMap<String, ImageParam>,
}

impl Pipeline {
    /// Builds a pipeline from an output func, explicitly listing every func
    /// and image it (transitively) references.
    #[must_use]
    pub fn new(output: &Func, funcs: &[&Func], images: &[&ImageParam]) -> Self {
        let mut map = HashMap::new();
        map.insert(output.name(), output.clone());
        for f in funcs {
            map.insert(f.name(), (*f).clone());
        }
        let images = images
            .iter()
            .map(|i| (i.name.clone(), (*i).clone()))
            .collect();
        Pipeline {
            output: output.clone(),
            funcs: map,
            images,
        }
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
        assert!(inner.update.as_ref().unwrap().rdom.contains("r"));
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
    fn rdom_multi_var() {
        let r = RDom::new("rx", 0, 8).with("ry", 0, 4);
        assert!(r.contains("rx") && r.contains("ry"));
        assert_eq!(r.vars.len(), 2);
    }
}
