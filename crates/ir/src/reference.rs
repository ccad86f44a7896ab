//! Test support, compiled into the library so that the property tests of
//! every crate in the stack can share it: the copying bottom-up rewrite this
//! crate used before rewriting moved in place (the reference the in-place
//! primitives are compared with), a gene-decoded generator of random
//! well-typed expressions, and a whole-tree renamer.

use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use crate::types::{ScalarType, Type};

/// The copying bottom-up rewrite: rebuilds every node of the tree, children
/// first, and lets `f` replace the rebuilt node.
pub fn rebuild_bottom_up(e: &Expr, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
    let mut go = |e: &Expr| Box::new(rebuild_bottom_up(e, f));
    let with_children = match e {
        Expr::IntImm(_) | Expr::FloatImm(..) | Expr::Var(..) => e.clone(),
        Expr::Cast(ty, v) => Expr::Cast(*ty, go(v)),
        Expr::Binary(op, a, b) => Expr::Binary(*op, go(a), go(b)),
        Expr::Select(c, t, e) => Expr::Select(go(c), go(t), go(e)),
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => Expr::Ramp {
            base: go(base),
            stride: go(stride),
            lanes: *lanes,
        },
        Expr::Broadcast { value, lanes } => Expr::Broadcast {
            value: go(value),
            lanes: *lanes,
        },
        Expr::Load { ty, buffer, index } => Expr::Load {
            ty: *ty,
            buffer: buffer.clone(),
            index: go(index),
        },
        Expr::VectorReduceAdd { lanes, value } => Expr::VectorReduceAdd {
            lanes: *lanes,
            value: go(value),
        },
        Expr::Call { ty, name, args } => Expr::Call {
            ty: *ty,
            name: name.clone(),
            args: args.iter().map(|a| *go(a)).collect(),
        },
        Expr::LocToLoc { from, to, value } => Expr::LocToLoc {
            from: *from,
            to: *to,
            value: go(value),
        },
    };
    f(&with_children).unwrap_or(with_children)
}

/// Number of genes [`gen_expr`] wants (it pads with zeros, which decode to
/// leaves, when it runs out).
pub const GENES: usize = 96;

/// Decodes `genes` into a well-typed expression of 1, 2, 4 or 8 lanes,
/// integer or float, rich in what the simplifier rewrites: nested ramps
/// and broadcasts (unit ones included), ramps over broadcast bases, loads
/// of broadcasts, identity and immediate casts, zero/one operands,
/// `x - x`, `(x + y) - y`, and `(c·x + y) / c` and `% c` (c = 0 included).
pub fn gen_expr(genes: &[u32]) -> Expr {
    let mut g = Genes { genes, next: 0 };
    let lanes = 1 << g.pick(4);
    if g.pick(4) == 0 {
        g.float(lanes, 3)
    } else {
        g.int(lanes, 4)
    }
}

/// Decodes `genes` into a scalar integer expression (a substitution
/// replacement).
pub fn gen_scalar_int(genes: &[u32]) -> Expr {
    Genes { genes, next: 0 }.int(1, 2)
}

/// Hands every buffer and variable name in the tree — `Store`, `For` and
/// `Allocate` names, `Var`s and `Load` buffers; intrinsic names are not
/// names in this sense — to `f` for renaming in place.
pub fn rename_names(stmt: &mut Stmt, f: &mut dyn FnMut(&mut String)) {
    stmt.rewrite_stmts_in_place(&mut |s| {
        match s {
            Stmt::Store { buffer: name, .. }
            | Stmt::For { var: name, .. }
            | Stmt::Allocate { name, .. } => f(name),
            Stmt::Evaluate(_) | Stmt::Block(_) | Stmt::If { .. } => {}
        }
        true
    });
    stmt.map_exprs(&mut |e| {
        e.rewrite_bottom_up(&mut |node| {
            if let Expr::Var(name, _) | Expr::Load { buffer: name, .. } = node {
                f(name);
            }
            true
        })
    });
}

struct Genes<'a> {
    genes: &'a [u32],
    next: usize,
}

fn boxed(e: Expr) -> Box<Expr> {
    Box::new(e)
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Binary(op, boxed(a), boxed(b))
}

fn bcast(value: Expr, lanes: u32) -> Expr {
    Expr::Broadcast {
        value: boxed(value),
        lanes,
    }
}

/// `c` at `lanes` lanes (a bare immediate when scalar).
fn splat(c: Expr, lanes: u32) -> Expr {
    if lanes == 1 {
        c
    } else {
        bcast(c, lanes)
    }
}

impl Genes<'_> {
    /// The next gene reduced to `0..n`.
    fn pick(&mut self, n: u32) -> u32 {
        let gene = self.genes.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        gene % n
    }

    /// A factor of `lanes` (1 and `lanes` included).
    fn factor(&mut self, lanes: u32) -> u32 {
        1 << self.pick(lanes.trailing_zeros() + 1)
    }

    fn int_leaf(&mut self, lanes: u32) -> Expr {
        let scalar = match self.pick(5) {
            0 => Expr::IntImm(0),
            1 => Expr::IntImm(1),
            2 => Expr::IntImm(i64::from(self.pick(9)) - 4),
            3 => Expr::Var("x".into(), ScalarType::I32),
            _ => Expr::Var("y".into(), ScalarType::I32),
        };
        splat(scalar, lanes)
    }

    #[allow(clippy::too_many_lines)]
    fn int(&mut self, lanes: u32, depth: u32) -> Expr {
        if depth == 0 {
            return self.int_leaf(lanes);
        }
        let d = depth - 1;
        match self.pick(14) {
            0 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max]
                    [self.pick(5) as usize];
                bin(op, self.int(lanes, d), self.int(lanes, d))
            }
            // x - x
            1 => {
                let a = self.int(lanes, d);
                bin(BinOp::Sub, a.clone(), a)
            }
            // (x + y) - y and (x + y) - x
            2 => {
                let (x, y) = (self.int(lanes, d), self.int(lanes, d));
                let gone = if self.pick(2) == 0 {
                    x.clone()
                } else {
                    y.clone()
                };
                bin(BinOp::Sub, bin(BinOp::Add, x, y), gone)
            }
            // (c·x + y) / c and % c, in both operand orders
            3 => {
                let c = i64::from(self.pick(4));
                let scaled = if self.pick(2) == 0 {
                    bin(BinOp::Mul, Expr::IntImm(c), self.int(1, d))
                } else {
                    bin(BinOp::Mul, self.int(1, d), Expr::IntImm(c * 2))
                };
                let rest = self.int(1, d);
                let sum = if self.pick(2) == 0 {
                    bin(BinOp::Add, scaled, rest)
                } else {
                    bin(BinOp::Add, rest, scaled)
                };
                let op = if self.pick(2) == 0 {
                    BinOp::Div
                } else {
                    BinOp::Mod
                };
                splat(bin(op, sum, Expr::IntImm(c)), lanes)
            }
            // xF(v), x1(v) included
            4 => {
                let f = self.factor(lanes);
                bcast(self.int(lanes / f, d), f)
            }
            // ramp(base, stride, F): any stride, zero stride, one step
            5 => {
                let f = self.factor(lanes);
                let stride = if self.pick(3) == 0 {
                    splat(Expr::IntImm(0), lanes / f)
                } else {
                    self.int(lanes / f, d)
                };
                Expr::Ramp {
                    base: boxed(self.int(lanes / f, d)),
                    stride: boxed(stride),
                    lanes: f,
                }
            }
            // ramp(xM(b), xM(s), F): the A-matrix obfuscation
            6 => {
                let f = self.factor(lanes);
                let m = self.factor(lanes / f);
                let inner = lanes / f / m;
                Expr::Ramp {
                    base: boxed(bcast(self.int(inner, d), m)),
                    stride: boxed(bcast(self.int(inner, 0), m)),
                    lanes: f,
                }
            }
            // identity cast, cast of a float immediate, cast of a float
            7 => match self.pick(3) {
                0 => Expr::Cast(Type::new(ScalarType::I32, lanes), boxed(self.int(lanes, d))),
                1 => splat(
                    Expr::Cast(Type::i32(), boxed(Expr::FloatImm(2.5, ScalarType::F32))),
                    lanes,
                ),
                _ => Expr::Cast(
                    Type::new(ScalarType::I32, lanes),
                    boxed(self.float(lanes, d)),
                ),
            },
            // B[index]: a load of a broadcast when the index decodes to one
            8 => Expr::Load {
                ty: Type::new(ScalarType::I32, lanes),
                buffer: "B".into(),
                index: boxed(self.int(lanes, d)),
            },
            9 => {
                let cond = match self.pick(3) {
                    0 => splat(Expr::IntImm(0), lanes),
                    1 => splat(Expr::IntImm(1), lanes),
                    _ => bin(BinOp::Lt, self.int(lanes, d), self.int(lanes, d)),
                };
                Expr::Select(
                    boxed(cond),
                    boxed(self.int(lanes, d)),
                    boxed(self.int(lanes, d)),
                )
            }
            // x + 0, 0 + x, x * 1, 1 * x, x * 0, x / 1
            10 => {
                let a = self.int(lanes, d);
                let (zero, one) = (splat(Expr::IntImm(0), lanes), splat(Expr::IntImm(1), lanes));
                match self.pick(6) {
                    0 => bin(BinOp::Add, a, zero),
                    1 => bin(BinOp::Add, zero, a),
                    2 => bin(BinOp::Mul, a, one),
                    3 => bin(BinOp::Mul, one, a),
                    4 => bin(BinOp::Mul, a, zero),
                    _ => bin(BinOp::Div, a, one),
                }
            }
            11 => Expr::VectorReduceAdd {
                lanes,
                value: boxed(self.int(lanes * 2, d)),
            },
            // op(xN(a), xN(b)): broadcasts pulled out of pointwise ops
            12 => {
                let f = self.factor(lanes);
                bin(
                    BinOp::Add,
                    bcast(self.int(lanes / f, d), f),
                    bcast(self.int(lanes / f, d), f),
                )
            }
            _ => self.int_leaf(lanes),
        }
    }

    fn float(&mut self, lanes: u32, depth: u32) -> Expr {
        let imm = |v: f64| Expr::FloatImm(v, ScalarType::F32);
        if depth == 0 {
            let v = [0.0, 1.0, 2.5][self.pick(3) as usize];
            return splat(imm(v), lanes);
        }
        let d = depth - 1;
        match self.pick(6) {
            0 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][self.pick(4) as usize];
                bin(op, self.float(lanes, d), self.float(lanes, d))
            }
            1 => Expr::Cast(Type::new(ScalarType::F32, lanes), boxed(self.int(lanes, d))),
            2 => splat(
                Expr::Cast(Type::f32(), boxed(Expr::FloatImm(1.5, ScalarType::F16))),
                lanes,
            ),
            3 => Expr::Load {
                ty: Type::new(ScalarType::F32, lanes),
                buffer: "A".into(),
                index: boxed(self.int(lanes, d)),
            },
            4 => {
                let f = self.factor(lanes);
                bcast(self.float(lanes / f, d), f)
            }
            _ => {
                let a = self.float(lanes, d);
                let unit = splat(imm(f64::from(self.pick(2))), lanes);
                let op = if self.pick(2) == 0 {
                    BinOp::Add
                } else {
                    BinOp::Mul
                };
                bin(op, a, unit)
            }
        }
    }
}
