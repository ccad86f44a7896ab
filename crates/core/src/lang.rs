//! The HARDBOILED e-graph language (paper Fig. 9) and its e-class analysis.
//!
//! Literal integers ([`HbLang::Num`]) and buffer names ([`HbLang::Str`]) are
//! e-nodes rather than payloads, exactly as in egglog, so pattern variables
//! can bind lane counts and rule actions can compute new ones (the
//! `MultiplyLanes` idiom of the paper's supporting rules).
//!
//! # Names are [`Symbol`]s
//!
//! Buffer, variable and intrinsic names sit in e-nodes as the IR's own
//! [`Symbol`] (the module docs of [`hb_ir::symbol`] give the table and its
//! rules). With call arguments in a boxed slice that makes an [`HbLang`] 24
//! bytes (48 with `String` / `Vec<Id>`), encoding and decoding copy names,
//! and the saturation loop — which copies a node into its class, the memo
//! and one parent entry per child on every insert, and hashes and compares
//! it on every lookup — never touches a `String`: symbol equality, hashing
//! and [`Language::matches_op`] are integer operations that read no table
//! and take no lock.
//!
//! A symbol's number must reach no selected program: the derived `Ord`
//! (class node lists are sorted, which fixes match order) compares names,
//! and `op_key` (extraction tie-breaks and every per-op table are ordered by
//! it) finishes a hasher primed with the name, kept in a side table indexed
//! by the symbol's number and filled the first time a symbol is keyed.
//! Programs, node order and every deterministic count are therefore
//! functions of the names alone, and the snapshot wire format keeps writing
//! strings.

use std::hash::{Hash, Hasher};
use std::mem::discriminant;

use hb_egraph::egraph::{Analysis, EGraph};
use hb_egraph::hash::WordHasher;
use hb_egraph::language::{op_hasher, Language};
use hb_egraph::snapshot::{
    SnapshotAnalysis, SnapshotError, SnapshotNode, SnapshotReader, SnapshotWriter,
};
use hb_egraph::unionfind::Id;
use hb_ir::expr::BinOp;
use hb_ir::symbol::Slots;
pub use hb_ir::symbol::Symbol;
use hb_ir::types::{Location, ScalarType};

/// [`op_hasher`]s that have hashed the discriminant of [`HbLang::Str`],
/// [`HbLang::VarE`] and [`HbLang::Call`] (in that order) and then a
/// symbol's name, by the symbol's number, so an op key costs no pass over
/// the string.
static PRIMED: Slots<[WordHasher; 3]> = Slots::new();

/// The primed hashers of `symbol` (see [`PRIMED`]).
fn primed(symbol: Symbol) -> &'static [WordHasher; 3] {
    PRIMED.get_or_init(symbol.index(), || {
        let name = symbol.as_str();
        [
            HbLang::Str(symbol),
            HbLang::VarE(symbol),
            HbLang::Call(symbol, Box::default()),
        ]
        .map(|variant| {
            let mut h = op_hasher();
            discriminant(&variant).hash(&mut h);
            name.hash(&mut h);
            h
        })
    })
}

/// E-nodes of the HARDBOILED internal representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HbLang {
    /// Integer literal.
    Num(i64),
    /// Float literal (bits) with element type.
    Flt(u64, ScalarType),
    /// String literal: buffer names.
    Str(Symbol),
    /// Scalar variable (loop vars).
    VarE(Symbol),
    /// Vector type: element tag + lane-count child (a `Num`).
    Ty(ScalarType, [Id; 1]),
    /// Deferred lane multiplication over a type (supporting rules rewrite to
    /// a concrete `Ty`): `MultiplyLanes(ty, factor)`.
    MultiplyLanes([Id; 2]),
    /// `cast(ty, value)`.
    Cast([Id; 2]),
    /// Binary operator.
    Bin(BinOp, [Id; 2]),
    /// `select(cond, then, else)`.
    Select([Id; 3]),
    /// `ramp(base, stride, lanes)` — lanes is a `Num` child.
    Ramp([Id; 3]),
    /// `broadcast(value, lanes)` — lanes is a `Num` child.
    Bcast([Id; 2]),
    /// `load(ty, name, index)` — name is a `Str` child.
    Load([Id; 3]),
    /// `vector_reduce_add(out_lanes, value)`.
    Vra([Id; 2]),
    /// Intrinsic call; children are `[result_ty, args…]`.
    Call(Symbol, Box<[Id]>),
    /// `loc_to_loc` data movement.
    Loc(Location, Location, [Id; 1]),
    /// Pointer to a temporary buffer holding the evaluated expression
    /// (materialized by post-processing).
    ExprVar([Id; 1]),
    /// A store statement as a term: `store(name, index, value)`.
    StoreS([Id; 3]),
    /// An evaluate statement as a term.
    EvalS([Id; 1]),
    /// The fact `(amx-A-tile A tileA m k)` (paper Fig. 10b): the operand
    /// class `A` is available as the m×k AMX tile `tileA`. Added by the
    /// application-specific rules and joined by `amx-matmul`; a fact is
    /// no value, so no program root reaches its class and decoding
    /// rejects it.
    AmxATile([Id; 4]),
    /// The fact `(amx-B-tile B tileB k n)`: operand `B` is available as
    /// the k×n AMX tile `tileB` (see [`HbLang::AmxATile`]).
    AmxBTile([Id; 4]),
}

impl HbLang {
    /// An intrinsic call node; `children` are `[result_ty, args…]`. From an
    /// array and an already interned name this is one allocation.
    #[must_use]
    pub fn call(name: impl Into<Symbol>, children: impl Into<Box<[Id]>>) -> Self {
        HbLang::Call(name.into(), children.into())
    }
}

impl Language for HbLang {
    fn children(&self) -> &[Id] {
        match self {
            HbLang::Num(_) | HbLang::Flt(..) | HbLang::Str(_) | HbLang::VarE(_) => &[],
            HbLang::Ty(_, c) | HbLang::Loc(_, _, c) | HbLang::ExprVar(c) | HbLang::EvalS(c) => c,
            HbLang::MultiplyLanes(c)
            | HbLang::Cast(c)
            | HbLang::Bin(_, c)
            | HbLang::Bcast(c)
            | HbLang::Vra(c) => c,
            HbLang::Select(c) | HbLang::Ramp(c) | HbLang::Load(c) | HbLang::StoreS(c) => c,
            HbLang::AmxATile(c) | HbLang::AmxBTile(c) => c,
            HbLang::Call(_, args) => args,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            HbLang::Num(_) | HbLang::Flt(..) | HbLang::Str(_) | HbLang::VarE(_) => &mut [],
            HbLang::Ty(_, c) | HbLang::Loc(_, _, c) | HbLang::ExprVar(c) | HbLang::EvalS(c) => c,
            HbLang::MultiplyLanes(c)
            | HbLang::Cast(c)
            | HbLang::Bin(_, c)
            | HbLang::Bcast(c)
            | HbLang::Vra(c) => c,
            HbLang::Select(c) | HbLang::Ramp(c) | HbLang::Load(c) | HbLang::StoreS(c) => c,
            HbLang::AmxATile(c) | HbLang::AmxBTile(c) => c,
            HbLang::Call(_, args) => args,
        }
    }

    #[inline]
    fn matches_op(&self, other: &Self) -> bool {
        // Most candidates the matcher offers differ in the operator itself.
        if discriminant(self) != discriminant(other) {
            return false;
        }
        match (self, other) {
            (HbLang::Num(a), HbLang::Num(b)) => a == b,
            (HbLang::Flt(a, sa), HbLang::Flt(b, sb)) => a == b && sa == sb,
            (HbLang::Str(a), HbLang::Str(b)) | (HbLang::VarE(a), HbLang::VarE(b)) => a == b,
            (HbLang::Ty(a, _), HbLang::Ty(b, _)) => a == b,
            (HbLang::MultiplyLanes(_), HbLang::MultiplyLanes(_))
            | (HbLang::Cast(_), HbLang::Cast(_))
            | (HbLang::Select(_), HbLang::Select(_))
            | (HbLang::Ramp(_), HbLang::Ramp(_))
            | (HbLang::Bcast(_), HbLang::Bcast(_))
            | (HbLang::Load(_), HbLang::Load(_))
            | (HbLang::Vra(_), HbLang::Vra(_))
            | (HbLang::ExprVar(_), HbLang::ExprVar(_))
            | (HbLang::StoreS(_), HbLang::StoreS(_))
            | (HbLang::EvalS(_), HbLang::EvalS(_))
            | (HbLang::AmxATile(_), HbLang::AmxATile(_))
            | (HbLang::AmxBTile(_), HbLang::AmxBTile(_)) => true,
            (HbLang::Bin(a, _), HbLang::Bin(b, _)) => a == b,
            (HbLang::Call(a, ca), HbLang::Call(b, cb)) => a == b && ca.len() == cb.len(),
            (HbLang::Loc(f1, t1, _), HbLang::Loc(f2, t2, _)) => f1 == f2 && t1 == t2,
            _ => false,
        }
    }

    fn op_name(&self) -> String {
        match self {
            HbLang::Num(v) => v.to_string(),
            HbLang::Flt(bits, st) => format!("{}{st}", f64::from_bits(*bits)),
            HbLang::Str(s) => format!("{s:?}"),
            HbLang::VarE(v) => v.to_string(),
            HbLang::Ty(st, _) => format!("{st}"),
            HbLang::MultiplyLanes(_) => "MultiplyLanes".into(),
            HbLang::Cast(_) => "Cast".into(),
            HbLang::Bin(op, _) => op.name().to_string(),
            HbLang::Select(_) => "Select".into(),
            HbLang::Ramp(_) => "Ramp".into(),
            HbLang::Bcast(_) => "Broadcast".into(),
            HbLang::Load(_) => "Load".into(),
            HbLang::Vra(_) => "VectorReduceAdd".into(),
            HbLang::Call(name, _) => name.to_string(),
            HbLang::Loc(f, t, _) => format!("{f}2{t}"),
            HbLang::ExprVar(_) => "ExprVar".into(),
            HbLang::StoreS(_) => "Store".into(),
            HbLang::EvalS(_) => "Evaluate".into(),
            HbLang::AmxATile(_) => "amx-A-tile".into(),
            HbLang::AmxBTile(_) => "amx-B-tile".into(),
        }
    }

    fn op_key(&self) -> u64 {
        // Discriminant + payload (never children), mirroring `matches_op`:
        // two nodes that match ops always produce the same key, so the
        // e-graph's operator index can stand in for a matches_op pre-filter.
        // A name enters through the hasher primed with it at interning —
        // the value hashing the string here would give, and never the
        // symbol's number.
        let mut h = match self {
            HbLang::Str(s) => primed(*s)[0],
            HbLang::VarE(s) => primed(*s)[1],
            HbLang::Call(name, _) => primed(*name)[2],
            _ => {
                let mut h = op_hasher();
                discriminant(self).hash(&mut h);
                h
            }
        };
        match self {
            HbLang::Num(v) => v.hash(&mut h),
            HbLang::Flt(bits, st) => {
                bits.hash(&mut h);
                st.hash(&mut h);
            }
            HbLang::Ty(st, _) => st.hash(&mut h),
            HbLang::Bin(op, _) => op.hash(&mut h),
            HbLang::Call(_, args) => args.len().hash(&mut h),
            HbLang::Loc(from, to, _) => {
                from.hash(&mut h);
                to.hash(&mut h);
            }
            HbLang::Str(_)
            | HbLang::VarE(_)
            | HbLang::MultiplyLanes(_)
            | HbLang::Cast(_)
            | HbLang::Select(_)
            | HbLang::Ramp(_)
            | HbLang::Bcast(_)
            | HbLang::Load(_)
            | HbLang::Vra(_)
            | HbLang::ExprVar(_)
            | HbLang::StoreS(_)
            | HbLang::EvalS(_)
            | HbLang::AmxATile(_)
            | HbLang::AmxBTile(_) => {}
        }
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// Snapshot codec (the e-graph wire format's per-node payload; see
// `hb_egraph::snapshot` for the framing). Tags are part of snapshot format
// v1 — append new variants, never renumber.
// ---------------------------------------------------------------------------

fn scalar_type_tag(st: ScalarType) -> u8 {
    match st {
        ScalarType::BF16 => 0,
        ScalarType::F16 => 1,
        ScalarType::F32 => 2,
        ScalarType::I32 => 3,
        ScalarType::Bool => 4,
    }
}

fn scalar_type_from_tag(tag: u8) -> Result<ScalarType, SnapshotError> {
    Ok(match tag {
        0 => ScalarType::BF16,
        1 => ScalarType::F16,
        2 => ScalarType::F32,
        3 => ScalarType::I32,
        4 => ScalarType::Bool,
        other => return Err(SnapshotError::Corrupt(format!("scalar type tag {other}"))),
    })
}

fn location_tag(loc: Location) -> u8 {
    match loc {
        Location::Mem => 0,
        Location::Amx => 1,
        Location::Wmma => 2,
    }
}

fn location_from_tag(tag: u8) -> Result<Location, SnapshotError> {
    Ok(match tag {
        0 => Location::Mem,
        1 => Location::Amx,
        2 => Location::Wmma,
        other => return Err(SnapshotError::Corrupt(format!("location tag {other}"))),
    })
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Min => 5,
        BinOp::Max => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Eq => 9,
        BinOp::And => 10,
        BinOp::Or => 11,
    }
}

fn binop_from_tag(tag: u8) -> Result<BinOp, SnapshotError> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Min,
        6 => BinOp::Max,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Eq,
        10 => BinOp::And,
        11 => BinOp::Or,
        other => return Err(SnapshotError::Corrupt(format!("binop tag {other}"))),
    })
}

fn read_ids<const N: usize>(r: &mut SnapshotReader<'_>) -> Result<[Id; N], SnapshotError> {
    let mut ids = [Id(0); N];
    for slot in &mut ids {
        *slot = r.id()?;
    }
    Ok(ids)
}

impl SnapshotNode for HbLang {
    fn write_node(&self, w: &mut SnapshotWriter) {
        match self {
            HbLang::Num(v) => {
                w.u8(0);
                w.i64(*v);
            }
            HbLang::Flt(bits, st) => {
                w.u8(1);
                w.u64(*bits);
                w.u8(scalar_type_tag(*st));
            }
            HbLang::Str(s) => {
                w.u8(2);
                w.str(s);
            }
            HbLang::VarE(s) => {
                w.u8(3);
                w.str(s);
            }
            HbLang::Ty(st, [l]) => {
                w.u8(4);
                w.u8(scalar_type_tag(*st));
                w.id(*l);
            }
            HbLang::MultiplyLanes(c) => {
                w.u8(5);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Cast(c) => {
                w.u8(6);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Bin(op, c) => {
                w.u8(7);
                w.u8(binop_tag(*op));
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Select(c) => {
                w.u8(8);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Ramp(c) => {
                w.u8(9);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Bcast(c) => {
                w.u8(10);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Load(c) => {
                w.u8(11);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Vra(c) => {
                w.u8(12);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::Call(name, args) => {
                w.u8(13);
                w.str(name);
                w.len(args.len());
                args.iter().for_each(|&id| w.id(id));
            }
            HbLang::Loc(from, to, [v]) => {
                w.u8(14);
                w.u8(location_tag(*from));
                w.u8(location_tag(*to));
                w.id(*v);
            }
            HbLang::ExprVar([v]) => {
                w.u8(15);
                w.id(*v);
            }
            HbLang::StoreS(c) => {
                w.u8(16);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::EvalS([v]) => {
                w.u8(17);
                w.id(*v);
            }
            HbLang::AmxATile(c) => {
                w.u8(18);
                c.iter().for_each(|&id| w.id(id));
            }
            HbLang::AmxBTile(c) => {
                w.u8(19);
                c.iter().for_each(|&id| w.id(id));
            }
        }
    }

    fn read_node(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => HbLang::Num(r.i64()?),
            1 => {
                let bits = r.u64()?;
                HbLang::Flt(bits, scalar_type_from_tag(r.u8()?)?)
            }
            2 => HbLang::Str(r.str()?.into()),
            3 => HbLang::VarE(r.str()?.into()),
            4 => {
                let st = scalar_type_from_tag(r.u8()?)?;
                HbLang::Ty(st, read_ids(r)?)
            }
            5 => HbLang::MultiplyLanes(read_ids(r)?),
            6 => HbLang::Cast(read_ids(r)?),
            7 => {
                let op = binop_from_tag(r.u8()?)?;
                HbLang::Bin(op, read_ids(r)?)
            }
            8 => HbLang::Select(read_ids(r)?),
            9 => HbLang::Ramp(read_ids(r)?),
            10 => HbLang::Bcast(read_ids(r)?),
            11 => HbLang::Load(read_ids(r)?),
            12 => HbLang::Vra(read_ids(r)?),
            13 => {
                let name = r.str()?;
                let n = r.len()?;
                let args = (0..n).map(|_| r.id()).collect::<Result<Box<[_]>, _>>()?;
                HbLang::Call(name.into(), args)
            }
            14 => {
                let from = location_from_tag(r.u8()?)?;
                let to = location_from_tag(r.u8()?)?;
                HbLang::Loc(from, to, read_ids(r)?)
            }
            15 => HbLang::ExprVar(read_ids(r)?),
            16 => HbLang::StoreS(read_ids(r)?),
            17 => HbLang::EvalS(read_ids(r)?),
            18 => HbLang::AmxATile(read_ids(r)?),
            19 => HbLang::AmxBTile(read_ids(r)?),
            other => return Err(SnapshotError::Corrupt(format!("HbLang node tag {other}"))),
        })
    }
}

impl SnapshotAnalysis<HbLang> for HbAnalysis {
    fn write_data(data: &HbData, w: &mut SnapshotWriter) {
        match data.constant {
            None => w.u8(0),
            Some(ConstVal::Int(v)) => {
                w.u8(1);
                w.i64(v);
            }
            Some(ConstVal::Float(f)) => {
                w.u8(2);
                w.u64(f.to_bits());
            }
        }
        match data.lanes {
            None => w.u8(0),
            Some(l) => {
                w.u8(1);
                w.u32(l);
            }
        }
    }

    fn read_data(r: &mut SnapshotReader<'_>) -> Result<HbData, SnapshotError> {
        let constant = match r.u8()? {
            0 => None,
            1 => Some(ConstVal::Int(r.i64()?)),
            2 => Some(ConstVal::Float(f64::from_bits(r.u64()?))),
            other => return Err(SnapshotError::Corrupt(format!("constant tag {other}"))),
        };
        let lanes = match r.u8()? {
            0 => None,
            1 => Some(r.u32()?),
            other => return Err(SnapshotError::Corrupt(format!("lanes tag {other}"))),
        };
        Ok(HbData { constant, lanes })
    }
}

/// A known-constant class value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
}

impl ConstVal {
    /// The integer value, if integral.
    #[must_use]
    pub fn as_int(self) -> Option<i64> {
        match self {
            ConstVal::Int(v) => Some(v),
            ConstVal::Float(_) => None,
        }
    }

    /// Whether the constant is (integer or float) zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        match self {
            ConstVal::Int(v) => v == 0,
            ConstVal::Float(f) => f == 0.0,
        }
    }
}

/// Per-class analysis data: constant value (propagated through broadcasts
/// and integer arithmetic) and lane count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HbData {
    /// Constant value of the class, if known. A broadcast of a constant is
    /// treated as that constant (a constant *vector*).
    pub constant: Option<ConstVal>,
    /// Lane count of the class's value, if derivable.
    pub lanes: Option<u32>,
}

/// The analysis implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct HbAnalysis;

/// The e-graph type used throughout HARDBOILED.
pub type HbGraph = EGraph<HbLang, HbAnalysis>;

impl Analysis<HbLang> for HbAnalysis {
    type Data = HbData;

    fn make(egraph: &EGraph<HbLang, Self>, enode: &HbLang) -> HbData {
        let konst = |id: &Id| egraph.data(*id).constant;
        let lanes_of = |id: &Id| egraph.data(*id).lanes;
        match enode {
            HbLang::Num(v) => HbData {
                constant: Some(ConstVal::Int(*v)),
                lanes: Some(1),
            },
            HbLang::Flt(bits, _) => HbData {
                constant: Some(ConstVal::Float(f64::from_bits(*bits))),
                lanes: Some(1),
            },
            HbLang::VarE(_) => HbData {
                constant: None,
                lanes: Some(1),
            },
            HbLang::Bcast([v, l]) => HbData {
                constant: konst(v),
                lanes: match (lanes_of(v), konst(l).and_then(ConstVal::as_int)) {
                    (Some(a), Some(b)) => Some(a * b as u32),
                    _ => None,
                },
            },
            HbLang::Ramp([b, _, l]) => HbData {
                constant: None,
                lanes: match (lanes_of(b), konst(l).and_then(ConstVal::as_int)) {
                    (Some(a), Some(n)) => Some(a * n as u32),
                    _ => None,
                },
            },
            HbLang::Bin(op, [a, b]) => {
                let c = match (konst(a), konst(b)) {
                    (Some(ConstVal::Int(x)), Some(ConstVal::Int(y))) => match op {
                        BinOp::Add => Some(ConstVal::Int(x + y)),
                        BinOp::Sub => Some(ConstVal::Int(x - y)),
                        BinOp::Mul => Some(ConstVal::Int(x * y)),
                        BinOp::Div if y != 0 => Some(ConstVal::Int(x.div_euclid(y))),
                        BinOp::Mod if y != 0 => Some(ConstVal::Int(x.rem_euclid(y))),
                        BinOp::Min => Some(ConstVal::Int(x.min(y))),
                        BinOp::Max => Some(ConstVal::Int(x.max(y))),
                        _ => None,
                    },
                    _ => None,
                };
                HbData {
                    constant: c,
                    lanes: lanes_of(a).or_else(|| lanes_of(b)),
                }
            }
            HbLang::Cast([t, v]) => HbData {
                constant: konst(v),
                lanes: ty_lanes(egraph, *t).or_else(|| lanes_of(v)),
            },
            HbLang::Load([t, _, _]) => HbData {
                constant: None,
                lanes: ty_lanes(egraph, *t),
            },
            HbLang::Vra([l, _]) => HbData {
                constant: None,
                lanes: konst(l).and_then(ConstVal::as_int).map(|v| v as u32),
            },
            HbLang::Loc(_, _, [v]) | HbLang::ExprVar([v]) => HbData {
                constant: None,
                lanes: lanes_of(v),
            },
            HbLang::Select([_, t, _]) => HbData {
                constant: None,
                lanes: lanes_of(t),
            },
            HbLang::Call(_, args) => HbData {
                constant: None,
                lanes: args.first().and_then(|t| ty_lanes(egraph, *t)),
            },
            HbLang::Ty(..)
            | HbLang::MultiplyLanes(_)
            | HbLang::Str(_)
            | HbLang::StoreS(_)
            | HbLang::EvalS(_)
            | HbLang::AmxATile(_)
            | HbLang::AmxBTile(_) => HbData::default(),
        }
    }

    fn merge(a: &mut HbData, b: HbData) -> bool {
        let mut changed = false;
        if a.constant.is_none() && b.constant.is_some() {
            a.constant = b.constant;
            changed = true;
        }
        if a.lanes.is_none() && b.lanes.is_some() {
            a.lanes = b.lanes;
            changed = true;
        }
        changed
    }
}

/// Lane count of a `Ty` node's class, if present.
#[must_use]
pub fn ty_lanes(egraph: &EGraph<HbLang, HbAnalysis>, ty_class: Id) -> Option<u32> {
    // The lanes child is a Num; look through the class's Ty nodes.
    for node in &egraph.class(ty_class).nodes {
        if let HbLang::Ty(_, [l]) = node {
            if let Some(ConstVal::Int(v)) = egraph.data(*l).constant {
                return Some(v as u32);
            }
        }
    }
    None
}

/// Integer constant of a class, if known.
#[must_use]
pub fn const_int(egraph: &HbGraph, id: Id) -> Option<i64> {
    egraph.data(id).constant.and_then(ConstVal::as_int)
}

#[cfg(test)]
mod tests {
    use super::*;

    // `op_key`s of `Str("acc")`, `VarE("i")` and a four-child
    // `Call("tile_matmul", …)` as the `String` / `Vec<Id>` representation
    // computed them.
    const PINNED_STR_ACC: u64 = 0x7521_13f9_fdaa_bae6;
    const PINNED_VAR_I: u64 = 0xf7ac_d2a2_1125_7359;
    const PINNED_CALL_TILE_MATMUL_4: u64 = 0xaac9_4679_ca6a_518f;

    #[test]
    fn constants_propagate_through_broadcasts() {
        let mut eg = HbGraph::default();
        let z = eg.add(HbLang::Num(0));
        let n = eg.add(HbLang::Num(512));
        let b = eg.add(HbLang::Bcast([z, n]));
        assert_eq!(eg.data(b).constant, Some(ConstVal::Int(0)));
        assert_eq!(eg.data(b).lanes, Some(512));
        assert!(eg.data(b).constant.unwrap().is_zero());
    }

    #[test]
    fn arithmetic_folds_in_analysis() {
        let mut eg = HbGraph::default();
        let a = eg.add(HbLang::Num(6));
        let b = eg.add(HbLang::Num(7));
        let m = eg.add(HbLang::Bin(BinOp::Mul, [a, b]));
        assert_eq!(const_int(&eg, m), Some(42));
    }

    #[test]
    fn ramp_lanes_multiply() {
        let mut eg = HbGraph::default();
        let z = eg.add(HbLang::Num(0));
        let one = eg.add(HbLang::Num(1));
        let n32 = eg.add(HbLang::Num(32));
        let inner = eg.add(HbLang::Ramp([z, one, n32]));
        let n16 = eg.add(HbLang::Num(16));
        let binner = eg.add(HbLang::Bcast([inner, n16]));
        assert_eq!(eg.data(binner).lanes, Some(512));
    }

    #[test]
    fn ty_lanes_reads_type_nodes() {
        let mut eg = HbGraph::default();
        let n = eg.add(HbLang::Num(8192));
        let ty = eg.add(HbLang::Ty(ScalarType::F32, [n]));
        assert_eq!(ty_lanes(&eg, ty), Some(8192));
    }

    #[test]
    fn float_constants_track_zero() {
        let mut eg = HbGraph::default();
        let f = eg.add(HbLang::Flt(0.0f64.to_bits(), ScalarType::F32));
        assert!(eg.data(f).constant.unwrap().is_zero());
        let g = eg.add(HbLang::Flt(1.5f64.to_bits(), ScalarType::F32));
        assert!(!eg.data(g).constant.unwrap().is_zero());
    }

    #[test]
    fn merge_prefers_known_values() {
        let mut eg = HbGraph::default();
        let v = eg.add(HbLang::VarE("x".into()));
        let n = eg.add(HbLang::Num(3));
        eg.union(v, n);
        eg.rebuild();
        assert_eq!(const_int(&eg, v), Some(3));
    }

    #[test]
    fn snapshot_codec_round_trips_every_variant() {
        let nodes = vec![
            HbLang::Num(-42),
            HbLang::Flt(1.5f64.to_bits(), ScalarType::BF16),
            HbLang::Str("acc".into()),
            HbLang::VarE("i".into()),
            HbLang::Ty(ScalarType::I32, [Id(1)]),
            HbLang::MultiplyLanes([Id(1), Id(2)]),
            HbLang::Cast([Id(3), Id(4)]),
            HbLang::Bin(BinOp::Max, [Id(5), Id(6)]),
            HbLang::Select([Id(1), Id(2), Id(3)]),
            HbLang::Ramp([Id(4), Id(5), Id(6)]),
            HbLang::Bcast([Id(7), Id(8)]),
            HbLang::Load([Id(1), Id(2), Id(3)]),
            HbLang::Vra([Id(9), Id(10)]),
            HbLang::call("tile_matmul", [Id(1), Id(2), Id(3), Id(4)]),
            HbLang::Loc(Location::Mem, Location::Wmma, [Id(11)]),
            HbLang::ExprVar([Id(12)]),
            HbLang::StoreS([Id(1), Id(2), Id(3)]),
            HbLang::EvalS([Id(4)]),
            HbLang::AmxATile([Id(1), Id(2), Id(3), Id(4)]),
            HbLang::AmxBTile([Id(5), Id(6), Id(7), Id(8)]),
        ];
        let mut w = SnapshotWriter::new();
        for n in &nodes {
            n.write_node(&mut w);
        }
        let data = [
            HbData::default(),
            HbData {
                constant: Some(ConstVal::Int(7)),
                lanes: Some(16),
            },
            HbData {
                constant: Some(ConstVal::Float(2.5)),
                lanes: None,
            },
        ];
        for d in &data {
            HbAnalysis::write_data(d, &mut w);
        }
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        for n in &nodes {
            assert_eq!(&HbLang::read_node(&mut r).unwrap(), n);
        }
        for d in &data {
            assert_eq!(&HbAnalysis::read_data(&mut r).unwrap(), d);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn snapshot_codec_rejects_unknown_tags() {
        let mut w = SnapshotWriter::new();
        w.u8(250);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            HbLang::read_node(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn nodes_are_three_words() {
        // What `EGraph::add` copies 2 + arity times per new node.
        assert!(std::mem::size_of::<HbLang>() <= 24);
    }

    /// The parent representation's key: discriminant, then the name as a
    /// `str`, then (for calls) the arity — a function of the string alone.
    fn key_from_content(variant: &HbLang, name: &str, arity: Option<usize>) -> u64 {
        let mut h = op_hasher();
        discriminant(variant).hash(&mut h);
        name.hash(&mut h);
        if let Some(n) = arity {
            n.hash(&mut h);
        }
        h.finish()
    }

    #[test]
    fn op_keys_of_named_nodes_come_from_the_name_alone() {
        // Interned between other names, so the three get no particular
        // numbers; the pinned values are what `String`-carrying nodes
        // hashed to.
        let _ = Symbol::from("op-key-test-filler-0");
        let acc = HbLang::Str("acc".into());
        let _ = Symbol::from("op-key-test-filler-1");
        let i = HbLang::VarE("i".into());
        let matmul = HbLang::call("tile_matmul", [Id(1), Id(2), Id(3), Id(4)]);
        assert_eq!(acc.op_key(), key_from_content(&acc, "acc", None));
        assert_eq!(i.op_key(), key_from_content(&i, "i", None));
        assert_eq!(
            matmul.op_key(),
            key_from_content(&matmul, "tile_matmul", Some(4))
        );
        assert_eq!(acc.op_key(), PINNED_STR_ACC);
        assert_eq!(i.op_key(), PINNED_VAR_I);
        assert_eq!(matmul.op_key(), PINNED_CALL_TILE_MATMUL_4);
        // Same name, different variant or arity: different operators.
        assert_ne!(acc.op_key(), HbLang::VarE("acc".into()).op_key());
        assert_ne!(
            matmul.op_key(),
            HbLang::call("tile_matmul", [Id(1)]).op_key()
        );
        assert!(!matmul.matches_op(&HbLang::call("tile_matmul", [Id(1)])));
    }

    #[test]
    fn named_nodes_order_and_print_by_name() {
        // Interned in descending order: numbers and names disagree.
        let (zz, a) = (Symbol::from("node-order-zz"), Symbol::from("node-order-a"));
        assert!(zz.index() < a.index());
        assert!(HbLang::Str(zz) > HbLang::Str(a));
        assert_eq!(HbLang::Str(a).op_name(), "\"node-order-a\"");
    }

    #[test]
    fn op_matching_distinguishes_payloads() {
        let a = HbLang::Bin(BinOp::Add, [Id(0), Id(1)]);
        let m = HbLang::Bin(BinOp::Mul, [Id(0), Id(1)]);
        assert!(!a.matches_op(&m));
        let l1 = HbLang::Loc(Location::Mem, Location::Amx, [Id(0)]);
        let l2 = HbLang::Loc(Location::Amx, Location::Mem, [Id(0)]);
        assert!(!l1.matches_op(&l2));
        assert!(l1.matches_op(&l1.clone()));
    }
}
