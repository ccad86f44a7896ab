//! The data-movement annotation pass (tile extractor, step 1).
//!
//! Halide IR does not distinguish computations in different memories; the
//! e-graph must (paper §III-B). This pass wraps every store *into* an
//! accelerator-resident buffer in `loc_to_loc(Mem → acc, value)` and every
//! load *from* one in `loc_to_loc(acc → Mem, load)`, so that equality
//! saturation never equates a value in memory with one in a register file,
//! and so the lowering rules can cancel movements into intrinsics.

use std::collections::HashMap;

use hb_ir::builder::loc_to_loc;
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_ir::symbol::Symbol;
use hb_ir::types::{Location, MemoryType};

/// Map from buffer name to its scheduled placement.
pub type Placements = HashMap<String, MemoryType>;

/// [`Placements`] by interned name: what annotation looks buffers up in.
pub(crate) type SymbolPlacements = HashMap<Symbol, MemoryType>;

/// Collects placements from the `Allocate` nodes of a statement tree.
#[must_use]
pub fn collect_placements(stmt: &Stmt) -> Placements {
    let mut out = Placements::new();
    stmt.for_each_stmt(&mut |s| {
        if let Stmt::Allocate { name, memory, .. } = s {
            out.insert(name.to_string(), *memory);
        }
    });
    out
}

fn accel_location(placements: &SymbolPlacements, buffer: Symbol) -> Option<Location> {
    placements.get(&buffer).and_then(|m| {
        if m.is_accelerator() {
            Some(m.location())
        } else {
            None
        }
    })
}

/// Wraps the accelerator-buffer loads of an expression, in place.
fn annotate_expr(e: &mut Expr, placements: &SymbolPlacements) -> bool {
    e.rewrite_bottom_up(&mut |node| {
        let Expr::Load { buffer, .. } = &*node else {
            return false;
        };
        let Some(loc) = accel_location(placements, *buffer) else {
            return false;
        };
        *node = loc_to_loc(loc, Location::Mem, node.take());
        true
    })
}

/// Annotates a whole statement tree with data movements, in place; returns
/// whether it inserted one.
pub(crate) fn annotate_in_place(stmt: &mut Stmt, placements: &SymbolPlacements) -> bool {
    stmt.rewrite_stmts_in_place(&mut |s| match s {
        Stmt::Store {
            buffer,
            index,
            value,
        } => {
            let loads = annotate_expr(index, placements) | annotate_expr(value, placements);
            let Some(loc) = accel_location(placements, *buffer) else {
                return loads;
            };
            *value = loc_to_loc(Location::Mem, loc, value.take());
            true
        }
        Stmt::Evaluate(e) => annotate_expr(e, placements),
        _ => false,
    })
}

/// Annotates a copy of a whole statement tree with data movements.
#[must_use]
pub fn annotate_stmt(stmt: &Stmt, placements: &Placements) -> Stmt {
    let placements = placements.iter().map(|(k, v)| (Symbol::from(k), *v));
    let mut out = stmt.clone();
    annotate_in_place(&mut out, &placements.collect());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder as b;
    use hb_ir::types::Type;

    fn placements() -> Placements {
        let mut p = Placements::new();
        p.insert("acc".into(), MemoryType::AmxTile);
        p.insert("frag".into(), MemoryType::WmmaAccumulator);
        p.insert("plain".into(), MemoryType::Heap);
        p
    }

    #[test]
    fn stores_into_amx_get_wrapped() {
        let s = b::store(
            "acc",
            b::ramp(b::int(0), b::int(1), 4),
            b::bcast(b::flt(0.0), 4),
        );
        let a = annotate_stmt(&s, &placements());
        match a {
            Stmt::Store { value, .. } => match value {
                Expr::LocToLoc { from, to, .. } => {
                    assert_eq!(from, Location::Mem);
                    assert_eq!(to, Location::Amx);
                }
                other => panic!("expected movement, got {other}"),
            },
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn loads_from_accelerator_get_wrapped() {
        // plain[..] = frag[..] — the load side is WMMA-resident.
        let s = b::store(
            "plain",
            b::ramp(b::int(0), b::int(1), 4),
            b::load(
                Type::f32().with_lanes(4),
                "frag",
                b::ramp(b::int(0), b::int(1), 4),
            ),
        );
        let a = annotate_stmt(&s, &placements());
        match a {
            Stmt::Store { value, .. } => match value {
                Expr::LocToLoc { from, to, .. } => {
                    assert_eq!(from, Location::Wmma);
                    assert_eq!(to, Location::Mem);
                }
                other => panic!("expected movement, got {other}"),
            },
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn accumulator_update_wraps_both_sides() {
        // acc[..] = acc[..] + v  becomes
        // acc[..] = mem_to_amx(amx_to_mem(acc[..]) + v).
        let idx = b::ramp(b::int(0), b::int(1), 4);
        let s = b::store(
            "acc",
            idx.clone(),
            b::add(
                b::load(Type::f32().with_lanes(4), "acc", idx),
                b::bcast(b::flt(1.0), 4),
            ),
        );
        let a = annotate_stmt(&s, &placements());
        let text = format!("{a}");
        assert!(text.contains("mem_to_amx("), "{text}");
        assert!(text.contains("amx_to_mem("), "{text}");
    }

    #[test]
    fn plain_buffers_untouched() {
        let s = b::store("plain", b::int(0), b::load(Type::f32(), "plain", b::int(1)));
        assert_eq!(annotate_stmt(&s, &placements()), s);
    }

    #[test]
    fn collect_placements_reads_allocates() {
        let s = b::allocate(
            "acc",
            hb_ir::types::ScalarType::F32,
            512,
            MemoryType::AmxTile,
            b::store("acc", b::int(0), b::flt(0.0)),
        );
        let p = collect_placements(&s);
        assert_eq!(p.get("acc"), Some(&MemoryType::AmxTile));
    }
}
