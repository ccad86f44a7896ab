//! Extraction cost models (paper §III-D3).
//!
//! The base model is AST size with one twist: residual `loc_to_loc`
//! data-movement nodes are heavily penalized. A movement that was not
//! absorbed into an accelerator intrinsic means the schedule's placement
//! request was not honored, so the extractor prefers any lowered form; if
//! none exists the movement survives and the selector reports the statement
//! as not lowered (the "miss" of the paper's hit-or-miss framing).
//!
//! The model is [`DeviceCost`], the one a `Session` extracts with,
//! **derived from the target's [`DeviceProfile`]**: the per-intrinsic
//! charge reflects how the device's tensor units compare to its
//! general-purpose cores, so extraction prefers intrinsics exactly when the
//! device makes them worthwhile. On every built-in profile (A100, RTX 4070
//! SUPER, AMX host) the derivation lands on the historical constants
//! ([`MOVEMENT_PENALTY`], [`INTRINSIC_COST`]; the unit tests below keep the
//! original hardcoded model as their reference), so selections are
//! byte-identical to it; a profile with pathologically slow tensor units
//! instead prices intrinsics above the movement penalty and extraction
//! falls back to vector code. Its two prices are all a session's cost
//! policy is: they go into the session's policy fingerprint.

use hb_accel::device::DeviceProfile;
use hb_egraph::extract::CostFunction;
use hb_egraph::language::Language;
use hb_egraph::unionfind::Id;

use crate::lang::HbLang;

/// Cost of an unabsorbed data-movement node.
pub const MOVEMENT_PENALTY: u64 = 10_000;

/// Own cost of an intrinsic call under the historical constants.
pub const INTRINSIC_COST: u64 = 2;

/// The device-derived cost model: AST size with the intrinsic charge
/// computed from a [`DeviceProfile`].
///
/// The derivation prices one accelerator intrinsic at `1 + r` where `r`
/// is the device's general-purpose FMA rate over its tensor FMA rate,
/// rounded, floored at 1 — i.e. how many "ordinary vector node" units of
/// time a tensor instruction costs *relative to what the same device could
/// do without it*. Devices whose tensor units outrun their cores (every
/// real profile) get the minimum charge of 2, [`INTRINSIC_COST`]; a
/// device whose tensor path is slower than its cores prices intrinsics
/// proportionally higher, and past [`MOVEMENT_PENALTY`] extraction prefers
/// the un-lowered vector form — the selector then honestly reports the
/// placement as missed rather than offloading to a unit that would slow
/// the program down.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCost {
    /// Own cost of an intrinsic call.
    pub intrinsic: u64,
    /// Own cost of an unabsorbed data movement.
    pub movement: u64,
}

impl DeviceCost {
    /// Derives the model from device parameters.
    #[must_use]
    pub fn from_profile(device: &DeviceProfile) -> Self {
        let ratio = device.cuda_fma_per_s / device.tensor_fma_per_s;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let relative = if ratio.is_finite() && ratio > 0.0 {
            // `as u64` saturates, so absurdly large finite ratios cap out
            // rather than wrapping.
            (ratio.round() as u64).max(1)
        } else if ratio > 0.0 {
            // No tensor units at all (tensor_fma_per_s == 0 → +inf ratio):
            // price intrinsics out of reach so extraction never offloads
            // to a unit the device does not have.
            u64::MAX / 4
        } else {
            // Degenerate profiles (zero/negative/NaN CUDA rate): fall back
            // to the minimum charge.
            1
        };
        DeviceCost {
            intrinsic: 1u64.saturating_add(relative),
            movement: MOVEMENT_PENALTY,
        }
    }
}

/// Each node's own cost — a movement's or an intrinsic's price, 1 for
/// anything else — plus its children's best costs (saturating).
impl CostFunction<HbLang> for DeviceCost {
    fn cost(&self, node: &HbLang, child_cost: &mut dyn FnMut(Id) -> u64) -> u64 {
        let own = match node {
            HbLang::Loc(..) => self.movement,
            HbLang::Call(..) => self.intrinsic,
            _ => 1,
        };
        let children = node.children().iter().map(|&c| child_cost(c));
        children.fold(own, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_expr;
    use crate::lang::HbGraph;
    use hb_egraph::extract::WorklistExtractor;
    use hb_ir::builder as b;
    use hb_ir::types::Type;

    /// The original HARDBOILED cost function — fixed constants, no device
    /// input — kept as the reference [`DeviceCost`] is held to.
    struct HbCost;

    impl CostFunction<HbLang> for HbCost {
        fn cost(&self, node: &HbLang, child_cost: &mut dyn FnMut(Id) -> u64) -> u64 {
            let own = match node {
                HbLang::Loc(..) => MOVEMENT_PENALTY,
                // Intrinsic calls are single instructions; keep them
                // competitive with the vector soup they replace.
                HbLang::Call(..) => INTRINSIC_COST,
                _ => 1,
            };
            let children = node.children().iter().map(|&c| child_cost(c));
            children.fold(own, u64::saturating_add)
        }
    }

    #[test]
    fn movements_dominate_cost() {
        let mut eg = HbGraph::default();
        let id = encode_expr(&mut eg, &b::mem_to_amx(b::bcast(b::flt(0.0), 4)));
        let ex = WorklistExtractor::new(&eg, HbCost);
        assert!(ex.cost_of(id).unwrap() >= MOVEMENT_PENALTY);
    }

    #[test]
    fn lowered_forms_win_extraction() {
        let mut eg = HbGraph::default();
        let moved = encode_expr(&mut eg, &b::mem_to_amx(b::bcast(b::flt(0.0), 512)));
        let call = encode_expr(
            &mut eg,
            &b::call(Type::f32().with_lanes(512), "tile_zero", vec![]),
        );
        eg.union(moved, call);
        eg.rebuild();
        let ex = WorklistExtractor::new(&eg, HbCost);
        let term = ex.extract(moved);
        assert_eq!(
            crate::decode::decode_expr(&term).unwrap(),
            b::call(Type::f32().with_lanes(512), "tile_zero", vec![]),
        );
    }

    #[test]
    fn built_in_profiles_derive_the_historical_constants() {
        // The byte-identity keystone: on every profile the repo ships, the
        // derived model must price nodes exactly like HbCost.
        for device in [
            DeviceProfile::a100(),
            DeviceProfile::rtx4070_super(),
            DeviceProfile::amx_host(),
        ] {
            let dc = DeviceCost::from_profile(&device);
            assert_eq!(dc.intrinsic, INTRINSIC_COST, "{}", device.name);
            assert_eq!(dc.movement, MOVEMENT_PENALTY, "{}", device.name);
        }
    }

    #[test]
    fn slow_tensor_units_price_intrinsics_past_the_movement_penalty() {
        let crippled = DeviceProfile {
            name: "tensor-unit-free box",
            tensor_fma_per_s: 1e9,
            cuda_fma_per_s: 20e12,
            ..DeviceProfile::a100()
        };
        let dc = DeviceCost::from_profile(&crippled);
        assert!(dc.intrinsic > MOVEMENT_PENALTY, "{}", dc.intrinsic);
    }

    #[test]
    fn zero_tensor_rate_prices_intrinsics_out_of_reach() {
        // The natural way to model "no tensor unit": a zero rate. The
        // resulting +inf ratio must price intrinsics at the maximum, not
        // fall back to the minimum.
        let none = DeviceProfile {
            name: "no tensor unit",
            tensor_fma_per_s: 0.0,
            ..DeviceProfile::a100()
        };
        let dc = DeviceCost::from_profile(&none);
        assert!(dc.intrinsic > MOVEMENT_PENALTY, "{}", dc.intrinsic);
        // Degenerate profiles (no usable rates at all) keep the minimum.
        let degenerate = DeviceProfile {
            name: "degenerate",
            tensor_fma_per_s: 0.0,
            cuda_fma_per_s: 0.0,
            ..DeviceProfile::a100()
        };
        assert_eq!(DeviceCost::from_profile(&degenerate).intrinsic, 2);
    }

    #[test]
    fn device_cost_flips_the_extraction_choice() {
        // One e-class holding both a movement-wrapped vector form and an
        // intrinsic call: the default model picks the call, a model with
        // intrinsics priced above the movement penalty picks the movement.
        let mut eg = HbGraph::default();
        let moved = encode_expr(&mut eg, &b::mem_to_amx(b::bcast(b::flt(0.0), 512)));
        let call = encode_expr(
            &mut eg,
            &b::call(Type::f32().with_lanes(512), "tile_zero", vec![]),
        );
        eg.union(moved, call);
        eg.rebuild();
        let cheap_tensor = DeviceCost::from_profile(&DeviceProfile::a100());
        let ex = WorklistExtractor::new(&eg, cheap_tensor);
        assert_eq!(
            crate::decode::decode_expr(&ex.extract(moved)).unwrap(),
            b::call(Type::f32().with_lanes(512), "tile_zero", vec![]),
        );
        let slow_tensor = DeviceCost {
            intrinsic: MOVEMENT_PENALTY * 2,
            movement: MOVEMENT_PENALTY,
        };
        let ex = WorklistExtractor::new(&eg, slow_tensor);
        assert_eq!(
            crate::decode::decode_expr(&ex.extract(moved)).unwrap(),
            b::mem_to_amx(b::bcast(b::flt(0.0), 512)),
        );
    }
}
