//! The seeded program generator.
//!
//! `--seed` is the only input. Every program is a schedule of one of the
//! `hb-apps` families that go through the selector, with a shape inside
//! the range the app asserts:
//!
//! ```text
//! program   := conv1d | unrolled | conv2d | gemm | amx | down | up
//! conv1d    := Conv1d   { n: 256*[2..8],  k: 8*[2..8] }                      tensor?
//! unrolled  := Conv1d   { n: 256*[2..3],  k: ladder }.pipeline_tc_unrolled()
//! conv2d    := Conv2d   { width: 256*[2..3], height: [2..8], kw: 8*[2..3], kh: [2..5] } tensor?
//! gemm      := GemmWmma { m, k, n: 16*[2..5] }                               tensor?
//! amx       := AmxMatmul{ m, n: 16*[2..4], k: 32*[2..4] } x layout x variant
//! down      := Downsample { n: 128*[2..17], k: 8*[2..5] }                    tensor?
//! up        := Upsample   { n: 256*[2..65], taps: 8 }                        tensor?
//! layout    := Standard | Vnni
//! variant   := Reference | LoopReorder | PreloadA | PreloadB   (by slot, in turn)
//! tensor?   := true, or false for the CUDA-only schedule that the selector
//!              passes through untouched (1 draw in 8)
//! ```
//!
//! The seed draws the shapes and (in `service_mixed`) the request order. It
//! does **not** draw the mix: every population holds a fixed number of
//! programs per family ([`Mix`]) with the families taking turns, because
//! compile cost depends on the family and the unroll factor and hardly on
//! the shape, and two seeds must measure the same amount of work for a
//! claim made on one seed to be checked on another. For the same reason
//! every extent is at least two tiles: a loop of one iteration is
//! simplified away and leaves a structurally different, cheaper program.
//! Programs inside one population are distinct.

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::reference;
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::lang::Pipeline;

use crate::rng::Rng;

/// One drawn program: an app family, a shape and a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    Conv1d {
        n: i64,
        k: i64,
        tensor: bool,
    },
    /// The Fig. 6 schedule: the reduction loop unrolled, `k / 8 + 2` leaves.
    Unrolled {
        n: i64,
        k: i64,
    },
    Conv2d {
        width: i64,
        height: i64,
        kw: i64,
        kh: i64,
        tensor: bool,
    },
    Gemm {
        m: i64,
        k: i64,
        n: i64,
        tensor: bool,
    },
    Amx {
        m: i64,
        k: i64,
        n: i64,
        layout: Layout,
        variant: Variant,
    },
    Down {
        n: i64,
        k: i64,
        tensor: bool,
    },
    Up {
        n: i64,
        tensor: bool,
    },
}

/// The families a small program is drawn from. The two AMX layouts are
/// separate strata so each keeps its four variants in every population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Conv1d,
    Conv2d,
    Gemm,
    AmxStandard,
    AmxVnni,
    Down,
    Up,
}

const FAMILIES: [Family; 7] = [
    Family::Conv1d,
    Family::Conv2d,
    Family::Gemm,
    Family::AmxStandard,
    Family::AmxVnni,
    Family::Down,
    Family::Up,
];

/// The families that have a CUDA-only schedule, taken in turn.
const CUDA_FAMILIES: [Family; 5] = [
    Family::Conv1d,
    Family::Conv2d,
    Family::Gemm,
    Family::Down,
    Family::Up,
];

const VARIANTS: [Variant; 4] = [
    Variant::Reference,
    Variant::LoopReorder,
    Variant::PreloadA,
    Variant::PreloadB,
];

/// How many programs of each kind a population of small programs holds.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Tensor-unit schedules per family, in [`FAMILIES`] order.
    pub per_family: [usize; 7],
    /// CUDA-only schedules, families taken in turn.
    pub cuda_only: usize,
}

fn draw(rng: &mut Rng, family: Family, slot: usize, tensor: bool) -> Spec {
    let amx = |rng: &mut Rng, layout| Spec::Amx {
        m: 16 * rng.range(2, 4),
        k: 32 * rng.range(2, 4),
        n: 16 * rng.range(2, 4),
        layout,
        variant: VARIANTS[slot % VARIANTS.len()],
    };
    match family {
        Family::Conv1d => Spec::Conv1d {
            n: 256 * rng.range(2, 8),
            k: 8 * rng.range(2, 8),
            tensor,
        },
        Family::Conv2d => Spec::Conv2d {
            width: 256 * rng.range(2, 3),
            height: rng.range(2, 8),
            kw: 8 * rng.range(2, 3),
            kh: rng.range(2, 5),
            tensor,
        },
        Family::Gemm => Spec::Gemm {
            m: 16 * rng.range(2, 5),
            k: 16 * rng.range(2, 5),
            n: 16 * rng.range(2, 5),
            tensor,
        },
        Family::AmxStandard => amx(rng, Layout::Standard),
        Family::AmxVnni => amx(rng, Layout::Vnni),
        Family::Down => Spec::Down {
            n: 128 * rng.range(2, 17),
            k: 8 * rng.range(2, 5),
            tensor,
        },
        Family::Up => Spec::Up {
            n: 256 * rng.range(2, 65),
            tensor,
        },
    }
}

/// Draws until the program is new to `into`, so a population never holds
/// one program twice (every family's shape space is larger than any mix
/// asks of it).
fn push_distinct(rng: &mut Rng, into: &mut Vec<Spec>, family: Family, slot: usize, tensor: bool) {
    loop {
        let spec = draw(rng, family, slot, tensor);
        if !into.contains(&spec) {
            into.push(spec);
            return;
        }
    }
}

/// A population of distinct small (3-4 leaf) programs, the families
/// taking turns: every stretch of the population holds the same mix, so
/// the programs `service_mixed` requests most are as costly under one seed
/// as under another.
#[must_use]
pub fn small_programs(rng: &mut Rng, mix: Mix) -> Vec<Spec> {
    let mut specs = Vec::new();
    let slots = mix.per_family.iter().copied().max().unwrap_or(0);
    for slot in 0..slots.max(mix.cuda_only) {
        for (family, &count) in FAMILIES.iter().zip(&mix.per_family) {
            if slot < count {
                push_distinct(rng, &mut specs, *family, slot, true);
            }
        }
        if slot < mix.cuda_only {
            let family = CUDA_FAMILIES[slot % CUDA_FAMILIES.len()];
            push_distinct(rng, &mut specs, family, slot, false);
        }
    }
    specs
}

/// One Fig. 6 program per kernel size of the ladder, in ladder order.
#[must_use]
pub fn unrolled_programs(rng: &mut Rng, ladder: &[i64]) -> Vec<Spec> {
    ladder
        .iter()
        .map(|&k| Spec::Unrolled {
            n: 256 * rng.range(2, 3),
            k,
        })
        .collect()
}

/// Maximum relative error allowed between an executed program and its
/// reference (the tolerance of the apps' own tests for f16/bf16 inputs).
pub const TOLERANCE: f64 = 0.08;

impl Spec {
    /// Whether the schedule places buffers on a tensor unit (false for the
    /// CUDA-only draws, which the selector leaves alone).
    #[must_use]
    pub fn uses_tensor_unit(&self) -> bool {
        match *self {
            Spec::Conv1d { tensor, .. }
            | Spec::Conv2d { tensor, .. }
            | Spec::Gemm { tensor, .. }
            | Spec::Down { tensor, .. }
            | Spec::Up { tensor, .. } => tensor,
            Spec::Unrolled { .. } | Spec::Amx { .. } => true,
        }
    }

    /// The service target whose rule profile covers this program.
    #[must_use]
    pub fn service_target(&self) -> &'static str {
        match self {
            Spec::Amx { .. } => "amx",
            _ => "wmma",
        }
    }

    /// Builds the algorithm and its schedule.
    #[must_use]
    pub fn pipeline(&self) -> Pipeline {
        match *self {
            Spec::Conv1d { n, k, tensor } => Conv1d { n, k }.pipeline(tensor),
            Spec::Unrolled { n, k } => Conv1d { n, k }.pipeline_tc_unrolled(),
            Spec::Conv2d {
                width,
                height,
                kw,
                kh,
                tensor,
            } => Conv2d {
                width,
                height,
                kw,
                kh,
            }
            .pipeline(tensor),
            Spec::Gemm { m, k, n, tensor } => GemmWmma { m, k, n }.pipeline(tensor),
            Spec::Amx {
                m,
                k,
                n,
                layout,
                variant,
            } => AmxMatmul { m, k, n }
                .pipeline(layout, variant)
                .expect("the generator draws only expressible variants"),
            Spec::Down { n, k, tensor } => Downsample { n, k }.pipeline(tensor),
            Spec::Up { n, tensor } => Upsample { n, taps: 8 }.pipeline(tensor),
        }
    }

    /// The app's deterministic input buffers, by image name.
    #[must_use]
    pub fn inputs(&self) -> Vec<(&'static str, Vec<f64>)> {
        match *self {
            Spec::Conv1d { n, k, .. } | Spec::Unrolled { n, k } => {
                let (i, kern) = Conv1d { n, k }.inputs();
                vec![("I", i), ("K", kern)]
            }
            Spec::Conv2d {
                width,
                height,
                kw,
                kh,
                ..
            } => {
                let (i, kern) = Conv2d {
                    width,
                    height,
                    kw,
                    kh,
                }
                .inputs();
                vec![("I", i), ("K", kern)]
            }
            Spec::Gemm { m, k, n, .. } => {
                let (a, b) = GemmWmma { m, k, n }.inputs();
                vec![("A", a), ("B", b)]
            }
            Spec::Amx { m, k, n, .. } => {
                let inputs = AmxMatmul { m, k, n }.inputs();
                vec![
                    ("A", inputs.a_buf),
                    ("B", inputs.b_buf),
                    ("Bv", inputs.b_vnni),
                ]
            }
            Spec::Down { n, k, .. } => {
                let (i, kern) = Downsample { n, k }.inputs();
                vec![("I", i), ("K", kern)]
            }
            Spec::Up { n, .. } => {
                let (i, kp) = Upsample { n, taps: 8 }.inputs();
                vec![("I", i), ("Kp", kp)]
            }
        }
    }

    /// The hand-written scalar reference output on [`Spec::inputs`]. It
    /// shares no code with the compiler under test.
    #[must_use]
    pub fn reference(&self) -> Vec<f64> {
        match *self {
            Spec::Conv1d { n, k, .. } | Spec::Unrolled { n, k } => Conv1d { n, k }.reference(),
            Spec::Conv2d {
                width,
                height,
                kw,
                kh,
                ..
            } => Conv2d {
                width,
                height,
                kw,
                kh,
            }
            .reference(),
            Spec::Gemm { m, k, n, .. } => GemmWmma { m, k, n }.reference(),
            Spec::Amx { m, k, n, .. } => {
                let app = AmxMatmul { m, k, n };
                let inputs = app.inputs();
                reference::matmul(&inputs.a, &inputs.b, m as usize, k as usize, n as usize)
            }
            Spec::Down { n, k, .. } => Downsample { n, k }.reference(),
            Spec::Up { n, .. } => Upsample { n, taps: 8 }.reference(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        per_family: [8; 7],
        cuda_only: 8,
    };

    #[test]
    fn populations_are_seeded_distinct_and_stratified() {
        let a = small_programs(&mut Rng::new(3, 0), MIX);
        let b = small_programs(&mut Rng::new(3, 0), MIX);
        let c = small_programs(&mut Rng::new(4, 0), MIX);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
        for (i, spec) in a.iter().enumerate() {
            assert!(!a[..i].contains(spec), "{spec:?} drawn twice");
        }
        for population in [&a, &c] {
            let cuda = population.iter().filter(|s| !s.uses_tensor_unit()).count();
            let preload_b = population
                .iter()
                .filter(|s| {
                    matches!(
                        s,
                        Spec::Amx {
                            variant: Variant::PreloadB,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!((cuda, preload_b), (8, 4));
        }
    }

    #[test]
    fn the_largest_mix_fits_every_shape_space() {
        let mix = Mix {
            per_family: [32; 7],
            cuda_only: 32,
        };
        assert_eq!(small_programs(&mut Rng::new(9, 0), mix).len(), 256);
    }

    #[test]
    fn ladder_keeps_every_kernel_size() {
        let specs = unrolled_programs(&mut Rng::new(1, 0), &[64, 128, 192]);
        let ks: Vec<i64> = specs
            .iter()
            .map(|s| match s {
                Spec::Unrolled { k, .. } => *k,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(ks, [64, 128, 192]);
    }
}
