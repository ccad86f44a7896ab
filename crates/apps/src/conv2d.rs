//! 2-D convolution (paper §V-A): parametrized over one reduction axis so
//! each kernel row is a 1-D convolution HARDBOILED tensorizes (the `ry`
//! loop stays serial, exactly the paper's reformulation).

use hardboiled::Session;
use hb_ir::types::{MemoryType, ScalarType};
use hb_lang::ast::{cast_f32, hf, hv, Func, ImageParam, Pipeline, RDom};

use crate::harness::{compile_and_run_with, test_data, RunResult};
use crate::reference;

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Conv2d {
    /// Output width (multiple of 256).
    pub width: i64,
    /// Output height.
    pub height: i64,
    /// Kernel width (multiple of 8).
    pub kw: i64,
    /// Kernel height.
    pub kh: i64,
}

impl Conv2d {
    /// Builds the pipeline; `tensor_cores` picks the WMMA schedule.
    #[must_use]
    pub fn pipeline(&self, tensor_cores: bool) -> Pipeline {
        assert_eq!(self.width % 256, 0);
        assert_eq!(self.kw % 8, 0);
        let in_w = self.width + self.kw;
        let in_h = self.height + self.kh;
        let img = ImageParam::new("I", ScalarType::F16, &[in_w, in_h]);
        let kern = ImageParam::new("K", ScalarType::F16, &[self.kw, self.kh]);

        let conv = Func::new("conv", &["x", "y"], ScalarType::F32);
        conv.define(hf(0.0));
        conv.update_add(
            cast_f32(kern.at(&[hv("rx"), hv("ry")]))
                * cast_f32(img.at(&[hv("x") + hv("rx"), hv("y") + hv("ry")])),
            &RDom::new("rx", 0, self.kw).with("ry", 0, self.kh),
        );
        let out = Func::new("out", &["x", "y"], ScalarType::F32);
        out.define(conv.at(&[hv("x"), hv("y")]));
        out.bound("x", 0, self.width).bound("y", 0, self.height);

        out.stage_init(|s| {
            s.split("x", "xo", "xi", 256)
                .reorder(&["xi", "xo", "y"])
                .vectorize("xi")
                .gpu_blocks("y");
        });
        conv.compute_at(&out, "xo");
        if tensor_cores {
            conv.store_in(MemoryType::WmmaAccumulator);
            conv.stage_init(|s| {
                s.vectorize("x");
            });
            conv.stage_update(|s| {
                // ry is the serial parametrization axis (§V-A); rx blocks of
                // 8 taps map to m32n8k16 WMMA MatMuls.
                s.split("rx", "rxo", "rxi", 8)
                    .reorder(&["rxi", "x", "y", "rxo", "ry"])
                    .atomic()
                    .vectorize("x")
                    .vectorize("rxi");
            });
        } else {
            conv.store_in(MemoryType::Stack);
            conv.stage_init(|s| {
                s.vectorize("x");
            });
            conv.stage_update(|s| {
                s.reorder(&["x", "y", "rx", "ry"]).vectorize("x");
            });
        }
        Pipeline::new(&out, &[&conv], &[&img, &kern])
    }

    /// Deterministic inputs `(I, K)`.
    #[must_use]
    pub fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let i = test_data(
            ((self.width + self.kw) * (self.height + self.kh)) as usize,
            21,
        );
        let k = test_data((self.kw * self.kh) as usize, 23);
        (i, k)
    }

    /// Runs one schedule (default session).
    ///
    /// # Panics
    ///
    /// Panics on lowering/execution failure.
    #[must_use]
    pub fn run(&self, tensor_cores: bool) -> RunResult {
        self.run_with(&Session::default(), tensor_cores)
    }

    /// Runs one schedule through a caller-provided [`Session`].
    ///
    /// # Panics
    ///
    /// Panics on lowering/execution failure.
    #[must_use]
    pub fn run_with(&self, session: &Session, tensor_cores: bool) -> RunResult {
        let p = self.pipeline(tensor_cores);
        let (i, k) = self.inputs();
        compile_and_run_with(session, &p, &[("I", &i), ("K", &k)]).expect("conv2d run")
    }

    /// Reference output (row-major `height × width` transposed to the `out`
    /// buffer layout `x + width*y`, which is identical).
    #[must_use]
    pub fn reference(&self) -> Vec<f64> {
        let (i, k) = self.inputs();
        // The out buffer layout is x + width*y; the reference helper indexes
        // input at (y+ry)*(width+kw) + x + rx — same layout as `I`.
        reference::conv2d(
            &i,
            &kernel_xy_to_rowmajor(&k, self.kw as usize, self.kh as usize),
            self.width as usize,
            self.height as usize,
            self.kw as usize,
            self.kh as usize,
        )
    }
}

/// `K(rx, ry)` buffer (rx innermost) to row-major `ry × rx`.
fn kernel_xy_to_rowmajor(k: &[f64], kw: usize, kh: usize) -> Vec<f64> {
    let mut out = vec![0.0; kw * kh];
    for ry in 0..kh {
        for rx in 0..kw {
            out[ry * kw + rx] = k[rx + kw * ry];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::max_rel_error;

    #[test]
    fn tensor_core_conv2d_lowers_and_is_correct() {
        let app = Conv2d {
            width: 256,
            height: 4,
            kw: 8,
            kh: 3,
        };
        let r = app.run(true);
        assert!(r.selection.as_ref().unwrap().all_lowered());
        assert!(r.counters.tensor_fmas > 0);
        let err = max_rel_error(&r.output, &app.reference());
        assert!(err < 0.08, "rel err {err}");
    }

    #[test]
    fn cuda_conv2d_matches_reference() {
        let app = Conv2d {
            width: 256,
            height: 4,
            kw: 8,
            kh: 3,
        };
        let r = app.run(false);
        assert_eq!(r.counters.tensor_fmas, 0);
        let err = max_rel_error(&r.output, &app.reference());
        assert!(err < 0.08, "rel err {err}");
    }

    #[test]
    fn schedules_agree_with_each_other() {
        let app = Conv2d {
            width: 256,
            height: 3,
            kw: 16,
            kh: 2,
        };
        let tc = app.run(true);
        let cuda = app.run(false);
        let err = max_rel_error(&tc.output, &cuda.output);
        assert!(err < 0.05, "schedule divergence {err}");
    }
}
