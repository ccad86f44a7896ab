//! Integer-factor resampling (paper §V-B): downsampling by 2 (strided
//! convolution, lowered through a strided Toeplitz matrix) and upsampling
//! by 2 (a multiphase filter with phase-interleaved storage).

use hb_ir::types::{MemoryType, ScalarType};
use hb_lang::ast::{cast_f32, hf, hi, hv, Func, ImageParam, Pipeline, RDom};

use hardboiled::Session;

use crate::harness::{compile_and_run_with, test_data, RunResult};
use crate::reference;

/// Downsampling by 2: `O(x) = Σ_r I(2x+r)·K(r)`.
#[derive(Debug, Clone, Copy)]
pub struct Downsample {
    /// Output samples (multiple of 128).
    pub n: i64,
    /// Kernel taps (multiple of 8).
    pub k: i64,
}

impl Downsample {
    /// Builds the pipeline.
    #[must_use]
    pub fn pipeline(&self, tensor_cores: bool) -> Pipeline {
        assert_eq!(self.n % 128, 0);
        assert_eq!(self.k % 8, 0);
        let img = ImageParam::new("I", ScalarType::F16, &[2 * self.n + self.k]);
        let kern = ImageParam::new("K", ScalarType::F16, &[self.k]);
        let down = Func::new("down", &["x"], ScalarType::F32);
        down.define(hf(0.0));
        down.update_add(
            cast_f32(kern.at(&[hv("rx")])) * cast_f32(img.at(&[hi(2) * hv("x") + hv("rx")])),
            &RDom::new("rx", 0, self.k),
        );
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(down.at(&[hv("x")]));
        out.bound("x", 0, self.n);

        out.stage_init(|s| {
            s.split("x", "xo", "xi", 128)
                .vectorize("xi")
                .gpu_blocks("xo");
        });
        down.compute_at(&out, "xo");
        if tensor_cores {
            down.store_in(MemoryType::WmmaAccumulator);
            down.stage_init(|s| {
                s.vectorize("x");
            });
            down.stage_update(|s| {
                s.split("rx", "rxo", "rxi", 8)
                    .reorder(&["rxi", "x", "rxo"])
                    .atomic()
                    .vectorize("x")
                    .vectorize("rxi");
            });
        } else {
            down.store_in(MemoryType::Stack);
            down.stage_init(|s| {
                s.vectorize("x");
            });
            down.stage_update(|s| {
                s.reorder(&["x", "rx"]).vectorize("x");
            });
        }
        Pipeline::new(&out, &[&down], &[&img, &kern])
    }

    /// Deterministic inputs.
    #[must_use]
    pub fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        (
            test_data((2 * self.n + self.k) as usize, 31),
            test_data(self.k as usize, 37),
        )
    }

    /// Runs one schedule (default session).
    ///
    /// # Panics
    ///
    /// Panics on failure.
    #[must_use]
    pub fn run(&self, tensor_cores: bool) -> RunResult {
        self.run_with(&Session::default(), tensor_cores)
    }

    /// Runs one schedule through a caller-provided [`Session`].
    ///
    /// # Panics
    ///
    /// Panics on failure.
    #[must_use]
    pub fn run_with(&self, session: &Session, tensor_cores: bool) -> RunResult {
        let p = self.pipeline(tensor_cores);
        let (i, k) = self.inputs();
        compile_and_run_with(session, &p, &[("I", &i), ("K", &k)]).expect("downsample run")
    }

    /// Reference output.
    #[must_use]
    pub fn reference(&self) -> Vec<f64> {
        let (i, k) = self.inputs();
        reference::downsample2(&i, &k, self.n as usize)
    }
}

/// Upsampling by 2 as a multiphase filter (§V-B): phase-major kernel
/// `Kp[d + 2r] = K(2r + d)`, phase-interleaved output storage.
#[derive(Debug, Clone, Copy)]
pub struct Upsample {
    /// Output samples (multiple of 256).
    pub n: i64,
    /// Taps per phase (must be 8).
    pub taps: i64,
}

impl Upsample {
    /// Builds the pipeline.
    #[must_use]
    pub fn pipeline(&self, tensor_cores: bool) -> Pipeline {
        assert_eq!(self.n % 256, 0);
        assert_eq!(self.taps, 8, "the WMMA mapping uses 8-tap phases");
        // 8 extra padding elements: the 16-wide WMMA rows over-read the
        // zero-padded Toeplitz window, as the real wmma.load.a would.
        let img = ImageParam::new("I", ScalarType::F16, &[self.n / 2 + self.taps + 8]);
        let kp = ImageParam::new("Kp", ScalarType::F16, &[2 * self.taps]);

        // O_phase(dx, xx) = Σ_r I(xx + r) · Kp(dx + 2r), stored dx-innermost
        // so phases interleave in memory (the reorder_storage trick).
        let ophase = Func::new("ophase", &["dx", "xx"], ScalarType::F32);
        ophase.define(hf(0.0));
        ophase.update_add(
            cast_f32(kp.at(&[hv("dx") + hi(2) * hv("rx")]))
                * cast_f32(img.at(&[hv("xx") + hv("rx")])),
            &RDom::new("rx", 0, self.taps),
        );
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(ophase.at(&[hv("x") % hi(2), hv("x") / hi(2)]));
        out.bound("x", 0, self.n);

        out.stage_init(|s| {
            s.split("x", "xo", "xi", 256)
                .vectorize("xi")
                .gpu_blocks("xo");
        });
        ophase.compute_at(&out, "xo");
        if tensor_cores {
            ophase.store_in(MemoryType::WmmaAccumulator);
            ophase.stage_init(|s| {
                s.reorder(&["dx", "xx"]).vectorize("dx").vectorize("xx");
            });
            ophase.stage_update(|s| {
                s.reorder(&["rx", "dx", "xx"])
                    .atomic()
                    .vectorize("dx")
                    .vectorize("xx")
                    .vectorize("rx");
            });
        } else {
            ophase.store_in(MemoryType::Stack);
            ophase.stage_init(|s| {
                s.reorder(&["dx", "xx"]).vectorize("dx").vectorize("xx");
            });
            ophase.stage_update(|s| {
                s.reorder(&["dx", "xx", "rx"])
                    .vectorize("dx")
                    .vectorize("xx");
            });
        }
        Pipeline::new(&out, &[&ophase], &[&img, &kp])
    }

    /// Deterministic inputs `(I, Kp)`.
    #[must_use]
    pub fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        (
            test_data((self.n / 2 + self.taps + 8) as usize, 41),
            test_data(2 * self.taps as usize, 43),
        )
    }

    /// Runs one schedule (default session).
    ///
    /// # Panics
    ///
    /// Panics on failure.
    #[must_use]
    pub fn run(&self, tensor_cores: bool) -> RunResult {
        self.run_with(&Session::default(), tensor_cores)
    }

    /// Runs one schedule through a caller-provided [`Session`].
    ///
    /// # Panics
    ///
    /// Panics on failure.
    #[must_use]
    pub fn run_with(&self, session: &Session, tensor_cores: bool) -> RunResult {
        let p = self.pipeline(tensor_cores);
        let (i, kp) = self.inputs();
        compile_and_run_with(session, &p, &[("I", &i), ("Kp", &kp)]).expect("upsample run")
    }

    /// Reference output.
    #[must_use]
    pub fn reference(&self) -> Vec<f64> {
        let (i, kp) = self.inputs();
        reference::upsample2(&i, &kp, self.n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::max_rel_error;

    #[test]
    fn downsample_tc_lowers_and_matches() {
        let app = Downsample { n: 256, k: 8 };
        let r = app.run(true);
        assert!(
            r.selection.as_ref().unwrap().all_lowered(),
            "strided Toeplitz lowering failed"
        );
        assert!(r.counters.tensor_fmas > 0);
        let err = max_rel_error(&r.output, &app.reference());
        assert!(err < 0.08, "rel err {err}");
    }

    #[test]
    fn downsample_cuda_matches() {
        let app = Downsample { n: 256, k: 8 };
        let r = app.run(false);
        assert_eq!(r.counters.tensor_fmas, 0);
        assert!(max_rel_error(&r.output, &app.reference()) < 0.08);
    }

    #[test]
    fn upsample_tc_lowers_and_matches() {
        let app = Upsample { n: 512, taps: 8 };
        let r = app.run(true);
        assert!(
            r.selection.as_ref().unwrap().all_lowered(),
            "multiphase Toeplitz lowering failed"
        );
        assert!(r.counters.tensor_fmas > 0);
        let err = max_rel_error(&r.output, &app.reference());
        assert!(err < 0.08, "rel err {err}");
    }

    #[test]
    fn upsample_cuda_matches() {
        let app = Upsample { n: 512, taps: 8 };
        let r = app.run(false);
        assert_eq!(r.counters.tensor_fmas, 0);
        assert!(max_rel_error(&r.output, &app.reference()) < 0.08);
    }

    #[test]
    fn downsample_tensor_fmas_account_for_half_empty_tiles() {
        // Each m32n8k16 computes 128 useful outputs out of a 256-lane tile:
        // FMAs = 2x the useful work (paper: TC downsampling trades FLOPs for
        // bandwidth).
        let app = Downsample { n: 256, k: 8 };
        let r = app.run(true);
        let useful = (app.n * app.k) as u64;
        assert_eq!(r.counters.tensor_fmas, 4 * useful);
    }
}
