//! 1-D convolution (paper §V-A): the flagship "beyond MatMul" case study.
//!
//! `O(x) = Σ_{0≤rx<k} I(x+rx)·K(rx)`, f16 inputs, f32 accumulation. The
//! tensor-core schedule vectorizes 256-pixel segments with an 8-tap
//! reduction block, which HARDBOILED maps to `m32n8k16` WMMA MatMuls against
//! a Toeplitz matrix built by `convolution_shuffle`. The CUDA-only schedule
//! is the best-effort baseline the paper compares against (Fig. 5).

use hardboiled::Session;
use hb_accel::counters::CostCounters;
use hb_ir::types::{MemoryType, ScalarType};
use hb_lang::ast::{cast_f32, hf, hv, Func, ImageParam, Pipeline, RDom};

use crate::harness::{compile_and_run_with, test_data, RunResult};
use crate::reference;

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Conv1d {
    /// Number of output samples (must be a multiple of 256).
    pub n: i64,
    /// Kernel taps (must be a multiple of 8).
    pub k: i64,
}

impl Conv1d {
    /// Builds the algorithm + schedule. `tensor_cores` selects the WMMA
    /// schedule; `false` gives the CUDA-only baseline.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a multiple of 256 or `k` not a multiple of 8.
    #[must_use]
    pub fn pipeline(&self, tensor_cores: bool) -> Pipeline {
        assert_eq!(self.n % 256, 0, "n must be a multiple of 256");
        assert_eq!(self.k % 8, 0, "k must be a multiple of 8");
        let img = ImageParam::new("I", ScalarType::F16, &[self.n + self.k]);
        let kern = ImageParam::new("K", ScalarType::F16, &[self.k]);

        // Algorithm (identical for both schedules — the paper's promise).
        let conv = Func::new("conv", &["x"], ScalarType::F32);
        conv.define(hf(0.0));
        conv.update_add(
            cast_f32(kern.at(&[hv("rx")])) * cast_f32(img.at(&[hv("x") + hv("rx")])),
            &RDom::new("rx", 0, self.k),
        );
        let out = Func::new("out", &["x"], ScalarType::F32);
        out.define(conv.at(&[hv("x")]));
        out.bound("x", 0, self.n);

        // Schedules.
        out.stage_init(|s| {
            s.split("x", "xo", "xi", 256)
                .vectorize("xi")
                .gpu_blocks("xo");
        });
        conv.compute_at(&out, "xo");
        if tensor_cores {
            conv.store_in(MemoryType::WmmaAccumulator);
            conv.stage_init(|s| {
                s.vectorize("x");
            });
            conv.stage_update(|s| {
                s.split("rx", "rxo", "rxi", 8)
                    .reorder(&["rxi", "x", "rxo"])
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
                s.reorder(&["x", "rx"]).vectorize("x");
            });
        }
        Pipeline::new(&out, &[&conv], &[&img, &kern])
    }

    /// The Fig. 6 compile-time configuration: like the tensor-core schedule
    /// but with the outer reduction loop unrolled, so larger kernels produce
    /// longer programs (more statements through equality saturation) —
    /// "since we unroll along the reduction dimension, larger kernel sizes
    /// mean longer programs" (paper Fig. 6).
    #[must_use]
    pub fn pipeline_tc_unrolled(&self) -> Pipeline {
        let p = self.pipeline(true);
        let conv = p.func("conv").expect("conv func");
        conv.stage_update(|s| {
            s.unroll("rxo");
        });
        p
    }

    /// Deterministic inputs: `(I, K)`.
    #[must_use]
    pub fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let i = test_data((self.n + self.k) as usize, 7);
        let k = test_data(self.k as usize, 13);
        (i, k)
    }

    /// Runs one schedule end to end on the simulator (default session).
    ///
    /// # Panics
    ///
    /// Panics on lowering/execution failure.
    #[must_use]
    pub fn run(&self, tensor_cores: bool) -> RunResult {
        self.run_with(&Session::default(), tensor_cores)
    }

    /// Runs one schedule end to end through a caller-provided [`Session`]
    /// (pick the target, cost model and batching mode).
    ///
    /// # Panics
    ///
    /// Panics on lowering/execution failure.
    #[must_use]
    pub fn run_with(&self, session: &Session, tensor_cores: bool) -> RunResult {
        let p = self.pipeline(tensor_cores);
        let (i, k) = self.inputs();
        compile_and_run_with(session, &p, &[("I", &i), ("K", &k)]).expect("conv1d run")
    }

    /// Reference output.
    #[must_use]
    pub fn reference(&self) -> Vec<f64> {
        let (i, k) = self.inputs();
        reference::conv1d(&i, &k, self.n as usize)
    }

    /// Counters for the paper's Fig. 5 configuration — a 4096×4096 image
    /// convolved along rows — obtained by simulating one 4096-sample row and
    /// scaling by the number of rows (rows are identical and independent).
    #[must_use]
    pub fn fig5_counters(k: i64, tensor_cores: bool) -> CostCounters {
        let rows = 4096u64;
        let one_row = Conv1d { n: 4096, k };
        let r = one_row.run(tensor_cores);
        let mut c = r.counters.scaled(rows);
        if !tensor_cores {
            // Achieved CUDA-core FMA issue on the scalar gather inner loop
            // (~33% of peak; calibrated once, see EXPERIMENTS.md).
            c.cuda_flops *= crate::micro2d::CUDA_CONV_DERATE;
        }
        c.kernel_launches = 1;
        c
    }

    /// The paper's theoretical minimum work for Fig. 5 (footnote 7):
    /// `(4096−k)·4096·k` FMAs and input+output I/O.
    #[must_use]
    pub fn fig5_theoretical(k: i64) -> (u64, u64) {
        let fmas = (4096 - k) as u64 * 4096 * k as u64;
        let io_bytes = (4096u64 * 4096 * 2) + (4096 - k as u64) * 4096 * 4;
        (fmas, io_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::max_rel_error;

    #[test]
    fn tensor_core_schedule_lowers_and_matches_reference() {
        let app = Conv1d { n: 512, k: 16 };
        let r = app.run(true);
        let sel = r.selection.as_ref().expect("selector ran");
        assert!(sel.num_statements() >= 3, "init, update, wrapper");
        assert!(sel.all_lowered(), "WMMA lowering must succeed");
        let want = app.reference();
        assert!(
            max_rel_error(&r.output, &want) < 0.05,
            "f16 tolerance exceeded: {}",
            max_rel_error(&r.output, &want)
        );
        assert!(r.counters.tensor_fmas > 0, "must use tensor cores");
    }

    #[test]
    fn cuda_schedule_matches_reference_without_tensor_cores() {
        let app = Conv1d { n: 512, k: 16 };
        let r = app.run(false);
        let want = app.reference();
        assert!(max_rel_error(&r.output, &want) < 0.05);
        assert_eq!(r.counters.tensor_fmas, 0);
        assert!(r.counters.cuda_flops > 0);
    }

    #[test]
    fn tensor_cores_do_more_flops_but_on_tensor_units() {
        // The Toeplitz transformation doubles the multiply count (k=16 taps
        // become a k=16 reduction over 2x redundant rows); the paper's
        // theoretical-peak lines deliberately ignore this overhead.
        let app = Conv1d { n: 512, k: 16 };
        let tc = app.run(true);
        let cuda = app.run(false);
        let useful = (app.n * app.k) as u64;
        assert_eq!(tc.counters.tensor_fmas, 2 * useful);
        assert_eq!(cuda.counters.cuda_flops, 2 * useful);
    }

    #[test]
    fn both_schedules_read_the_same_dram_footprint() {
        let app = Conv1d { n: 512, k: 32 };
        let tc = app.run(true);
        let cuda = app.run(false);
        // Input + kernel f16 reads; output f32 writes. The Toeplitz path
        // re-reads overlapped data through L1, not DRAM (its 16-wide A rows
        // may touch a couple of padding elements the scalar path skips).
        assert_eq!(tc.counters.dram_write_bytes, cuda.counters.dram_write_bytes);
        let (a, b) = (tc.counters.dram_read_bytes, cuda.counters.dram_read_bytes);
        assert!(a.abs_diff(b) <= 16, "{a} vs {b}");
        // The CUDA-only schedule re-reads every input k times through L1;
        // the WMMA schedule's Toeplitz rows read each element only ~2x —
        // the "easier on the memory subsystem" effect of §V-D.
        assert!(
            tc.counters.l1_bytes < cuda.counters.l1_bytes,
            "{} vs {}",
            tc.counters.l1_bytes,
            cuda.counters.l1_bytes
        );
    }

    #[test]
    fn larger_kernels_still_lower() {
        let app = Conv1d { n: 256, k: 32 };
        let r = app.run(true);
        assert!(r.selection.as_ref().unwrap().all_lowered());
        assert!(max_rel_error(&r.output, &app.reference()) < 0.08);
    }
}
