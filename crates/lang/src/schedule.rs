//! Per-stage schedules: splits, loop order, loop kinds, atomics.
//!
//! A [`StageSchedule`] describes how one stage (pure init or update) of a
//! func executes — the second half of Halide's algorithm/schedule split.

use std::collections::HashMap;

/// How one loop executes (pre-lowering mirror of [`hb_ir::ForKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopKind {
    /// Sequential.
    #[default]
    Serial,
    /// Replaced by vector lanes (`vectorize`).
    Vectorized,
    /// Fully unrolled.
    Unrolled,
    /// CPU-parallel.
    Parallel,
    /// GPU grid dimension.
    GpuBlock,
    /// GPU thread dimension.
    GpuThread,
}

/// One split: `old` becomes `outer * factor + inner`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Variable being split.
    pub old: String,
    /// New outer variable.
    pub outer: String,
    /// New inner variable.
    pub inner: String,
    /// Split factor (extent of `inner`).
    pub factor: i64,
}

/// The schedule of one stage.
#[derive(Debug, Clone, Default)]
pub struct StageSchedule {
    /// Splits, applied in order.
    pub splits: Vec<Split>,
    /// Complete loop order, innermost first (Halide's `reorder` convention).
    /// `None` keeps the default order.
    pub order: Option<Vec<String>>,
    /// Loop kinds by variable.
    pub kinds: HashMap<String, LoopKind>,
    /// Whether reduction vectorization is permitted (`atomic()`).
    pub atomic: bool,
}

impl StageSchedule {
    /// Splits `old` into `outer * factor + inner`.
    pub fn split(&mut self, old: &str, outer: &str, inner: &str, factor: i64) -> &mut Self {
        assert!(factor > 0, "split factor must be positive");
        self.splits.push(Split {
            old: old.to_string(),
            outer: outer.to_string(),
            inner: inner.to_string(),
            factor,
        });
        self
    }

    /// Sets the complete loop order, innermost first.
    pub fn reorder(&mut self, innermost_first: &[&str]) -> &mut Self {
        self.order = Some(innermost_first.iter().map(|v| (*v).to_string()).collect());
        self
    }

    /// Marks a loop vectorized.
    pub fn vectorize(&mut self, var: &str) -> &mut Self {
        self.kinds.insert(var.to_string(), LoopKind::Vectorized);
        self
    }

    /// Marks a loop unrolled.
    pub fn unroll(&mut self, var: &str) -> &mut Self {
        self.kinds.insert(var.to_string(), LoopKind::Unrolled);
        self
    }

    /// Marks a loop CPU-parallel.
    pub fn parallel(&mut self, var: &str) -> &mut Self {
        self.kinds.insert(var.to_string(), LoopKind::Parallel);
        self
    }

    /// Maps a loop onto the GPU grid.
    pub fn gpu_blocks(&mut self, var: &str) -> &mut Self {
        self.kinds.insert(var.to_string(), LoopKind::GpuBlock);
        self
    }

    /// Maps a loop onto GPU threads.
    pub fn gpu_threads(&mut self, var: &str) -> &mut Self {
        self.kinds.insert(var.to_string(), LoopKind::GpuThread);
        self
    }

    /// Permits vectorizing reduction loops (Halide's `atomic()`).
    pub fn atomic(&mut self) -> &mut Self {
        self.atomic = true;
        self
    }

    /// The kind of a loop variable.
    #[must_use]
    pub fn kind(&self, var: &str) -> LoopKind {
        self.kinds.get(var).copied().unwrap_or_default()
    }

    /// Final loop variables for this stage given the stage's root variables
    /// (innermost first): applies splits to the default order, then any
    /// explicit reorder. The names are borrowed from `roots` and the
    /// schedule; nothing is copied.
    ///
    /// # Errors
    ///
    /// Fails if a split names a variable that is not live, or a reorder does
    /// not list exactly the post-split variables.
    pub fn try_loop_vars<'a>(
        &'a self,
        root_vars_innermost_first: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<&'a str>, String> {
        let mut vars: Vec<&str> = root_vars_innermost_first.into_iter().collect();
        vars.reserve(self.splits.len());
        for split in &self.splits {
            let pos = vars
                .iter()
                .position(|v| *v == split.old)
                .ok_or_else(|| format!("split of unknown variable {}", split.old))?;
            // inner takes old's slot; outer goes immediately outside.
            vars[pos] = &split.inner;
            vars.insert(pos + 1, &split.outer);
        }
        let Some(order) = &self.order else {
            return Ok(vars);
        };
        // The same names with the same multiplicities, in any order.
        let same = order.len() == vars.len()
            && vars.iter().all(|v| {
                order.iter().filter(|o| o == v).count() == vars.iter().filter(|w| *w == v).count()
            });
        if !same {
            return Err(format!(
                "reorder must mention exactly the post-split variables {vars:?}, not {order:?}"
            ));
        }
        vars.clear();
        vars.extend(order.iter().map(String::as_str));
        Ok(vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_replaces_variable_in_order() {
        let mut s = StageSchedule::default();
        s.split("x", "xo", "xi", 256);
        assert_eq!(s.try_loop_vars(["x"]).unwrap(), vec!["xi", "xo"]);
    }

    #[test]
    fn chained_splits() {
        let mut s = StageSchedule::default();
        s.split("x", "xo", "xi", 64).split("xi", "xim", "xii", 8);
        assert_eq!(s.try_loop_vars(["x"]).unwrap(), vec!["xii", "xim", "xo"]);
    }

    #[test]
    fn reorder_overrides() {
        let mut s = StageSchedule::default();
        s.split("x", "xo", "xi", 256)
            .split("rx", "rxo", "rxi", 8)
            .reorder(&["rxi", "xi", "rxo", "xo"]);
        assert_eq!(
            s.try_loop_vars(["x", "rx"]).unwrap(),
            vec!["rxi", "xi", "rxo", "xo"]
        );
    }

    #[test]
    fn bad_reorder_rejected() {
        let mut s = StageSchedule::default();
        s.reorder(&["x", "zzz"]);
        let err = s.try_loop_vars(["x", "y"]).unwrap_err();
        assert!(err.contains("must mention exactly"), "{err}");
    }

    #[test]
    fn kinds_and_atomic() {
        let mut s = StageSchedule::default();
        s.vectorize("xi").unroll("xo").atomic();
        assert_eq!(s.kind("xi"), LoopKind::Vectorized);
        assert_eq!(s.kind("xo"), LoopKind::Unrolled);
        assert_eq!(s.kind("other"), LoopKind::Serial);
        assert!(s.atomic);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_factor_rejected() {
        let mut s = StageSchedule::default();
        s.split("x", "a", "b", 0);
    }
}
