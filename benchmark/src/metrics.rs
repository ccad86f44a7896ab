//! The metric tables: every name the benchmark reports, its unit, which way
//! is better and how far it may worsen. `BENCHMARK.json` is generated from
//! these tables (`--print-contract`) and a test keeps the two equal.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// A count that must repeat exactly between two runs of one seed on
    /// the single-threaded workloads.
    pub exact: bool,
}

const fn end(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// An allocation count below the engine: it repeats to about one part in
/// 10^5, not exactly, because the engine's hash maps are keyed by the
/// standard library's per-map random state and a table's choice between
/// rehashing in place and growing depends on where its tombstones fall.
const fn near_count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        exact: false,
        ..count(name, unit, "lower")
    }
}

/// What a user of the compiler sees. `failed_share` is not here because
/// the contract wants metrics that are never 0: failures travel in the
/// result's `failed` / `attempted` / `correct` fields instead. The timing
/// bounds are the contract's ceiling: this container's slow phases outlast
/// a run, and ten runs of unchanged code have spread by up to 14% (README).
pub const END_TO_END: [Metric; 7] = [
    end("setup_s", "s", "lower", 0.25),
    end("programs_per_s", "1/s", "higher", 0.25),
    end("latency_ms_p50", "ms", "lower", 0.25),
    end("latency_ms_p95", "ms", "lower", 0.25),
    Metric {
        exact: true,
        ..end("lowered_stmt_share", "ratio", "higher", 0.01)
    },
    Metric {
        exact: true,
        ..end("modeled_compute_speedup", "ratio", "higher", 0.01)
    },
    end("peak_live_bytes", "B", "lower", 0.05),
];

/// Single layers, measured from outside on the staged path. 0 means the
/// layer is not on that workload's path.
pub const PER_LAYER: [Metric; 62] = [
    time("lang.lower_ms_p50", "ms"),
    time("lang.lower_share", "ratio"),
    count("lang.lowered_ir_nodes", "count", "lower"),
    count("lang.lower_allocs", "count", "lower"),
    time("ir.simplify_stmt_ms_p50", "ms"),
    time("core.movement.annotate_ms_p50", "ms"),
    count("core.movement.leaves", "count", "lower"),
    time("core.encode.encode_ms_p50", "ms"),
    count("core.encode.nodes", "count", "lower"),
    time("core.rules.build_ms", "ms"),
    count("core.rules.rules", "count", "lower"),
    time("egraph.saturate.run_ms_p50", "ms"),
    time("egraph.saturate.share", "ratio"),
    time("egraph.saturate.search_ms", "ms"),
    time("egraph.saturate.rebuild_ms", "ms"),
    count("egraph.saturate.iterations", "count", "lower"),
    count("egraph.saturate.nodes", "count", "lower"),
    count("egraph.saturate.classes", "count", "lower"),
    count("egraph.saturate.applied", "count", "lower"),
    count("egraph.saturate.delta_probed_rows", "count", "lower"),
    count("egraph.saturate.delta_skipped_rows", "count", "higher"),
    count("egraph.saturate.full_searches", "count", "lower"),
    count("egraph.saturate.delta_searches", "count", "lower"),
    count("egraph.saturate.skipped_searches", "count", "higher"),
    count("egraph.saturate.fruitless_search_share", "ratio", "lower"),
    near_count("egraph.saturate.allocs", "count"),
    time("egraph.extract.solve_ms_p50", "ms"),
    time("egraph.extract.readout_ms_p50", "ms"),
    count("egraph.extract.table_entries", "count", "lower"),
    count("egraph.extract.reused_readouts", "count", "higher"),
    count("egraph.extract.root_cost_sum", "count", "lower"),
    time("core.decode.decode_ms_p50", "ms"),
    time("core.postprocess.materialize_ms_p50", "ms"),
    count("core.postprocess.selected_ir_nodes", "count", "lower"),
    time("core.session.compile_ms_p50", "ms"),
    time("core.session.splice_ms_p50", "ms"),
    time("core.session.overhead_share", "ratio"),
    Metric {
        better: "higher",
        ..time("core.session.stage_sum_share", "ratio")
    },
    time("core.cache.hash_ms_p50", "ms"),
    count("core.cache.hit_share", "ratio", "higher"),
    time("core.cache.hit_ms_p50", "ms"),
    time("core.cache.miss_ms_p50", "ms"),
    count("core.cache.evictions", "count", "lower"),
    count("core.cache.bypasses", "count", "lower"),
    time("core.service.submit_ms_p50", "ms"),
    time("core.service.wait_ms_mean", "ms"),
    time("core.service.run_ms_mean", "ms"),
    Metric {
        better: "higher",
        ..time("core.service.worker_busy_share", "ratio")
    },
    count("core.service.rejected_busy", "count", "lower"),
    time("egraph.snapshot.export_ms", "ms"),
    count("egraph.snapshot.bytes", "B", "lower"),
    time("egraph.snapshot.restore_ms", "ms"),
    time("core.session.warm_suite_ms", "ms"),
    time("core.session.cold_suite_ms", "ms"),
    time("exec.run_ms_p50", "ms"),
    count("exec.tensor_fma_share", "ratio", "higher"),
    count("exec.dram_bytes", "B", "lower"),
    count("exec.l1_bytes", "B", "lower"),
    time("obs.overhead_share", "ratio"),
    time("bench.trace_overhead_share", "ratio"),
    near_count("alloc.allocs_per_op", "count"),
    near_count("alloc.bytes_per_op", "B"),
];

/// Named values, in reporting order.
pub type Values = Vec<(&'static str, f64)>;

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
}

impl RunResult {
    /// The value reported under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The one-line JSON object the driver reads; `table` supplies units.
    #[must_use]
    pub fn to_json(&self, table: &[Metric]) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in table.iter().enumerate() {
            let value = self
                .get(metric.name)
                .unwrap_or_else(|| panic!("{} was not measured", metric.name));
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                r#"{comma}"{}": {{"value": {value}, "unit": "{}"}}"#,
                metric.name, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The contents of `BENCHMARK.json`.
#[must_use]
pub fn contract_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            r#"    {{"name": "{}", "why": "{}"}}{comma}"#,
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            r#"    {{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}{comma}"#,
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            r#"    {{"name": "{}", "unit": "{}", "better": "{}"}}{comma}"#,
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}
