//! Quickstart: write a 1-D convolution once, build a `Session`, and
//! schedule the convolution twice — with and without Tensor Cores — then
//! compare correctness and modeled performance.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use hardboiled_repro::accel::device::DeviceProfile;
use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::harness::max_rel_error;
use hardboiled_repro::hardboiled::{Batching, MetricsRegistry, ReportCache, Session};

fn main() {
    let app = Conv1d { n: 4096, k: 32 };
    println!(
        "1-D convolution, n = {}, k = {} taps (f16 in, f32 out)\n",
        app.n, app.k
    );

    // One session for the whole program: the `sim` target (AMX + WMMA),
    // the cost model derived from its device profile, and the batched mode
    // (every leaf of a program saturates in one shared e-graph). The
    // compiled rule set is built once and reused across both runs, a
    // report cache memoizes every leaf's selection, and a metrics
    // registry aggregates outcome/cache counters and per-stage latency
    // histograms across every compile the session runs.
    let metrics = Arc::new(MetricsRegistry::default());
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .report_cache(Arc::new(ReportCache::new(64)))
        .metrics(Arc::clone(&metrics))
        .build()
        .expect("valid session");
    println!(
        "session: target `{}`, {:?} batching\n",
        session.target().name(),
        session.batching()
    );

    let reference = app.reference();
    let device = DeviceProfile::rtx4070_super();

    for (label, tensor_cores) in [("CUDA-only", false), ("Tensor Cores", true)] {
        let r = app.run_with(&session, tensor_cores);
        let err = max_rel_error(&r.output, &reference);
        let t = r.time_on(&device);
        println!("== {label} schedule ==");
        if let Some(report) = &r.selection {
            println!(
                "  HARDBOILED: {} selection leaves, units run: {}, all lowered: {}, cache: {:?}",
                report.num_statements(),
                report.units.len(),
                report.all_lowered(),
                report.cache
            );
            let s = report.stages;
            println!(
                "  stages: lower {:?}, encode {:?}, saturate {:?}, extract {:?}, splice {:?}",
                s.lower, s.encode, s.saturate, s.extract, s.splice
            );
            if let Some(ex) = &report.extraction {
                println!(
                    "  extraction: {} table entries, {} leaf costs, readout {:?}",
                    ex.table_entries,
                    ex.root_costs.len(),
                    ex.readout_time
                );
            }
        }
        println!("  max rel. error vs reference: {err:.2e}");
        println!(
            "  counters: {} tensor FMAs, {} CUDA flops, {} DRAM bytes, {} L1 bytes",
            r.counters.tensor_fmas,
            r.counters.cuda_flops,
            r.counters.dram_bytes(),
            r.counters.l1_bytes
        );
        println!(
            "  modeled runtime on {}: {:.2} us ({:?}-bound)\n",
            device.name,
            t.micros(),
            t.bound()
        );
    }

    // Repeats are lookups: compiling the same schedule again finds every
    // leaf in the session's report cache and saturates nothing.
    let again = app.run_with(&session, true);
    if let Some(report) = &again.selection {
        println!(
            "== Tensor Cores schedule, recompiled ==\n  cache: {:?} (every leaf cached, no saturation run)\n",
            report.cache
        );
    }

    // Everything the session recorded along the way, in Prometheus text
    // exposition format (also available as JSON or a one-line summary).
    println!("== session metrics ==");
    print!("{}", metrics.snapshot().render_text());
}
