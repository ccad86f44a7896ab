use hb_benchmark::metrics::contract_json;
use hb_benchmark::workloads::{Bench, WORKLOADS};

/// A claim made on one seed is checked on a seed never used while the
/// change was written, so any seed must set every workload up: build,
/// lower and compile each drawn program (`set_up` asserts the compiles).
#[test]
fn twenty_seeds_build_lower_and_compile_every_drawn_program() {
    for seed in 0..20 {
        for workload in &WORKLOADS {
            let bench = Bench::set_up(workload, seed, 0.01);
            assert_eq!(bench.specs.len(), bench.pipelines.len());
            assert!(bench.ops.iter().all(|op| op.end <= bench.specs.len()));
        }
    }
}

#[test]
fn benchmark_json_is_what_the_metric_tables_generate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        contract_json(),
        "regenerate with --print-contract"
    );
}
