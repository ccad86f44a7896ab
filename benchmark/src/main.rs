//! Command line of the benchmark. See `README.md` beside this crate.

use std::path::PathBuf;
use std::process::ExitCode;

use hb_benchmark::layers::per_layer;
use hb_benchmark::measure::{end_to_end, Options};
use hb_benchmark::metrics::{
    contract_json, Metric, RunResult, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use hb_benchmark::workloads::{by_name, Workload, WORKLOADS};

const USAGE: &str = "\
usage: hb-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--repeat N] [--smoke] [--out DIR] [--print-contract]

  --workload NAME   one of interactive_small, unrolled_large, suite_batched,
                    service_mixed (default: all four)
  --seed N          the only input of the program generator (default 1)
  --seconds S       seconds of timed rounds per run (default: run_seconds)
  --trace 0|1       0: end-to-end metrics, 1: per-layer metrics (default: both)
  --repeat N        run everything N times and fail if two runs disagree
  --smoke           one round of a tenth of the operations; not for claims
  --out DIR         where trace-<workload>.json goes (default benchmark/out)
  --print-contract  print BENCHMARK.json and exit";

struct Args {
    workloads: Vec<&'static Workload>,
    options: Options,
    traces: Vec<bool>,
    repeat: usize,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        options: Options {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            smoke: false,
        },
        traces: vec![false, true],
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-contract" => {
                print!("{}", contract_json());
                return Ok(None);
            }
            "--smoke" => parsed.options.smoke = true,
            "--workload" => {
                let name = value()?;
                let workload = by_name(name).ok_or_else(|| format!("no workload {name}"))?;
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                parsed.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.options.seconds = seconds;
            }
            "--trace" => {
                parsed.traces = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                parsed.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&parsed.repeat) {
                    return Err("--repeat takes 1 to 100".into());
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(parsed))
}

fn print_table(workload: &Workload, table: &[Metric], result: &RunResult) {
    for metric in table {
        let value = result.get(metric.name).expect("every metric is measured");
        println!(
            "{:18} {:42} {value:>16.6} {}",
            workload.name, metric.name, metric.unit
        );
    }
}

/// Whether repeated runs agree on `metric`: exactly for a count measured
/// on one thread, else every pair within the metric's bound.
fn agree(metric: &Metric, single_thread: bool, values: &[f64]) -> bool {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if metric.exact && single_thread {
        lo == hi
    } else {
        metric.bound == 0.0 || hi - lo <= metric.bound * lo.abs()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let jobs: Vec<(&Workload, bool)> = args
        .workloads
        .iter()
        .flat_map(|&w| args.traces.iter().map(move |&trace| (w, trace)))
        .collect();
    let table = |trace: bool| -> &'static [Metric] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    };
    let mut ok = true;
    // Per job, one result per repeat.
    let mut results: Vec<Vec<RunResult>> = vec![Vec::new(); jobs.len()];
    for _ in 0..args.repeat {
        for (&(workload, trace), results) in jobs.iter().zip(&mut results) {
            let result = if trace {
                per_layer(workload, args.options, &args.out)
            } else {
                end_to_end(workload, args.options)
            };
            ok &= result.correct;
            print_table(workload, table(trace), &result);
            println!("{}", result.to_json(table(trace)));
            results.push(result);
        }
    }

    if args.repeat > 1 {
        println!("\n--repeat {}: every value side by side", args.repeat);
        for (&(workload, trace), results) in jobs.iter().zip(&results) {
            let single_thread = workload.lanes.len() == 1;
            for metric in table(trace) {
                let values: Vec<f64> = results
                    .iter()
                    .map(|r| r.get(metric.name).expect("every metric is measured"))
                    .collect();
                let agreed = agree(metric, single_thread, &values);
                ok &= agreed;
                println!(
                    "{:18} {:42} {} {}",
                    workload.name,
                    metric.name,
                    values
                        .iter()
                        .map(|v| format!("{v:>16.6}"))
                        .collect::<String>(),
                    if agreed { "" } else { "  DISAGREE" },
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
