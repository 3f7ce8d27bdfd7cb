//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_imix_64q --seed 42 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` times untraced calls of the workload's public entry point
//! for `--seconds` and prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced calls and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the full result
//! (manifest included) is written under `--out` (default `.bench_out`),
//! with the traced run's raw spans as a Chrome `trace_event` file. Any
//! failed check makes the exit code non-zero.

use npqm_bench::json::{Json, ToJson};
use npqm_perfbench::output::{
    chrome_trace, compact, digest_metric, manifest, median, peak_rss_mb, percentile, result_json,
    END_TO_END, PER_LAYER,
};
use npqm_perfbench::probe::span_cost_ns;
use npqm_perfbench::workloads::{Call, Epoch, Layers, Workload, TABLE10_DIGEST_SEED42};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times the starting state is built before each call; `setup_s` is the
/// median over the run. Spreading the builds over the run keeps one
/// moment's host noise from deciding the figure.
const SETUP_REPS_PER_CALL: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// Digest checks shared by both modes: every call agrees with the first,
/// and `stream_imix_64q` at seed 42 reproduces `table10`.
fn digest_mismatches(args: &Args, digests: &[u64]) -> u64 {
    let first = digests[0];
    let mut bad = digests.iter().filter(|&&d| d != first).count() as u64;
    if args.workload == Workload::StreamImix64q && args.seed == 42 && first != TABLE10_DIGEST_SEED42
    {
        eprintln!("digest {first:#018x} differs from table10's {TABLE10_DIGEST_SEED42:#018x}");
        bad += 1;
    }
    bad
}

/// The run's timed slices: virtual epochs for the stream workloads, and
/// whole calls for the others, which have no virtual epochs.
fn epochs(calls: &[Call]) -> Vec<Epoch> {
    if calls[0].epochs.is_empty() {
        calls
            .iter()
            .map(|c| Epoch {
                ms: c.wall_s * 1e3,
                pkts: c.offered,
                bytes: c.delivered_bytes,
            })
            .collect()
    } else {
        calls
            .iter()
            .flat_map(|c| c.epochs.iter().copied())
            .collect()
    }
}

fn ms(epochs: &[Epoch]) -> Vec<f64> {
    epochs.iter().map(|e| e.ms).collect()
}

struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    failed: u64,
    attempted: u64,
    digest: u64,
    spans: Vec<npqm_perfbench::probe::Span>,
}

fn run_untraced(args: &Args, budget: Duration) -> Outcome {
    let w = args.workload;
    let cfg = w.config(args.seed);
    let mut setups = Vec::new();
    let mut calls = Vec::new();
    let start = Instant::now();
    while calls.is_empty() || start.elapsed() < budget {
        setups.extend((0..SETUP_REPS_PER_CALL).map(|_| w.setup(args.seed)));
        calls.push(w.run(&cfg));
    }
    let digests: Vec<u64> = calls.iter().map(|c| c.digest).collect();
    let failed = calls.iter().map(|c| c.failures).sum::<u64>() + digest_mismatches(args, &digests);
    let epochs = epochs(&calls);
    // Rates are the 25th percentile over epochs, the counterpart of the
    // 75th-percentile epoch time: on a shared host the upper quartile
    // stays put while neighbours' memory traffic comes and goes, where
    // the median jumps between the busy and the quiet mode (README.md).
    let slow_rate = |amount: &dyn Fn(&Epoch) -> f64| {
        percentile(
            &epochs
                .iter()
                .map(|e| amount(e) * 1e3 / e.ms)
                .collect::<Vec<_>>(),
            25.0,
        )
    };
    let values = [
        slow_rate(&|e| e.pkts as f64),
        slow_rate(&|e| e.bytes as f64 * 8.0 / 1e9),
        percentile(&ms(&epochs), 75.0),
        median(&setups),
        peak_rss_mb(),
    ];
    eprintln!(
        "{}: {} calls, {} epochs, median epoch {:.3} ms",
        w.name(),
        calls.len(),
        epochs.len(),
        median(&ms(&epochs))
    );
    Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
        failed,
        attempted: calls.iter().map(|c| c.offered).sum(),
        digest: digests[0],
        spans: Vec::new(),
    }
}

fn run_traced(args: &Args, budget: Duration) -> Outcome {
    let w = args.workload;
    let cfg = w.config(args.seed);
    let span_ns = span_cost_ns();
    let mut untraced: Vec<Call> = Vec::new();
    let mut traced: Vec<(Call, Layers)> = Vec::new();
    let mut spans = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < budget {
        untraced.push(w.run(&cfg));
        let mut call_spans = Vec::new();
        traced.push(w.run_traced(&cfg, &mut call_spans));
        if spans.is_empty() {
            spans = call_spans;
        }
    }
    let traced_calls: Vec<&Call> = traced.iter().map(|(c, _)| c).collect();
    let all: Vec<&Call> = untraced
        .iter()
        .chain(traced_calls.iter().copied())
        .collect();
    let digests: Vec<u64> = all.iter().map(|c| c.digest).collect();
    let mismatches = digest_mismatches(args, &digests);
    let failed = all.iter().map(|c| c.failures).sum::<u64>() + mismatches;
    let attempted: u64 = all.iter().map(|c| c.offered).sum();
    let wall = |calls: &[&Call]| median(&calls.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let traced_wall = wall(&traced_calls);
    let untraced_wall = wall(&untraced.iter().collect::<Vec<_>>());
    let model = traced_calls[0];
    let mut derived = Layers::new();
    derived.insert("model.final_digest", digest_metric(model.digest));
    derived.insert("model.goodput_gbps", model.model_goodput_gbps);
    derived.insert("model.loss_frac", model.model_loss_frac);
    derived.insert("model.p99_us", model.model_p99_us);
    derived.insert("trace.wall_s", traced_wall);
    derived.insert("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    derived.insert("trace.span_ns", span_ns);
    let samples = epochs(&untraced);
    derived.insert("epoch.samples", samples.len() as f64);
    derived.insert("epoch.ms_p50", median(&ms(&samples)));
    derived.insert("epoch.ms_p90", percentile(&ms(&samples), 90.0));
    derived.insert("calls.untraced", untraced.len() as f64);
    derived.insert("calls.traced", traced.len() as f64);
    derived.insert("digest.mismatches", mismatches as f64);
    derived.insert("fail_frac", failed as f64 / attempted.max(1) as f64);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = derived.get(name).copied().unwrap_or_else(|| {
                let per_call: Vec<f64> = traced
                    .iter()
                    .filter_map(|(_, l)| l.get(name).copied())
                    .collect();
                median(&per_call)
            });
            (name, unit, v)
        })
        .collect();
    Outcome {
        metrics,
        failed,
        attempted,
        digest: model.digest,
        spans,
    }
}

fn write(path: &PathBuf, j: &Json) {
    if let Err(e) = std::fs::write(path, j.pretty()) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let manifest = manifest(args.workload, args.seed, args.seconds, args.trace);
    println!("manifest {}", compact(&manifest));
    let budget = Duration::from_secs(args.seconds);
    let out = if args.trace {
        run_traced(&args, budget)
    } else {
        run_untraced(&args, budget)
    };
    let result = result_json(out.failed, out.attempted, &out.metrics);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&args.out).is_ok() {
        write(
            &args.out.join(format!("{stem}.json")),
            &Json::obj([
                ("manifest", manifest),
                ("final_digest", format!("{:#018x}", out.digest).to_json()),
                ("result", result.clone()),
            ]),
        );
        if args.trace {
            write(
                &args.out.join(format!("{stem}.trace.json")),
                &chrome_trace(&out.spans),
            );
        }
    }
    println!("final_digest {:#018x}", out.digest);
    println!("{}", compact(&result));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} failed checks", out.failed);
        ExitCode::FAILURE
    }
}
