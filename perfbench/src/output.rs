//! What a run prints and writes: the result line, the manifest, the
//! per-layer document and the Chrome `trace_event` export of raw spans.

use crate::probe::Span;
use crate::workloads::{Workload, THREADS};
use npqm_bench::json::{Json, ToJson};
use npqm_core::check::{fnv1a_fold, FNV_OFFSET_BASIS};

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pkts_per_s", "pkt/s"),
    ("goodput_gbps", "Gbit/s"),
    ("epoch_ms_p75", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json`
/// order. A layer a workload does not have reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("sched.calls", "count"),
    ("sched.s", "s"),
    ("sched.ns_p50", "ns"),
    ("sched.ns_p99", "ns"),
    ("sched.idle_frac", "ratio"),
    ("snapshot.count", "count"),
    ("snapshot.s", "s"),
    ("admit.calls", "count"),
    ("admit.s", "s"),
    ("admit.ns_p50", "ns"),
    ("admit.ns_p99", "ns"),
    ("admit.accept_frac", "ratio"),
    ("admit.evicted", "count"),
    ("admit.ptr_per_call", "count"),
    ("shard.offer_batch_s", "s"),
    ("shard.execute_batch_s", "s"),
    ("shard.busy_s", "s"),
    ("shard.critical_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.overhead_s", "s"),
    ("scale.drain_plan_s", "s"),
    ("scale.ledger_s", "s"),
    ("service.busy_s", "s"),
    ("service.critical_s", "s"),
    ("service.loop_other_s", "s"),
    ("service.driver_s", "s"),
    ("service.ring_full", "count"),
    ("pipeline.other_s", "s"),
    ("draw.s", "s"),
    ("draw.ns_per_pkt", "ns"),
    ("engine.segments", "count"),
    ("engine.ptr_accesses", "count"),
    ("engine.ptr_per_segment", "count"),
    ("model.final_digest", "hash48"),
    ("model.goodput_gbps", "Gbit/s"),
    ("model.loss_frac", "ratio"),
    ("model.p99_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("trace.span_ns", "ns"),
    ("epoch.samples", "count"),
    ("epoch.ms_p50", "ms"),
    ("epoch.ms_p90", "ms"),
    ("calls.untraced", "count"),
    ("calls.traced", "count"),
    ("digest.mismatches", "count"),
    ("fail_frac", "ratio"),
];

/// The digest as a metric value: its low 48 bits, which a JSON number
/// holds exactly. The full digest is in the manifest line and the
/// result document.
pub fn digest_metric(digest: u64) -> f64 {
    (digest & ((1 << 48) - 1)) as f64
}

/// Median of `v` (mean of the middle pair); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Single-line JSON.
pub fn compact(j: &Json) -> String {
    // The pretty printer escapes newlines inside strings, so every raw
    // newline and the indentation after it are layout.
    j.pretty().lines().map(str::trim_start).collect()
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(failed: u64, attempted: u64, metrics: &[(&str, &str, f64)]) -> Json {
    Json::Obj(vec![
        ("correct".to_string(), (failed == 0).to_json()),
        ("attempted".to_string(), attempted.to_json()),
        ("failed".to_string(), failed.to_json()),
        (
            "metrics".to_string(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|&(name, unit, value)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::Num(value)), ("unit", unit.to_json())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// FNV-1a over the configuration's `Debug` text.
pub fn config_hash(w: Workload, seed: u64) -> u64 {
    format!("{:?}", w.config(seed))
        .bytes()
        .fold(FNV_OFFSET_BASIS, |h, b| fnv1a_fold(h, u64::from(b)))
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run manifest: what ran, where and how.
pub fn manifest(w: Workload, seed: u64, seconds: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let hashes = Json::Obj(
        Workload::ALL
            .iter()
            .map(|&o| {
                (
                    o.name().to_string(),
                    format!("{:#018x}", config_hash(o, seed)).to_json(),
                )
            })
            .collect(),
    );
    Json::obj([
        ("benchmark", "npqm-perfbench".to_json()),
        ("workload", w.name().to_json()),
        ("seed", seed.to_json()),
        ("seconds", seconds.to_json()),
        ("trace", trace.to_json()),
        ("git_rev", git_rev().to_json()),
        ("nproc", nproc.to_json()),
        ("threads", THREADS.to_json()),
        ("profile", profile.to_json()),
        ("config_hashes", hashes),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Raw spans as a Chrome `trace_event` document (wall clock, µs from the
/// first span): one track per shard plus a driver track for epochs,
/// rounds and batch steps. Each event's `args.parent` is its epoch or
/// round.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let tid = |lane: u32| if lane == u32::MAX { 0 } else { lane + 1 };
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut events: Vec<Json> = lanes
        .iter()
        .map(|&lane| {
            let name = if lane == u32::MAX {
                "driver".to_string()
            } else {
                format!("shard {lane}")
            };
            Json::obj([
                ("name", "thread_name".to_json()),
                ("ph", "M".to_json()),
                ("pid", 1.to_json()),
                ("tid", tid(lane).to_json()),
                ("args", Json::obj([("name", name.to_json())])),
            ])
        })
        .collect();
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| (s.start_ns, s.lane));
    events.extend(sorted.iter().map(|s| {
        Json::obj([
            ("name", s.layer.to_json()),
            (
                "cat",
                s.layer.split('.').next().unwrap_or(s.layer).to_json(),
            ),
            ("ph", "X".to_json()),
            ("ts", Json::Num((s.start_ns - origin) as f64 / 1000.0)),
            ("dur", Json::Num(s.dur_ns as f64 / 1000.0)),
            ("pid", 1.to_json()),
            ("tid", tid(s.lane).to_json()),
            ("args", Json::obj([("parent", s.parent.to_json())])),
        ])
    }));
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ns".to_json()),
    ])
}
