//! The four workloads: their configurations, their starting state, one
//! untraced call of each through the library's public entry point, and
//! one traced call that times each layer from outside.
//!
//! Why each workload exists and which layer it is meant to load is
//! written down in `perfbench/README.md`.

use crate::probe::{now_ns, Recorder, Span};
use crate::replay::replay_shard_scale;
use npqm_bench::qos::{tenant_tree, trunk_cfg, LOAD_OVERLOAD};
use npqm_core::check::{fnv1a_fold, FNV_OFFSET_BASIS};
use npqm_core::policy::{DynamicThreshold, LongestQueueDrop};
use npqm_core::sched::{from_spec, FlowScheduler};
use npqm_core::shard::{ShardedAdmission, ShardedQueueManager};
use npqm_core::{QmConfig, QueueManager};
use npqm_sim::time::Picos;
use npqm_traffic::arrival::ArrivalGen;
use npqm_traffic::pipeline::{PipelineConfig, PipelineReport};
use npqm_traffic::scale::{run_shard_scale, ShardScaleConfig};
use npqm_traffic::service::{run_service_observed, EpochWindow, PacketStream, ServiceConfig};
use npqm_traffic::{ArrivalProcess, FlowMix, PipelineBuilder, ServiceReport, SizeDistribution};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};

/// `table10`'s final digest at seed 42, which `stream_imix_64q` must
/// reproduce: its only change from `table10` is a finer epoch width,
/// and epochs only decide when snapshots are taken.
pub const TABLE10_DIGEST_SEED42: u64 = 0x480d_048f_c5d8_0e79;

/// Shards of the batch workload.
const BATCH_SHARDS: usize = 4;
/// Worker threads every workload's call runs on. One: on a 2-vCPU host
/// the batch executor's per-phase thread spawns made whole runs swing 2×
/// from minute to minute, more than any bound could absorb (README.md).
pub const THREADS: usize = 1;
/// Raw spans kept per probe in a traced call.
const SPAN_CAP: usize = 2048;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `table10`'s overloaded 64-flow IMIX service.
    StreamImix64q,
    /// 32,768 queues of minimum-size packets below saturation.
    Stream64b32kq,
    /// `run_shard_scale` on 4 shards, one worker thread.
    Batch4sh1t,
    /// `table11`'s overloaded trunk under LQD push-out and HTB egress.
    TraceTrunkLqd,
}

/// A workload's configuration.
#[derive(Debug, Clone)]
pub enum Config {
    /// Streaming-service workloads.
    Stream(ServiceConfig),
    /// The batch workload.
    Batch(ShardScaleConfig),
    /// The finite-trace workload.
    Trace(PipelineConfig),
}

/// What one call did, as the end-to-end metrics and checks need it.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Host seconds of the public call.
    pub wall_s: f64,
    /// Packets offered.
    pub offered: u64,
    /// Payload bytes delivered.
    pub delivered_bytes: u64,
    /// Each virtual epoch's host time and traffic (stream workloads).
    pub epochs: Vec<Epoch>,
    /// Final state digest (batch: the run's `fingerprint`; trace: a
    /// digest of the report, since the engine stays inside the call).
    pub digest: u64,
    /// Packets failing a check, plus one per failed invariant walk.
    pub failures: u64,
    /// Virtual-time goodput in Gbit/s (0 where there is no virtual time).
    pub model_goodput_gbps: f64,
    /// Refused plus pushed-out packets over offered.
    pub model_loss_frac: f64,
    /// Delivery-latency p99 in µs of virtual time (stream workloads).
    pub model_p99_us: f64,
}

/// One timed slice of a run: a virtual epoch of a stream call, or a
/// whole call of the batch and trace workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epoch {
    /// Host milliseconds.
    pub ms: f64,
    /// Packets offered in the slice.
    pub pkts: u64,
    /// Payload bytes delivered in the slice.
    pub bytes: u64,
}

/// Per-layer figures of one traced call, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamImix64q,
        Workload::Stream64b32kq,
        Workload::Batch4sh1t,
        Workload::TraceTrunkLqd,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamImix64q => "stream_imix_64q",
            Workload::Stream64b32kq => "stream_64b_32kq",
            Workload::Batch4sh1t => "batch_4sh_1t",
            Workload::TraceTrunkLqd => "trace_trunk_lqd",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's configuration at `seed`.
    pub fn config(self, seed: u64) -> Config {
        match self {
            Workload::StreamImix64q => Config::Stream(ServiceConfig {
                epoch: Picos::from_micros(25_000),
                seed,
                ..ServiceConfig::table10()
            }),
            Workload::Stream64b32kq => Config::Stream(ServiceConfig {
                qm: QmConfig::builder()
                    .num_flows(32_768)
                    .num_segments(65_536)
                    .segment_bytes(64)
                    .build()
                    .expect("static configuration is valid"),
                arrivals: ArrivalProcess::Poisson {
                    mean_interval: Picos::from_nanos(600),
                },
                sizes: SizeDistribution::Fixed(64),
                mix: FlowMix::uniform(32_768),
                egress_gbps: 2.0,
                shards: 4,
                generators: 2,
                // The serial driver refills lanes in rounds of about one
                // lane's capacity; at 1024 a round spans ~25 of these
                // 100 µs epochs and the epoch-close callbacks bunch up.
                // Lane capacity changes scheduling only, never results.
                ring_capacity: 8,
                epoch: Picos::from_micros(100),
                duration: Picos::from_micros(10_000),
                packet_budget: None,
                pacing_window: Picos::from_micros(50),
                latency_bucket_ns: 1_000,
                latency_buckets: 1024,
                seed,
                telemetry: None,
            }),
            Workload::Batch4sh1t => Config::Batch(ShardScaleConfig {
                rounds: 160,
                seed,
                ..ShardScaleConfig::table7()
            }),
            Workload::TraceTrunkLqd => {
                let mut cfg = trunk_cfg(seed, &LOAD_OVERLOAD);
                cfg.duration = Picos::from_micros(50_000);
                Config::Trace(cfg)
            }
        }
    }

    /// Builds the workload's starting state through the public
    /// constructors, as its call does, and returns the host seconds it
    /// took. The state is dropped after the clock stops.
    pub fn setup(self, seed: u64) -> f64 {
        let t0 = now_ns();
        let held: Box<dyn std::any::Any> = match self.config(seed) {
            Config::Stream(cfg) => {
                let flows = cfg.mix.flows();
                let engine = ShardedQueueManager::partitioned(cfg.qm, cfg.shards)
                    .expect("per-shard buffer is non-empty");
                let policies: Vec<DynamicThreshold> =
                    (0..cfg.shards).map(|_| stream_policy()).collect();
                let scheds: Vec<_> = (0..cfg.shards).map(|_| stream_sched(flows)).collect();
                Box::new((cfg, engine, policies, scheds))
            }
            Config::Batch(cfg) => {
                let qm = QmConfig::builder()
                    .num_flows(cfg.flows)
                    .num_segments(cfg.total_segments)
                    .segment_bytes(cfg.segment_bytes)
                    .build()
                    .expect("scale configuration must be valid");
                let engine = ShardedQueueManager::partitioned(qm, BATCH_SHARDS)
                    .expect("per-shard buffer is non-empty");
                let adm =
                    ShardedAdmission::from_fn(BATCH_SHARDS, |_| DynamicThreshold::new(cfg.alpha));
                let mix = FlowMix::zipf(cfg.flows, cfg.zipf_exponent);
                Box::new((cfg, engine, adm, mix))
            }
            Config::Trace(cfg) => {
                let qm = QueueManager::new(cfg.qm);
                let builder = trace_builder(&cfg);
                Box::new((qm, builder))
            }
        };
        let held = black_box(held);
        let secs = (now_ns() - t0) as f64 * 1e-9;
        drop(held);
        secs
    }

    /// One untraced call through the public entry point.
    pub fn run(self, cfg: &Config) -> Call {
        match cfg {
            Config::Stream(cfg) => {
                let flows = cfg.mix.flows();
                let epochs = EpochTimer::new(cfg, None);
                let t0 = now_ns();
                let r = run_service_observed(
                    cfg,
                    THREADS,
                    |_| stream_policy(),
                    |_| stream_sched(flows),
                    |s, w| epochs.closed(s, w),
                );
                stream_call(&r, (now_ns() - t0) as f64 * 1e-9, epochs.into_epochs())
            }
            Config::Batch(cfg) => {
                let t0 = now_ns();
                let row = run_shard_scale(cfg, BATCH_SHARDS, THREADS);
                let wall_s = (now_ns() - t0) as f64 * 1e-9;
                let lost = row
                    .offered_pkts
                    .abs_diff(row.admitted_pkts + row.dropped_pkts)
                    + u64::from(!row.conserved);
                Call {
                    wall_s,
                    offered: row.offered_pkts,
                    delivered_bytes: row.drained_bytes,
                    digest: row.fingerprint,
                    failures: row.torn_frames + lost,
                    model_loss_frac: row.dropped_pkts as f64 / row.offered_pkts.max(1) as f64,
                    ..Call::default()
                }
            }
            Config::Trace(cfg) => {
                let b = trace_builder(cfg);
                let t0 = now_ns();
                let r = b.run();
                trace_call(&r.aggregate, (now_ns() - t0) as f64 * 1e-9)
            }
        }
    }

    /// One traced call: the same work as [`run`](Self::run) with every
    /// layer call timed from outside. Raw spans are appended to `spans`.
    pub fn run_traced(self, cfg: &Config, spans: &mut Vec<Span>) -> (Call, Layers) {
        let mut l = Layers::new();
        let (call, rec) = match cfg {
            Config::Stream(cfg) => {
                let flows = cfg.mix.flows();
                let rec = Recorder::new(cfg.shards, SPAN_CAP);
                let epochs = EpochTimer::new(cfg, Some(Arc::clone(&rec)));
                let t0 = now_ns();
                let r = run_service_observed(
                    cfg,
                    THREADS,
                    |s| rec.policy(s, stream_policy()),
                    |s| rec.sched(s, stream_sched(flows)),
                    |s, w| epochs.closed(s, w),
                );
                let wall_s = (now_ns() - t0) as f64 * 1e-9;
                let (snap_count, snap_s, epoch_spans) = epochs.snapshots(&r);
                spans.extend(epoch_spans);
                let busy: f64 = r.shards.iter().map(|s| s.busy.as_secs_f64()).sum();
                let layers_s = rec.layer("admit").secs() + rec.layer("sched").secs() + snap_s;
                l.insert("snapshot.count", snap_count as f64);
                l.insert("snapshot.s", snap_s);
                l.insert("service.busy_s", busy);
                l.insert("service.critical_s", r.critical_path.as_secs_f64());
                l.insert("service.loop_other_s", busy - layers_s);
                l.insert("service.driver_s", wall_s - busy);
                l.insert("service.ring_full", r.ring_full_events as f64);
                l.insert("trace.attributed_frac", layers_s / wall_s);
                let call = stream_call(&r, wall_s, epochs.into_epochs());
                (call, rec)
            }
            Config::Batch(cfg) => {
                let rec = Recorder::new(BATCH_SHARDS, SPAN_CAP);
                let r = replay_shard_scale(
                    cfg,
                    BATCH_SHARDS,
                    THREADS,
                    |s| rec.policy(s, DynamicThreshold::new(cfg.alpha)),
                    Some((&rec, spans)),
                );
                let t = r.times;
                let s = |ns: u64| ns as f64 * 1e-9;
                let critical = r.critical.as_secs_f64();
                let serial = r.serial_busy.as_secs_f64();
                l.insert("shard.offer_batch_s", s(t.offer_batch));
                l.insert("shard.execute_batch_s", s(t.execute_batch));
                l.insert("shard.busy_s", serial);
                l.insert("shard.critical_s", critical);
                l.insert(
                    "shard.imbalance",
                    critical / (serial / BATCH_SHARDS as f64).max(f64::MIN_POSITIVE),
                );
                l.insert(
                    "shard.overhead_s",
                    s(t.offer_batch + t.execute_batch) - critical,
                );
                l.insert("scale.drain_plan_s", s(t.drain_plan));
                l.insert("scale.ledger_s", s(t.ledger));
                l.insert("snapshot.count", 1.0);
                l.insert("snapshot.s", s(t.snapshot));
                l.insert("draw.s", s(t.draw));
                l.insert("draw.ns_per_pkt", t.draw as f64 / r.offered.max(1) as f64);
                let spanned =
                    t.draw + t.offer_batch + t.ledger + t.drain_plan + t.execute_batch + t.snapshot;
                l.insert("trace.attributed_frac", spanned as f64 / t.wall as f64);
                l.insert("engine.segments", r.segments as f64);
                l.insert("engine.ptr_accesses", r.ptr_accesses as f64);
                let lost = r.offered.abs_diff(r.admitted + r.dropped) + u64::from(!r.conserved);
                let call = Call {
                    wall_s: s(t.wall),
                    offered: r.offered,
                    delivered_bytes: r.drained_bytes,
                    digest: r.fingerprint,
                    failures: r.torn + lost + u64::from(!r.verify_ok),
                    model_loss_frac: r.dropped as f64 / r.offered.max(1) as f64,
                    ..Call::default()
                };
                (call, rec)
            }
            Config::Trace(cfg) => {
                let rec = Recorder::new(1, SPAN_CAP);
                let (ra, rs) = (Arc::clone(&rec), Arc::clone(&rec));
                let tree = tenant_tree();
                let b = PipelineBuilder::new(cfg)
                    .admission(move |s| ra.policy(s, LongestQueueDrop::new(0)))
                    .egress(move |s| rs.sched(s, tree.clone()));
                let t0 = now_ns();
                let r = b.run();
                let wall_s = (now_ns() - t0) as f64 * 1e-9;
                let layers_s = rec.layer("admit").secs() + rec.layer("sched").secs();
                l.insert("trace.attributed_frac", layers_s / wall_s);
                (trace_call(&r.aggregate, wall_s), rec)
            }
        };
        let admit = rec.layer("admit");
        let sched = rec.layer("sched");
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        l.insert("admit.calls", admit.calls as f64);
        l.insert("admit.s", admit.secs());
        l.insert("admit.ns_p50", admit.hist.quantile(0.50) as f64);
        l.insert("admit.ns_p99", admit.hist.quantile(0.99) as f64);
        l.insert("admit.accept_frac", per(admit.hits, admit.calls));
        l.insert("admit.evicted", admit.evicted as f64);
        l.insert("admit.ptr_per_call", per(admit.ptr, admit.calls));
        l.insert("sched.calls", sched.calls as f64);
        l.insert("sched.s", sched.secs());
        l.insert("sched.ns_p50", sched.hist.quantile(0.50) as f64);
        l.insert("sched.ns_p99", sched.hist.quantile(0.99) as f64);
        l.insert(
            "sched.idle_frac",
            per(sched.calls - sched.hits, sched.calls),
        );
        if !matches!(cfg, Config::Batch(_)) {
            let seen = rec.engine();
            l.insert("engine.segments", seen.segments as f64);
            l.insert("engine.ptr_accesses", seen.ptr as f64);
            let (draw_s, pkts) = draw_replay(cfg);
            l.insert("draw.s", draw_s);
            l.insert("draw.ns_per_pkt", draw_s * 1e9 / pkts.max(1) as f64);
            if matches!(cfg, Config::Trace(_)) {
                l.insert(
                    "pipeline.other_s",
                    call.wall_s - draw_s - admit.secs() - sched.secs(),
                );
            }
        }
        l.insert(
            "engine.ptr_per_segment",
            l["engine.ptr_accesses"] / l["engine.segments"].max(1.0),
        );
        spans.extend(rec.spans());
        (call, l)
    }
}

fn stream_policy() -> DynamicThreshold {
    DynamicThreshold::new(2.0)
}

fn stream_sched(flows: u32) -> Box<dyn FlowScheduler + Send> {
    from_spec("drr:1518", flows).expect("static spec")
}

fn trace_builder(cfg: &PipelineConfig) -> PipelineBuilder {
    PipelineBuilder::new(cfg)
        .admission(|_| LongestQueueDrop::new(0))
        .egress_htb(tenant_tree())
}

fn stream_call(r: &ServiceReport, wall_s: f64, epochs: Vec<Epoch>) -> Call {
    let a = &r.aggregate;
    let residual: u64 = r.shards.iter().map(|s| s.residual_pkts).sum();
    let lost = a
        .offered_pkts
        .abs_diff(a.delivered_pkts + a.dropped_pkts + a.evicted_pkts + residual);
    let bad_snapshots = r
        .shards
        .iter()
        .flat_map(|s| &s.snapshots)
        .filter(|s| !s.verify_ok || s.integrity_violations != 0)
        .count() as u64;
    let mut latency = r.windows[0].latency_ns.clone();
    for w in &r.windows[1..] {
        latency.merge(&w.latency_ns);
    }
    Call {
        wall_s,
        offered: a.offered_pkts,
        delivered_bytes: a.delivered_bytes,
        epochs,
        digest: r.final_digest,
        failures: lost + a.integrity_violations + bad_snapshots,
        model_goodput_gbps: a.goodput_gbps(),
        model_loss_frac: a.loss_fraction(),
        model_p99_us: latency.quantile(0.99).unwrap_or(0) as f64 / 1000.0,
    }
}

fn trace_call(a: &PipelineReport, wall_s: f64) -> Call {
    let mut h = FNV_OFFSET_BASIS;
    for f in &a.flows {
        for v in [
            f.offered_pkts,
            f.offered_bytes,
            f.admitted_pkts,
            f.dropped_pkts,
            f.evicted_pkts,
            f.delivered_pkts,
            f.delivered_bytes,
            f.latency_ns.mean().to_bits(),
        ] {
            h = fnv1a_fold(h, v);
        }
    }
    h = fnv1a_fold(h, a.makespan.as_u64());
    h = fnv1a_fold(h, a.integrity_violations);
    let lost = a
        .offered_pkts
        .abs_diff(a.delivered_pkts + a.dropped_pkts + a.evicted_pkts);
    Call {
        wall_s,
        offered: a.offered_pkts,
        delivered_bytes: a.delivered_bytes,
        digest: h,
        failures: lost + a.integrity_violations,
        model_goodput_gbps: a.goodput_gbps(),
        model_loss_frac: a.loss_fraction(),
        ..Call::default()
    }
}

/// Draws the workload's packets again — arrival times, flow, size and
/// the marker stamped into a scratch payload — with nothing else, and
/// returns the host seconds and the packet count.
fn draw_replay(cfg: &Config) -> (f64, u64) {
    let (arrivals, mix, sizes, duration, seed, generators) = match cfg {
        Config::Stream(c) => (
            c.arrivals,
            &c.mix,
            &c.sizes,
            c.duration,
            c.seed,
            c.generators,
        ),
        Config::Trace(c) => (c.arrivals, &c.mix, &c.sizes, c.duration, c.seed, 1),
        Config::Batch(_) => unreachable!("the batch replay times its own draws"),
    };
    let mut payload = vec![0xA5u8; sizes.max_bytes() as usize];
    let t0 = now_ns();
    let mut pkts = 0u64;
    for g in 0..generators as u64 {
        let gseed = seed.wrapping_add(g);
        let mut gen = ArrivalGen::new(arrivals, gseed);
        let mut stream = PacketStream::new(mix, sizes, gseed ^ 0x9E37_79B9_7F4A_7C15);
        while gen.next_arrival() <= duration {
            let (_, size, marker) = stream.next_packet();
            payload[0] = marker;
            black_box(&payload[..size as usize]);
            pkts += 1;
        }
    }
    ((now_ns() - t0) as f64 * 1e-9, pkts)
}

/// Per-epoch host time of a streaming call, from the window-close
/// callbacks of `run_service_observed`: epoch `e` ends when the last
/// shard closes window `e`, and its traffic is the sum of the shards'
/// windows. With a recorder attached it also measures
/// each snapshot as the gap from the last layer span to the callback.
struct EpochTimer {
    inner: Mutex<EpochState>,
    shards: u32,
    full_epochs: u64,
    rec: Option<Arc<Recorder>>,
}

#[derive(Default)]
struct EpochState {
    closed: Vec<u32>,
    prev_ns: u64,
    open: Vec<Epoch>,
    done: Vec<Epoch>,
    /// (shard, epoch, gap since the last layer span) of every callback.
    gaps: Vec<(usize, u64, u64)>,
    spans: Vec<Span>,
}

impl EpochTimer {
    fn new(cfg: &ServiceConfig, rec: Option<Arc<Recorder>>) -> Self {
        let full_epochs = cfg.duration.as_u64() / cfg.epoch.as_u64();
        EpochTimer {
            inner: Mutex::new(EpochState {
                closed: vec![0; full_epochs as usize],
                open: vec![Epoch::default(); full_epochs as usize],
                prev_ns: now_ns(),
                ..EpochState::default()
            }),
            shards: cfg.shards as u32,
            full_epochs,
            rec,
        }
    }

    fn closed(&self, shard: usize, w: &EpochWindow) {
        let t = now_ns();
        let mut st = self.inner.lock().expect("observer panicked");
        if let Some(rec) = &self.rec {
            let gap = t.saturating_sub(rec.last_end_ns());
            st.gaps.push((shard, w.epoch, gap));
            rec.mark(t);
            rec.set_parent(shard, w.epoch + 1);
        }
        if w.epoch < self.full_epochs {
            let e = w.epoch as usize;
            st.closed[e] += 1;
            st.open[e].pkts += w.offered_pkts;
            st.open[e].bytes += w.delivered_bytes;
            if st.closed[e] == self.shards {
                let dur = t - st.prev_ns;
                let done = Epoch {
                    ms: dur as f64 * 1e-6,
                    ..st.open[e]
                };
                st.done.push(done);
                if self.rec.is_some() {
                    let start_ns = st.prev_ns;
                    st.spans.push(Span {
                        layer: "epoch",
                        lane: u32::MAX,
                        start_ns,
                        dur_ns: dur,
                        parent: w.epoch,
                    });
                }
                st.prev_ns = t;
            }
        }
    }

    /// Snapshot count and seconds (callbacks that closed a window with a
    /// snapshot, not the final partial one), plus the epoch spans.
    fn snapshots(&self, r: &ServiceReport) -> (u64, f64, Vec<Span>) {
        let mut st = self.inner.lock().expect("observer panicked");
        let mut count = 0;
        let mut ns = 0;
        for &(shard, epoch, gap) in &st.gaps {
            if (epoch as usize) < r.shards[shard].snapshots.len() {
                count += 1;
                ns += gap;
            }
        }
        (count, ns as f64 * 1e-9, std::mem::take(&mut st.spans))
    }

    fn into_epochs(self) -> Vec<Epoch> {
        self.inner.into_inner().expect("observer panicked").done
    }
}
