//! The closed-loop simulation pipeline: traffic → admission → queues →
//! scheduler → egress.
//!
//! Everything upstream of this module is a component: arrival processes,
//! size distributions and flow mixes ([`crate::arrival`], [`crate::size`],
//! [`crate::flows`]), the queue engine
//! ([`npqm_core::QueueManager`]), buffer-management policies
//! ([`npqm_core::policy::DropPolicy`]) and egress schedulers
//! ([`npqm_core::sched::FlowScheduler`]). This module wires them into one
//! discrete-event loop on the [`npqm_sim::EventQueue`]: a packet source
//! offers traffic to a pluggable drop policy, admitted packets queue per
//! flow, and a single egress server drains them through a scheduler at a
//! configurable line rate — so buffer-management policies can finally be
//! *exercised and measured* instead of only unit-tested.
//!
//! With [`PipelineBuilder::timing_paper`] the fixed line rate gives way
//! to a **memory-derived** egress: each packet's service time is the
//! modeled ZBT/DDR cost of its dequeue access stream (see
//! [`npqm_core::timing`]), so the delivered goodput is bounded by the
//! memory organisation instead of an assumed wire speed.
//!
//! The loop keeps a per-flow ledger with one slot — enqueue time, length
//! and a marker byte stamped into the frame — for every packet in the
//! buffer, which yields per-flow latency and an end-to-end integrity
//! check: a delivered frame whose length *or marker* differs from what
//! was admitted for that slot means a torn or cross-linked packet (the
//! corruption class the open-tail fixes in `npqm-core` close) and is
//! counted, never ignored.
//!
//! Every pipeline shape — dense, memory-timed, sharded (serial or
//! parallel) and globally admitted — is built through [`PipelineBuilder`]
//! and runs the same finite-trace event loop; only the arrival source,
//! the admission and the number of egress servers differ.
//!
//! # Example
//!
//! ```
//! use npqm_core::policy::LongestQueueDrop;
//! use npqm_traffic::{PipelineBuilder, PipelineConfig};
//!
//! let cfg = PipelineConfig::small_demo(7);
//! let report = PipelineBuilder::new(&cfg)
//!     .admission(|_| LongestQueueDrop::new(0))
//!     .egress_spec("drr:1518")
//!     .run()
//!     .aggregate;
//! assert!(report.delivered_pkts > 0);
//! assert_eq!(report.integrity_violations, 0);
//! ```

use crate::arrival::ArrivalProcess;
use crate::flows::FlowMix;
use crate::service::{offered_trace, partition_indices, ArrivalEvent, LoopState};
use crate::size::SizeDistribution;
use crate::PipelineBuilder;
use npqm_core::check::fnv1a_fold;
use npqm_core::limits::{BufferManager, FlowLimits};
use npqm_core::policy::{Admission, DropPolicy, DynamicThreshold, LongestQueueDrop, Refusal};
use npqm_core::sched::FlowScheduler;
use npqm_core::shard::parallel::GlobalDropPolicy;
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::{MetricsRegistry, Telemetry, TelemetryConfig, TelemetryReport};
use npqm_core::timing::{MemoryModel, PaperTiming, TimingConfig};
use npqm_core::{FlowId, QmConfig, QueueManager};
use npqm_sim::stats::MeanVar;
use npqm_sim::time::Picos;
use npqm_sim::EventQueue;
use std::collections::VecDeque;
use std::thread;

/// Configuration of one closed-loop run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Engine configuration (buffer size, segment size, flow count).
    pub qm: QmConfig,
    /// Packet inter-arrival process.
    pub arrivals: ArrivalProcess,
    /// Packet-size distribution.
    pub sizes: SizeDistribution,
    /// Which flow each packet belongs to.
    pub mix: FlowMix,
    /// Egress (server) line rate in Gbit/s.
    pub egress_gbps: f64,
    /// Arrivals are generated until this instant; the backlog then drains.
    pub duration: Picos,
    /// RNG seed (arrival jitter, sizes and flow choice are all derived
    /// from it, so a run is a pure function of this configuration).
    pub seed: u64,
    /// Deterministic observability (see [`npqm_core::telemetry`]):
    /// `Some` records virtual-time trace events, a metrics registry and
    /// a drop-attribution ledger into the report's `telemetry` field.
    /// `None` (the default) costs one branch on the hot paths and is
    /// proven behaviour-neutral by `state_digest` equality.
    pub telemetry: Option<TelemetryConfig>,
}

impl PipelineConfig {
    /// A small, fast scenario for doc-tests and smoke tests: 4 flows,
    /// light overload, ~1 µs of traffic.
    pub fn small_demo(seed: u64) -> Self {
        PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(4)
                .num_segments(64)
                .segment_bytes(64)
                .build()
                .expect("static configuration is valid"),
            arrivals: ArrivalProcess::Poisson {
                mean_interval: Picos::from_nanos(200),
            },
            sizes: SizeDistribution::Fixed(64),
            mix: FlowMix::uniform(4),
            egress_gbps: 2.0,
            duration: Picos::from_micros(1),
            seed,
            telemetry: None,
        }
    }

    /// The bursty-overload scenario `table6` reports: Zipf-skewed on-off
    /// bursts offering ~9.3 Gbit/s of IMIX traffic to a 6 Gbit/s egress
    /// through a 32 KiB shared buffer. This is the regime where
    /// buffer-management policy choice dominates goodput: static per-flow
    /// partitions waste buffer that the bursting (popular) flows need,
    /// while push-out and dynamic thresholds share it.
    pub fn bursty_overload(seed: u64) -> Self {
        PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(16)
                .num_segments(512)
                .segment_bytes(64)
                .build()
                .expect("static configuration is valid"),
            arrivals: ArrivalProcess::OnOff {
                on_interval: Picos::from_nanos(60),
                mean_burst: 24.0,
                mean_off: Picos::from_nanos(6_000),
            },
            sizes: SizeDistribution::Imix,
            mix: FlowMix::zipf(16, 1.2),
            egress_gbps: 6.0,
            duration: Picos::from_micros(2_000),
            seed,
            telemetry: None,
        }
    }

    /// Mean offered load in Gbit/s implied by the arrival process and
    /// size distribution.
    pub fn offered_gbps(&self) -> f64 {
        self.arrivals.mean_rate_pps() * self.sizes.mean() * 8.0 / 1e9
    }
}

/// Per-flow outcome of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Packets the source offered to the policy.
    pub offered_pkts: u64,
    /// Payload bytes offered.
    pub offered_bytes: u64,
    /// Packets the policy admitted into the buffer.
    pub admitted_pkts: u64,
    /// Arriving packets the policy refused.
    pub dropped_pkts: u64,
    /// Queued packets pushed out again by the policy (LQD).
    pub evicted_pkts: u64,
    /// Packets delivered at egress.
    pub delivered_pkts: u64,
    /// Payload bytes delivered at egress.
    pub delivered_bytes: u64,
    /// Queueing + transmission delay of delivered packets, in ns.
    pub latency_ns: MeanVar,
}

/// Aggregate outcome of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-flow breakdown, indexed by flow id.
    pub flows: Vec<FlowReport>,
    /// Packets offered across all flows.
    pub offered_pkts: u64,
    /// Bytes offered across all flows.
    pub offered_bytes: u64,
    /// Arriving packets refused across all flows.
    pub dropped_pkts: u64,
    /// Queued packets pushed out across all flows.
    pub evicted_pkts: u64,
    /// Packets delivered at egress.
    pub delivered_pkts: u64,
    /// Bytes delivered at egress.
    pub delivered_bytes: u64,
    /// Delay of all delivered packets, in ns.
    pub latency_ns: MeanVar,
    /// Time of the last event (arrivals plus backlog drain).
    pub makespan: Picos,
    /// Frames that did not match their ledger slot: delivered frames are
    /// checked for length *and* marker byte; evicted frames for length
    /// only (their payload is gone by eviction time). Any mismatch means
    /// a torn or cross-linked packet. Always 0 on a healthy engine.
    pub integrity_violations: u64,
    /// This loop's telemetry recorder (events, counts, drop ledger),
    /// populated when the run was configured with
    /// [`PipelineConfig::telemetry`]. `None` on untraced runs and on
    /// merged aggregate reports (the merged view lives in
    /// [`ShardedPipelineReport::telemetry`]).
    pub telemetry: Option<Telemetry>,
}

impl PipelineReport {
    /// Delivered payload throughput in Gbit/s over the whole run
    /// (1 Gbit/s ≡ 1 bit/ns).
    pub fn goodput_gbps(&self) -> f64 {
        if self.makespan == Picos::ZERO {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / self.makespan.as_nanos_f64()
    }

    /// Adds every per-flow entry into the report's totals.
    pub(crate) fn fold_flows(&mut self) {
        for fr in &self.flows {
            self.offered_pkts += fr.offered_pkts;
            self.offered_bytes += fr.offered_bytes;
            self.dropped_pkts += fr.dropped_pkts;
            self.evicted_pkts += fr.evicted_pkts;
            self.delivered_pkts += fr.delivered_pkts;
            self.delivered_bytes += fr.delivered_bytes;
            self.latency_ns.merge(&fr.latency_ns);
        }
    }

    /// Fraction of offered packets that were refused or pushed out.
    pub fn loss_fraction(&self) -> f64 {
        if self.offered_pkts == 0 {
            return 0.0;
        }
        (self.dropped_pkts + self.evicted_pkts) as f64 / self.offered_pkts as f64
    }
}

/// Events of the finite-trace loop: the next offered packet arrives, or
/// one of the egress servers (one per shard of the loop) finishes
/// transmitting a packet.
#[derive(Debug, Clone)]
enum Ev {
    Arrival(ArrivalEvent),
    TxDone {
        shard: usize,
        flow: FlowId,
        bytes: u32,
        enqueued_at: Picos,
    },
}

/// One buffered packet's ledger slot: when it was admitted, how long it
/// is, and the marker byte stamped into its first payload byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) enqueued_at: Picos,
    pub(crate) len: u32,
    pub(crate) marker: u8,
}

/// Folds a residual packet ledger — `(flow, length, marker)` of every
/// buffered packet, flow by flow — into an FNV-1a accumulator. The
/// streaming service's shard digests and the scale experiment's row
/// fingerprint both pin their ledgers through this one fold.
pub(crate) fn fold_ledger(mut h: u64, ledger: &[VecDeque<Slot>]) -> u64 {
    for (f, slots) in ledger.iter().enumerate() {
        for slot in slots {
            h = fnv1a_fold(h, f as u64);
            h = fnv1a_fold(h, u64::from(slot.len));
            h = fnv1a_fold(h, u64::from(slot.marker));
        }
    }
    h
}

/// How the egress server prices a packet's service time.
pub(crate) enum Egress<'a> {
    /// Fixed line rate in Gbit/s: `len * 8 / gbps` nanoseconds.
    Line(f64),
    /// Memory-derived: the modeled ZBT+DDR cost of the packet's dequeue
    /// access stream, replayed through a persistent [`PaperTiming`]
    /// channel (the engine must have tracing enabled).
    Memory(&'a mut PaperTiming),
}

impl Egress<'_> {
    /// Charges any traffic recorded since the last service (the
    /// admission-side enqueues) so ingress bank pressure is visible to
    /// the next service's cost. A no-op at a fixed line rate.
    fn absorb_ingress(&mut self, qm: &mut QueueManager) {
        if let Egress::Memory(model) = self {
            let pre = qm.cut_trace();
            if !pre.is_empty() {
                model.charge(&pre);
            }
        }
    }

    /// The transmit time of the packet just dequeued from `qm`.
    fn tx_time(&mut self, qm: &mut QueueManager, len: usize) -> Picos {
        let ps = match self {
            Egress::Line(gbps) => (len as f64 * 8.0 * 1000.0 / *gbps).round() as u64,
            Egress::Memory(model) => {
                let stream = qm.cut_trace();
                model.charge(&stream).time().as_u64()
            }
        };
        Picos::new(ps.max(1))
    }
}

/// Admission as every closed loop sees it: a packet offered either to a
/// shard-local [`DropPolicy`] guarding one engine ([`Local`]) or to a
/// [`GlobalDropPolicy`] over a whole sharded engine ([`Global`]), plus
/// the engine reads the egress servers and telemetry need.
pub(crate) trait Admit {
    /// The policy's report name.
    fn name(&self) -> &str;
    /// Offers one whole packet on `flow`.
    fn offer(&mut self, flow: FlowId, packet: &[u8]) -> Result<Admission, Refusal>;
    /// The egress server (shard of the loop) that serves `flow`.
    fn home(&self, flow: FlowId) -> usize;
    /// The engine egress server `shard` drains.
    fn engine(&mut self, shard: usize) -> &mut QueueManager;
    /// Segments queued on `flow`.
    fn depth(&self, flow: FlowId) -> u32;
    /// Segments occupied across everything the policy guards.
    fn occupancy(&self) -> u32;
}

/// Shard-local admission: `policy` guards the one engine `qm`.
pub(crate) struct Local<'a, P: ?Sized> {
    pub(crate) qm: &'a mut QueueManager,
    pub(crate) policy: &'a mut P,
}

impl<P: DropPolicy + ?Sized> Admit for Local<'_, P> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn offer(&mut self, flow: FlowId, packet: &[u8]) -> Result<Admission, Refusal> {
        self.policy.offer(self.qm, flow, packet)
    }

    fn home(&self, _flow: FlowId) -> usize {
        0
    }

    fn engine(&mut self, _shard: usize) -> &mut QueueManager {
        self.qm
    }

    fn depth(&self, flow: FlowId) -> u32 {
        self.qm.queue_len_segments(flow)
    }

    fn occupancy(&self) -> u32 {
        self.qm.occupied_segments()
    }
}

/// Global admission: one `policy` over every shard of `engine`, each
/// shard drained by its own egress server.
struct Global<'a, G: ?Sized> {
    engine: &'a mut ShardedQueueManager,
    policy: &'a mut G,
    shard_of_flow: &'a [usize],
}

impl<G: GlobalDropPolicy + ?Sized> Admit for Global<'_, G> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn offer(&mut self, flow: FlowId, packet: &[u8]) -> Result<Admission, Refusal> {
        self.policy.offer_global(self.engine, flow, packet)
    }

    fn home(&self, flow: FlowId) -> usize {
        self.shard_of_flow[flow.as_usize()]
    }

    fn engine(&mut self, shard: usize) -> &mut QueueManager {
        self.engine.shard_mut(shard)
    }

    fn depth(&self, flow: FlowId) -> u32 {
        self.engine.shard(self.home(flow)).queue_len_segments(flow)
    }

    fn occupancy(&self) -> u32 {
        self.engine.used_segments()
    }
}

/// The finite-trace loop behind every [`PipelineBuilder`] shape:
/// `arrivals` (in time order) are offered through `adm`, and one egress
/// server per entry of `scheds` drains its engine through that
/// scheduler, each service priced by `egress`.
///
/// Processing an arrival schedules its successor before any service it
/// starts, so event order — and with it every report and digest — is a
/// pure function of the inputs. The loop runs until the backlog has
/// fully drained, so admitted ≡ delivered + evicted at return; the
/// returned state holds the finished report.
fn run_trace<A, S>(
    cfg: &PipelineConfig,
    mut arrivals: impl Iterator<Item = ArrivalEvent>,
    adm: &mut A,
    scheds: &mut [S],
    mut egress: Egress<'_>,
) -> LoopState
where
    A: Admit + ?Sized,
    S: FlowScheduler,
{
    // Per-flow report, per-flow ledger (one Slot per buffered packet;
    // per-flow queues are FIFO, so admissions push at the back,
    // evictions pop at the front, service pops at the front) and the
    // scratch payload buffer, shared with the streaming service loops.
    let mut st =
        LoopState::new(cfg.mix.flows(), cfg.sizes.max_bytes()).with_telemetry(cfg.telemetry);
    let mut ev: EventQueue<Ev> = EventQueue::new();
    let mut busy = vec![false; scheds.len()];
    if let Some(first) = arrivals.next() {
        ev.schedule(first.at, Ev::Arrival(first));
    }
    while let Some((now, event)) = ev.pop() {
        let shard = match event {
            Ev::Arrival(a) => {
                st.arrival(adm, now, a.flow, a.size as usize, a.marker);
                if let Some(next) = arrivals.next() {
                    ev.schedule(next.at, Ev::Arrival(next));
                }
                let shard = adm.home(a.flow);
                if busy[shard] {
                    continue;
                }
                shard
            }
            Ev::TxDone {
                shard,
                flow,
                bytes,
                enqueued_at,
            } => {
                st.delivery(now, flow, bytes, enqueued_at);
                shard
            }
        };
        busy[shard] = start_service(
            adm.engine(shard),
            &mut scheds[shard],
            &mut st,
            &mut ev,
            &mut egress,
            |flow, bytes, enqueued_at| Ev::TxDone {
                shard,
                flow,
                bytes,
                enqueued_at,
            },
        );
    }
    st.finish(ev.now());
    st
}

/// Asks the scheduler for the next flow and, if one is ready, dequeues
/// its head packet, verifies it against `st`'s ledger (length and marker
/// byte) and schedules a transmit-done event (built by `mk_txdone` from
/// `(flow, bytes, enqueued_at)`) after the service time `egress` prices
/// for it. Returns whether the server is now busy. Generic over the
/// event type so the finite-trace loop and the streaming service loops
/// share one service path.
pub(crate) fn start_service<S: FlowScheduler + ?Sized, E>(
    qm: &mut QueueManager,
    sched: &mut S,
    st: &mut LoopState,
    ev: &mut EventQueue<E>,
    egress: &mut Egress<'_>,
    mk_txdone: impl FnOnce(FlowId, u32, Picos) -> E,
) -> bool {
    let Some(flow) = sched.next_flow(qm) else {
        return false;
    };
    egress.absorb_ingress(qm);
    let pkt = qm
        .dequeue_packet(flow)
        .expect("scheduler picked a ready flow");
    sched.served(flow, pkt.len());
    let slot = st.ledger[flow.as_usize()]
        .pop_front()
        .expect("served packet must be in the ledger");
    if pkt.len() as u32 != slot.len || pkt[0] != slot.marker {
        st.tear(flow);
    }
    let tx = egress.tx_time(qm, pkt.len());
    if let Some(t) = &mut st.tel {
        // The scheduler decision and (in memory-timed mode) the modeled
        // service cost, stamped at the service start instant.
        t.record_sched_select(ev.now(), flow);
        if matches!(egress, Egress::Memory(_)) {
            t.record_mem_tx(ev.now(), pkt.len() as u32, tx);
        }
    }
    ev.schedule_in(tx, mk_txdone(flow, pkt.len() as u32, slot.enqueued_at));
    true
}

/// Outcome of a [`PipelineBuilder`] run: the per-shard closed-loop
/// reports plus their aggregate.
#[derive(Debug, Clone, Default)]
pub struct ShardedPipelineReport {
    /// Per-shard reports. Each report's `flows` vector is indexed by the
    /// *global* flow id; flows homed on other shards stay zero.
    pub shards: Vec<PipelineReport>,
    /// Sums over all shards (per-flow entries merged by flow id).
    pub aggregate: PipelineReport,
    /// Home shard of each flow, as routed by
    /// [`ShardedQueueManager::shard_of`].
    pub shard_of_flow: Vec<usize>,
    /// Per-shard telemetry merged into one deterministic view (events
    /// ordered by virtual time, taxonomy and counters summed). `None`
    /// when the run was untraced.
    pub telemetry: Option<TelemetryReport>,
}

/// Merges per-shard reports into the aggregate view, stamping every
/// report with the global makespan (the slowest shard's last event, i.e.
/// the wall clock a shared observer would see).
pub(crate) fn assemble_sharded_report(
    mut shards: Vec<PipelineReport>,
    shard_of_flow: Vec<usize>,
    flows: u32,
) -> ShardedPipelineReport {
    let makespan = shards
        .iter()
        .map(|sr| sr.makespan)
        .max()
        .unwrap_or(Picos::ZERO);
    let mut aggregate = PipelineReport {
        flows: (0..flows).map(|_| FlowReport::default()).collect(),
        ..PipelineReport::default()
    };
    for sr in &mut shards {
        sr.makespan = makespan;
        for (f, fr) in sr.flows.iter().enumerate() {
            let agg = &mut aggregate.flows[f];
            agg.offered_pkts += fr.offered_pkts;
            agg.offered_bytes += fr.offered_bytes;
            agg.admitted_pkts += fr.admitted_pkts;
            agg.dropped_pkts += fr.dropped_pkts;
            agg.evicted_pkts += fr.evicted_pkts;
            agg.delivered_pkts += fr.delivered_pkts;
            agg.delivered_bytes += fr.delivered_bytes;
            agg.latency_ns.merge(&fr.latency_ns);
        }
        aggregate.offered_pkts += sr.offered_pkts;
        aggregate.offered_bytes += sr.offered_bytes;
        aggregate.dropped_pkts += sr.dropped_pkts;
        aggregate.evicted_pkts += sr.evicted_pkts;
        aggregate.delivered_pkts += sr.delivered_pkts;
        aggregate.delivered_bytes += sr.delivered_bytes;
        aggregate.latency_ns.merge(&sr.latency_ns);
        aggregate.integrity_violations += sr.integrity_violations;
    }
    aggregate.makespan = makespan;
    let telemetry = if shards.iter().any(|sr| sr.telemetry.is_some()) {
        Some(TelemetryReport::merge(
            shards
                .iter()
                .enumerate()
                .filter_map(|(s, sr)| sr.telemetry.as_ref().map(|t| (s as u32, t))),
        ))
    } else {
        None
    };
    ShardedPipelineReport {
        shards,
        aggregate,
        shard_of_flow,
        telemetry,
    }
}

/// The home shard of each of `flows` flows.
fn home_shards(engine: &ShardedQueueManager, flows: u32) -> Vec<usize> {
    (0..flows)
        .map(|f| engine.shard_of(FlowId::new(f)))
        .collect()
}

/// Runs shard-local admission over `engine`: shard `s` admits through
/// `policies[s]` and drains through `scheds[s]`. One shard draws its
/// arrivals lazily, so it never holds the offered trace in memory, and
/// may price egress with `timing`'s memory model. More shards each
/// replay their slice of one pregenerated trace in a self-contained
/// loop, which is what lets them run on their own threads when
/// `parallel`.
pub(crate) fn run_local<P, S>(
    cfg: &PipelineConfig,
    engine: &mut ShardedQueueManager,
    parallel: bool,
    policies: &mut [P],
    scheds: &mut [S],
    timing: Option<TimingConfig>,
) -> ShardedPipelineReport
where
    P: DropPolicy + Send,
    S: FlowScheduler + Send,
{
    let flows = cfg.mix.flows();
    let n = engine.num_shards();
    let shard_of_flow = home_shards(engine, flows);
    let reports: Vec<PipelineReport> = if n == 1 {
        let qm = engine.shard_mut(0);
        let mut model = timing.map(PaperTiming::new);
        qm.set_tracing(model.is_some());
        let egress = match &mut model {
            Some(model) => Egress::Memory(model),
            None => Egress::Line(cfg.egress_gbps),
        };
        let policy = &mut policies[0];
        let st = run_trace(
            cfg,
            offered_trace(cfg),
            &mut Local { qm, policy },
            scheds,
            egress,
        );
        vec![st.report]
    } else {
        // One shared trace, partitioned by *index*: every shard borrows
        // the same arrival storage and walks its own index list, so peak
        // memory is O(trace), not O(shards × trace).
        let trace: Vec<ArrivalEvent> = offered_trace(cfg).collect();
        let idx = partition_indices(&trace, &shard_of_flow, n);
        let trace = &trace[..];
        let gbps = cfg.egress_gbps / n as f64;
        let run_shard = |(((qm, policy), sched), ix): (((_, _), _), &Vec<u32>)| {
            let arrivals = ix.iter().map(|&i| trace[i as usize]);
            let scheds = std::slice::from_mut(sched);
            run_trace(
                cfg,
                arrivals,
                &mut Local { qm, policy },
                scheds,
                Egress::Line(gbps),
            )
            .report
        };
        let shards = engine
            .shards_mut()
            .iter_mut()
            .zip(policies.iter_mut())
            .zip(scheds.iter_mut())
            .zip(&idx);
        if parallel {
            thread::scope(|sc| {
                let handles: Vec<_> = shards.map(|job| sc.spawn(move || run_shard(job))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a shard loop panicked"))
                    .collect()
            })
        } else {
            shards.map(run_shard).collect()
        }
    };
    debug_assert!(
        engine.verify().is_ok(),
        "cross-shard invariants violated after drain"
    );
    assemble_sharded_report(reports, shard_of_flow, flows)
}

/// Runs global admission: `policy` guards every shard of `engine` as one
/// shared buffer, so an arrival may push out a queue on any shard and
/// the shards run as one interleaved loop (each still drained by its own
/// `scheds` entry at `cfg.egress_gbps / shards`). One telemetry recorder
/// observes the whole engine; push-out victims and torn frames are
/// charged to their flow's home shard.
pub(crate) fn run_global<G, S>(
    cfg: &PipelineConfig,
    engine: &mut ShardedQueueManager,
    policy: &mut G,
    scheds: &mut [S],
) -> ShardedPipelineReport
where
    G: GlobalDropPolicy + ?Sized,
    S: FlowScheduler,
{
    let flows = cfg.mix.flows();
    let n = engine.num_shards();
    let shard_of_flow = home_shards(engine, flows);
    let egress = Egress::Line(cfg.egress_gbps / n as f64);
    let mut adm = Global {
        engine,
        policy,
        shard_of_flow: &shard_of_flow,
    };
    let mut st = run_trace(cfg, offered_trace(cfg), &mut adm, scheds, egress);
    let engine = adm.engine;
    let telemetry = st.report.telemetry.take().map(|mut t| {
        let mut reg = MetricsRegistry::new();
        reg.record_qm("qm.", &engine.stats());
        reg.record_event_counts("trace.", t.counts());
        t.set_final_metrics(reg);
        TelemetryReport::merge([(0u32, &t)])
    });
    let shards = (0..n)
        .map(|s| {
            let mut sr = PipelineReport {
                makespan: st.report.makespan,
                ..PipelineReport::default()
            };
            for (f, fr) in st.report.flows.iter().enumerate() {
                if shard_of_flow[f] == s {
                    sr.flows.push(fr.clone());
                    sr.integrity_violations += st.torn.get(f).copied().unwrap_or(0);
                } else {
                    sr.flows.push(FlowReport::default());
                }
            }
            sr.fold_flows();
            sr
        })
        .collect();
    debug_assert!(
        engine.verify().is_ok(),
        "cross-shard invariants violated after drain"
    );
    let mut rep = assemble_sharded_report(shards, shard_of_flow, flows);
    rep.telemetry = telemetry;
    rep
}

/// One named policy's outcome in a comparison run.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy's [`DropPolicy::name`].
    pub policy: String,
    /// The full pipeline report for this policy.
    pub report: PipelineReport,
}

/// Runs the same scenario under the three buffer-management policies —
/// static-partition tail drop, Longest Queue Drop and Choudhury–Hahne
/// dynamic thresholds — each draining through a fresh byte-fair DRR
/// scheduler, and returns the outcomes in that order.
///
/// Tail drop partitions the buffer statically (each flow may hold
/// `1/flows` of the data memory), which is exactly the configuration the
/// shared-buffer policies are meant to beat under bursty skewed load.
pub fn compare_policies(cfg: &PipelineConfig) -> Vec<PolicyOutcome> {
    fn outcome<P: DropPolicy + Clone + Send + 'static>(
        cfg: &PipelineConfig,
        policy: P,
    ) -> PolicyOutcome {
        PolicyOutcome {
            policy: policy.name().to_string(),
            report: PipelineBuilder::new(cfg)
                .admission(move |_| policy.clone())
                .run()
                .aggregate,
        }
    }
    let per_flow_cap = cfg.qm.data_bytes() / u64::from(cfg.mix.flows());
    let tail_drop = BufferManager::new(
        FlowLimits {
            max_bytes: per_flow_cap,
            max_packets: u32::MAX,
        },
        0,
    );
    vec![
        outcome(cfg, tail_drop),
        outcome(cfg, LongestQueueDrop::new(0)),
        outcome(cfg, DynamicThreshold::new(2.0)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use npqm_core::sched::{DeficitRoundRobin, StrictPriority};
    use npqm_core::shard::parallel::GlobalLqd;

    fn lqd(cfg: &PipelineConfig) -> PipelineBuilder {
        PipelineBuilder::new(cfg).admission(|_| LongestQueueDrop::new(0))
    }

    #[test]
    fn conservation_and_integrity_under_light_load() {
        let cfg = PipelineConfig::small_demo(11);
        let r = lqd(&cfg).run().aggregate;
        assert!(r.offered_pkts > 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts,
            "every offered packet is accounted for"
        );
        assert_eq!(r.integrity_violations, 0);
        assert!(r.makespan >= cfg.duration || r.offered_pkts == r.delivered_pkts);
    }

    #[test]
    fn overload_drops_but_never_tears() {
        let mut cfg = PipelineConfig::small_demo(5);
        // 10x overload into a tiny buffer.
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_interval: Picos::from_nanos(20),
        };
        cfg.duration = Picos::from_micros(5);
        let r = lqd(&cfg).run().aggregate;
        assert!(r.dropped_pkts + r.evicted_pkts > 0, "overload must drop");
        assert_eq!(r.integrity_violations, 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts
        );
        assert!(r.latency_ns.mean() > 0.0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let cfg = PipelineConfig::bursty_overload(3);
        let a = PipelineBuilder::new(&cfg).run().aggregate;
        let b = PipelineBuilder::new(&cfg).run().aggregate;
        assert_eq!(a.delivered_pkts, b.delivered_pkts);
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn works_with_any_scheduler() {
        let cfg = PipelineConfig::small_demo(9);
        let r = PipelineBuilder::new(&cfg)
            .admission(|_| DynamicThreshold::new(1.0))
            .egress(|_| StrictPriority::new(4))
            .run()
            .aggregate;
        assert_eq!(r.integrity_violations, 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts
        );
    }

    #[test]
    fn lqd_beats_static_tail_drop_under_bursty_overload() {
        // The acceptance scenario: under Zipf-skewed on-off overload,
        // sharing the buffer (LQD push-out) must deliver at least the
        // goodput of statically partitioned tail drop.
        let outcomes = compare_policies(&PipelineConfig::bursty_overload(42));
        assert_eq!(outcomes.len(), 3);
        let tail = &outcomes[0];
        let lqd = &outcomes[1];
        assert_eq!(tail.policy, "tail-drop");
        assert_eq!(lqd.policy, "lqd");
        for o in &outcomes {
            assert_eq!(o.report.integrity_violations, 0, "{}", o.policy);
            assert_eq!(
                o.report.offered_pkts,
                o.report.delivered_pkts + o.report.dropped_pkts + o.report.evicted_pkts,
                "{}",
                o.policy
            );
        }
        assert!(
            lqd.report.delivered_bytes >= tail.report.delivered_bytes,
            "lqd {} < tail-drop {}",
            lqd.report.delivered_bytes,
            tail.report.delivered_bytes
        );
    }

    #[test]
    fn sharded_pipeline_conserves_per_shard_and_aggregate() {
        let cfg = PipelineConfig::bursty_overload(21);
        let r = PipelineBuilder::new(&cfg).shards(4).run();
        assert_eq!(r.shards.len(), 4);
        assert!(r.aggregate.offered_pkts > 0);
        assert!(
            r.aggregate.dropped_pkts > 0,
            "bursty overload must drop somewhere"
        );
        for (s, sr) in r.shards.iter().enumerate() {
            assert_eq!(sr.integrity_violations, 0, "shard {s} tore a frame");
            assert_eq!(
                sr.offered_pkts,
                sr.delivered_pkts + sr.dropped_pkts + sr.evicted_pkts,
                "shard {s} does not conserve packets"
            );
        }
        assert_eq!(r.aggregate.integrity_violations, 0);
        assert_eq!(
            r.aggregate.offered_pkts,
            r.aggregate.delivered_pkts + r.aggregate.dropped_pkts + r.aggregate.evicted_pkts
        );
    }

    #[test]
    fn sharded_pipeline_routes_flows_to_their_home_shard_only() {
        let cfg = PipelineConfig::bursty_overload(8);
        let r = lqd(&cfg).shards(4).run();
        for (f, &home) in r.shard_of_flow.iter().enumerate() {
            for (s, sr) in r.shards.iter().enumerate() {
                if s != home {
                    assert_eq!(
                        sr.flows[f].offered_pkts, 0,
                        "flow {f} leaked into shard {s} (home {home})"
                    );
                }
            }
        }
    }

    #[test]
    fn one_shard_pipeline_matches_the_dense_pipeline() {
        // One shard draws its arrivals lazily; more shards replay a
        // pregenerated trace. Replaying the collected trace through the
        // same loop must reproduce the lazy run byte for byte.
        let cfg = PipelineConfig::bursty_overload(5);
        let lazy = PipelineBuilder::new(&cfg).run();
        let trace: Vec<ArrivalEvent> = offered_trace(&cfg).collect();
        let mut qm = QueueManager::new(cfg.qm);
        let mut adm = Local {
            qm: &mut qm,
            policy: &mut DynamicThreshold::new(2.0),
        };
        let mut scheds = [DeficitRoundRobin::new(vec![1518; 16])];
        let egress = Egress::Line(cfg.egress_gbps);
        let replayed = run_trace(&cfg, trace.into_iter(), &mut adm, &mut scheds, egress);
        assert_eq!(
            format!("{:?}", replayed.report),
            format!("{:?}", lazy.shards[0])
        );
    }

    #[test]
    fn parallel_sharded_pipeline_is_byte_identical_to_serial() {
        // The headline determinism contract: for a fixed seed, the
        // parallel run's delivery reports and ledger-backed integrity
        // counts are byte-identical to serial replay. `Debug` formatting
        // covers every field, including the per-flow latency moments.
        for seed in [3u64, 21, 42, 99] {
            let cfg = PipelineConfig::bursty_overload(seed);
            let serial = lqd(&cfg).shards(4).run();
            let parallel = lqd(&cfg).shards(4).parallel(true).run();
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "seed {seed}: parallel and serial sharded runs diverged"
            );
        }
    }

    #[test]
    fn global_lqd_pipeline_conserves_and_never_tears() {
        let cfg = PipelineConfig::bursty_overload(21);
        let r = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert_eq!(r.shards.len(), 4);
        assert!(r.aggregate.offered_pkts > 0);
        assert!(
            r.aggregate.dropped_pkts + r.aggregate.evicted_pkts > 0,
            "bursty overload must drop or push out somewhere"
        );
        for (s, sr) in r.shards.iter().enumerate() {
            assert_eq!(sr.integrity_violations, 0, "shard {s} tore a frame");
            assert_eq!(
                sr.offered_pkts,
                sr.delivered_pkts + sr.dropped_pkts + sr.evicted_pkts,
                "shard {s} does not conserve packets"
            );
        }
        assert_eq!(r.aggregate.integrity_violations, 0);
        assert_eq!(
            r.aggregate.offered_pkts,
            r.aggregate.delivered_pkts + r.aggregate.dropped_pkts + r.aggregate.evicted_pkts
        );
    }

    #[test]
    fn traced_global_lqd_reconciles_with_the_untraced_run() {
        let cfg = PipelineConfig::bursty_overload(21);
        let untraced = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        let mut traced_cfg = cfg.clone();
        traced_cfg.telemetry = Some(TelemetryConfig::default());
        let mut engine = ShardedQueueManager::new(cfg.qm, 4);
        let mut policy = GlobalLqd::new(cfg.qm.num_segments(), 0);
        let mut scheds: Vec<_> = (0..4)
            .map(|_| DeficitRoundRobin::new(vec![1518; 16]))
            .collect();
        let traced = run_global(&traced_cfg, &mut engine, &mut policy, &mut scheds);
        // Telemetry is behaviour-neutral: every report is unchanged.
        assert_eq!(
            format!("{:?}", traced.aggregate),
            format!("{:?}", untraced.aggregate)
        );
        assert_eq!(
            format!("{:?}", traced.shards),
            format!("{:?}", untraced.shards)
        );
        let tel = traced.telemetry.expect("traced run carries telemetry");
        let a = &traced.aggregate;
        assert!(a.evicted_pkts > 0, "overload must push out");
        // The drop taxonomy reconciles exactly with the loss counters.
        assert_eq!(tel.refused_pkts, a.dropped_pkts);
        assert_eq!(tel.evicted_pkts, a.evicted_pkts);
        let rows: u64 = tel.taxonomy.iter().map(|r| r.bucket.count).sum();
        assert_eq!(rows, a.dropped_pkts + a.evicted_pkts);
        assert_eq!(tel.counts.deliveries, a.delivered_pkts);
        // The final qm.* metrics are the summed shard counters.
        let s = engine.stats();
        for (name, v) in [
            ("qm.enqueues", s.enqueues),
            ("qm.dequeues", s.dequeues),
            ("qm.pkt_deletes", s.pkt_deletes),
            ("qm.bytes_in", s.bytes_in),
            ("qm.bytes_out", s.bytes_out),
            ("qm.errors", s.errors),
        ] {
            assert_eq!(tel.final_metrics.counter_value(name), Some(v), "{name}");
        }
    }

    #[test]
    fn global_lqd_beats_shard_local_admission_under_skew() {
        // The motivating comparison: under the Zipf bursty overload, a
        // shared buffer with global LQD push-out delivers at least as
        // many bytes as shard-local Choudhury–Hahne thresholds over the
        // same aggregate buffer — the bursting flows can use buffer that
        // idle partitions would otherwise strand. Both runs are pure
        // functions of the seed, so this is a deterministic comparison.
        let cfg = PipelineConfig::bursty_overload(42);
        let local = PipelineBuilder::new(&cfg).shards(4).run();
        let global = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert!(
            global.aggregate.delivered_bytes >= local.aggregate.delivered_bytes,
            "global LQD {} < shard-local C-H {}",
            global.aggregate.delivered_bytes,
            local.aggregate.delivered_bytes
        );
    }

    fn timed(cfg: &PipelineConfig, timing: TimingConfig) -> PipelineReport {
        PipelineBuilder::new(cfg)
            .timing_paper(timing)
            .run()
            .aggregate
    }

    #[test]
    fn timed_pipeline_conserves_and_never_tears() {
        let cfg = PipelineConfig::bursty_overload(17);
        let r = timed(&cfg, TimingConfig::paper(8));
        assert!(r.offered_pkts > 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts
        );
        assert_eq!(r.integrity_violations, 0);
        assert!(r.delivered_pkts > 0);
        assert!(r.latency_ns.mean() > 0.0);
    }

    #[test]
    fn timed_pipeline_is_deterministic() {
        let cfg = PipelineConfig::bursty_overload(9);
        let a = timed(&cfg, TimingConfig::naive(4));
        let b = timed(&cfg, TimingConfig::naive(4));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn more_banks_serve_no_slower() {
        // The memory-derived egress is the bottleneck: with one DDR bank
        // every dequeue burst serializes on the 160 ns reuse gap, while
        // sixteen banks stripe it — the same offered trace must finish
        // no later and deliver no less.
        let cfg = PipelineConfig::bursty_overload(42);
        let one = timed(&cfg, TimingConfig::paper(1));
        let sixteen = timed(&cfg, TimingConfig::paper(16));
        assert!(
            sixteen.makespan <= one.makespan,
            "16 banks {} vs 1 bank {}",
            sixteen.makespan,
            one.makespan
        );
        assert!(sixteen.delivered_bytes >= one.delivered_bytes);
        assert!(
            sixteen.latency_ns.mean() <= one.latency_ns.mean(),
            "striping must not slow service"
        );
    }

    #[test]
    fn jumbo_frames_are_not_truncated() {
        let mut cfg = PipelineConfig::small_demo(13);
        cfg.sizes = SizeDistribution::Fixed(9000);
        cfg.qm = QmConfig::builder()
            .num_flows(4)
            .num_segments(1024)
            .segment_bytes(64)
            .build()
            .unwrap();
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_interval: Picos::from_nanos(8_000),
        };
        let r = lqd(&cfg)
            .egress(|_| DeficitRoundRobin::new(vec![9000; 4]))
            .run()
            .aggregate;
        assert!(r.offered_pkts > 0);
        assert_eq!(r.offered_bytes, r.offered_pkts * 9000);
        assert_eq!(r.delivered_bytes, r.delivered_pkts * 9000);
        assert_eq!(r.integrity_violations, 0);
    }

    #[test]
    fn offered_load_estimate_matches_measurement() {
        let cfg = PipelineConfig::bursty_overload(1);
        let r = lqd(&cfg).run().aggregate;
        let measured = r.offered_bytes as f64 * 8.0 / cfg.duration.as_nanos_f64();
        assert!(
            (measured / cfg.offered_gbps() - 1.0).abs() < 0.2,
            "measured {measured} vs predicted {}",
            cfg.offered_gbps()
        );
    }
}
