//! The batch workload's round loop, replayed from public calls only.
//!
//! `run_shard_scale` is one opaque call, so its layers cannot be timed
//! from outside it. This driver repeats its round loop step by step with
//! the same public pieces — `PacketStream`, `ShardedAdmission`,
//! `ShardedQueueManager::execute_batch(_parallel)`, `queue_len_segments`,
//! `verify`, `state_digest` and `fnv1a_fold` — and times each step. It
//! proves it ran the same program by reproducing the call's `fingerprint`.

use crate::probe::{now_ns, Recorder, Span};
use npqm_core::check::fnv1a_fold;
use npqm_core::policy::DropPolicy;
use npqm_core::shard::{ShardedAdmission, ShardedQueueManager};
use npqm_core::{Command, FlowId, Outcome, QmConfig};
use npqm_traffic::scale::ShardScaleConfig;
use npqm_traffic::service::PacketStream;
use npqm_traffic::{FlowMix, SizeDistribution};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Nanoseconds spent in each step of the replayed round loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTimes {
    /// Drawing arrivals and filling their payloads.
    pub draw: u64,
    /// `offer_batch(_parallel)` calls.
    pub offer_batch: u64,
    /// Sizing each round's drain from `queue_len_segments`.
    pub drain_plan: u64,
    /// `execute_batch(_parallel)` calls.
    pub execute_batch: u64,
    /// Admission-ledger and reassembly bookkeeping.
    pub ledger: u64,
    /// The closing `verify` and digest.
    pub snapshot: u64,
    /// The whole replay.
    pub wall: u64,
}

/// Outcome of one replay: the call's deterministic results plus the
/// engine's own timing counters and the step times.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Engine digest folded with the residual ledger, as
    /// `ShardScaleRow::fingerprint`.
    pub fingerprint: u64,
    /// Packets offered.
    pub offered: u64,
    /// Packets admitted.
    pub admitted: u64,
    /// Packets refused.
    pub dropped: u64,
    /// Whole frames drained.
    pub delivered: u64,
    /// Payload bytes drained.
    pub drained_bytes: u64,
    /// Frames drained torn or cross-linked.
    pub torn: u64,
    /// Whether packets and bytes closed exactly.
    pub conserved: bool,
    /// Whether the engine's invariant walk passed.
    pub verify_ok: bool,
    /// Segments enqueued plus dequeued, from the engine's counters.
    pub segments: u64,
    /// Pointer-memory accesses, from the engine's counters.
    pub ptr_accesses: u64,
    /// Sum of per-shard busy time.
    pub serial_busy: Duration,
    /// Busiest shard's busy time.
    pub critical: Duration,
    /// Step times.
    pub times: ReplayTimes,
}

/// Replays `run_shard_scale(cfg, shards, threads)` with the per-shard
/// admission `mk_policy` builds (the call itself uses
/// `DynamicThreshold::new(cfg.alpha)`). When `rec` is given, each step is
/// also kept as a raw span whose parent is the round.
///
/// # Panics
///
/// Panics on the same invalid configurations as `run_shard_scale`.
pub fn replay_shard_scale<P: DropPolicy + Send>(
    cfg: &ShardScaleConfig,
    shards: usize,
    threads: usize,
    mk_policy: impl FnMut(usize) -> P,
    rec: Option<(&Arc<Recorder>, &mut Vec<Span>)>,
) -> Replay {
    let wall0 = now_ns();
    let qm_cfg = QmConfig::builder()
        .num_flows(cfg.flows)
        .num_segments(cfg.total_segments)
        .segment_bytes(cfg.segment_bytes)
        .build()
        .expect("scale configuration must be valid");
    let mut engine =
        ShardedQueueManager::partitioned(qm_cfg, shards).expect("per-shard buffer is non-empty");
    let mut adm = ShardedAdmission::from_fn(shards, mk_policy);
    let mix = FlowMix::zipf(cfg.flows, cfg.zipf_exponent);
    let sizes = SizeDistribution::Imix;
    let mut stream = PacketStream::new(&mix, &sizes, cfg.seed);

    let mut t = ReplayTimes::default();
    let (mut offered, mut admitted, mut dropped, mut delivered) = (0u64, 0u64, 0u64, 0u64);
    let (mut admitted_bytes, mut drained_bytes, mut torn) = (0u64, 0u64, 0u64);
    let mut ledger: Vec<VecDeque<(u32, u8)>> = (0..cfg.flows).map(|_| VecDeque::new()).collect();
    // Per flow: (mid-frame, bytes so far, marker of the frame's head).
    let mut reasm: Vec<(bool, u64, u8)> = vec![(false, 0, 0); cfg.flows as usize];
    let (rec, mut spans) = match rec {
        Some((r, s)) => (Some(r), Some(s)),
        None => (None, None),
    };
    let mut step = |layer: &'static str, round: u64, t0: u64, acc: &mut u64| -> u64 {
        let t1 = now_ns();
        *acc += t1 - t0;
        if let Some(s) = spans.as_deref_mut() {
            s.push(Span {
                layer,
                lane: u32::MAX,
                start_ns: t0,
                dur_ns: t1 - t0,
                parent: round,
            });
        }
        t1
    };

    for round in 0..u64::from(cfg.rounds) {
        if let Some(r) = rec {
            for lane in 0..shards {
                r.set_parent(lane, round);
            }
        }
        let t0 = now_ns();
        let owned: Vec<(FlowId, Vec<u8>)> = (0..cfg.packets_per_round)
            .map(|_| {
                let (flow, size, marker) = stream.next_packet();
                let mut data = vec![0xC3u8; size as usize];
                data[0] = marker;
                (flow, data)
            })
            .collect();
        let arrivals: Vec<(FlowId, &[u8])> =
            owned.iter().map(|(f, d)| (*f, d.as_slice())).collect();
        let t0 = step("draw", round, t0, &mut t.draw);
        let results = if threads == 1 {
            adm.offer_batch(&mut engine, &arrivals)
        } else {
            adm.offer_batch_parallel(&mut engine, &arrivals, threads)
        };
        let t0 = step("shard.offer_batch", round, t0, &mut t.offer_batch);
        for ((flow, data), r) in owned.iter().zip(&results) {
            offered += 1;
            if r.is_ok() {
                admitted += 1;
                admitted_bytes += data.len() as u64;
                ledger[flow.as_usize()].push_back((data.len() as u32, data[0]));
            } else {
                dropped += 1;
            }
        }
        let t0 = step("scale.ledger", round, t0, &mut t.ledger);

        let queued: u64 = (0..engine.num_shards())
            .map(|s| {
                let qm = engine.shard(s);
                (0..cfg.flows)
                    .map(|f| u64::from(qm.queue_len_segments(FlowId::new(f))))
                    .sum::<u64>()
            })
            .sum();
        let passes =
            ((queued as f64 * cfg.drain_fraction / f64::from(cfg.flows)).ceil() as u64).max(1);
        let drain: Vec<Command> = (0..passes)
            .flat_map(|_| {
                (0..cfg.flows).map(|f| Command::Dequeue {
                    flow: FlowId::new(f),
                })
            })
            .collect();
        let t0 = step("scale.drain_plan", round, t0, &mut t.drain_plan);
        let served = if threads == 1 {
            engine.execute_batch(&drain)
        } else {
            engine.execute_batch_parallel(&drain, threads)
        };
        let t0 = step("shard.execute_batch", round, t0, &mut t.execute_batch);
        for (cmd, r) in drain.iter().zip(&served) {
            let Ok(Outcome::Segment(seg)) = r else {
                continue;
            };
            drained_bytes += seg.data.len() as u64;
            let f = cmd.primary_flow().as_usize();
            let ra = &mut reasm[f];
            if seg.sop {
                torn += u64::from(ra.0);
                *ra = (true, 0, seg.data[0]);
            }
            ra.1 += seg.data.len() as u64;
            if seg.eop {
                ra.0 = false;
                delivered += 1;
                match ledger[f].pop_front() {
                    Some((len, marker)) if u64::from(len) == ra.1 && marker == ra.2 => {}
                    _ => torn += 1,
                }
            }
        }
        step("scale.ledger", round, t0, &mut t.ledger);
    }

    let t0 = now_ns();
    let verified = engine.verify();
    let mut fingerprint = engine.state_digest();
    for (f, slots) in ledger.iter().enumerate() {
        for &(len, marker) in slots {
            fingerprint = fnv1a_fold(fingerprint, f as u64);
            fingerprint = fnv1a_fold(fingerprint, u64::from(len));
            fingerprint = fnv1a_fold(fingerprint, u64::from(marker));
        }
    }
    step("snapshot", u64::from(cfg.rounds), t0, &mut t.snapshot);
    t.wall = now_ns() - wall0;

    let residual_pkts: u64 = ledger.iter().map(|l| l.len() as u64).sum();
    let residual_bytes = verified.as_ref().map_or(0, |r| r.payload_bytes);
    let in_flight_ok = reasm
        .iter()
        .zip(&ledger)
        .all(|(r, l)| !r.0 || !l.is_empty());
    let stats = engine.stats();
    Replay {
        fingerprint,
        offered,
        admitted,
        dropped,
        delivered,
        drained_bytes,
        torn,
        conserved: admitted == delivered + residual_pkts
            && admitted_bytes == drained_bytes + residual_bytes
            && in_flight_ok,
        verify_ok: verified.is_ok(),
        segments: stats.enqueues + stats.dequeues,
        ptr_accesses: engine.ptr_counters().total(),
        serial_busy: engine.serial_time(),
        critical: engine.critical_path(),
        times: t,
    }
}
