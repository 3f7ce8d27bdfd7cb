//! Timing probes placed around calls into the library's public layers.
//!
//! Nothing here reaches inside the library: a probe times a call from the
//! outside, counts what the call returned and reads the engine's public
//! work counters before and after it. [`TimedPolicy`] and [`TimedSched`]
//! implement the library's own `DropPolicy` and `FlowScheduler` traits by
//! delegating to the real policy or scheduler, so they slot into the same
//! factories an untraced run uses and leave every decision unchanged.

use npqm_core::policy::{Admission, DropPolicy, Refusal};
use npqm_core::sched::FlowScheduler;
use npqm_core::{FlowId, QueueManager};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span of a run is stamped with.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sub-buckets per power of two (16 → at most ~6% relative error).
const SUB_BITS: u32 = 4;

/// A log-linear histogram of nanosecond durations: fixed memory however
/// many calls are recorded, so every call of a multi-million-packet run
/// can be kept.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; 64 << SUB_BITS],
            total: 0,
        }
    }
}

impl LogHistogram {
    fn index(v: u64) -> usize {
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let m = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((e - SUB_BITS + 1) << SUB_BITS) as u64 + m) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        if i < 1 << SUB_BITS {
            return i as u64;
        }
        let g = (i >> SUB_BITS) as u32;
        let m = (i & ((1 << SUB_BITS) - 1)) as u64;
        let lower = ((1 << SUB_BITS) + m) << (g - 1);
        lower + (1u64 << (g - 1)) / 2
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile (bucket midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank never exceeds the sample total")
    }
}

/// What the calls through one probe did, summed.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
    /// Per-call durations.
    pub hist: LogHistogram,
    /// Useful outcomes: packets admitted, or flows picked.
    pub hits: u64,
    /// Queued packets the calls pushed out.
    pub evicted: u64,
    /// Pointer-memory accesses made during the calls.
    pub ptr: u64,
}

impl LayerStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &LayerStats) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.hist.merge(&other.hist);
        self.hits += other.hits;
        self.evicted += other.evicted;
        self.ptr += other.ptr;
    }

    /// Seconds spent inside the calls.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// One recorded span: a layer call (or an epoch, round or batch call)
/// with the epoch or round it ran in as its parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, as in the per-layer metrics.
    pub layer: &'static str,
    /// Shard the call ran on (`u32::MAX` for driver-level spans).
    pub lane: u32,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Epoch or round index the span belongs to.
    pub parent: u64,
}

/// Engine work counters of one shard, as last observed by a probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSeen {
    /// [`now_ns`] of the observation.
    pub at_ns: u64,
    /// Segments enqueued plus segments dequeued.
    pub segments: u64,
    /// Pointer-memory accesses.
    pub ptr: u64,
}

impl EngineSeen {
    fn of(qm: &QueueManager) -> Self {
        let s = qm.stats();
        EngineSeen {
            at_ns: now_ns(),
            segments: s.enqueues + s.dequeues,
            ptr: qm.ptr_counters().total(),
        }
    }
}

#[derive(Debug, Default)]
struct ProbeState {
    layer: &'static str,
    lane: u32,
    stats: LayerStats,
    spans: Vec<Span>,
    seen: EngineSeen,
}

/// State shared by every probe of one run: the parent index of each
/// lane, the end of the most recent layer span (the start of the gap a
/// window-close callback measures), and the registry of probes.
#[derive(Debug)]
pub struct Recorder {
    parents: Vec<AtomicU64>,
    last_end_ns: AtomicU64,
    span_cap: usize,
    probes: Mutex<Vec<Arc<Mutex<ProbeState>>>>,
}

impl Recorder {
    /// A recorder for `lanes` shards keeping at most `span_cap` raw spans
    /// per probe (aggregates are kept for every call).
    pub fn new(lanes: usize, span_cap: usize) -> Arc<Self> {
        Arc::new(Recorder {
            parents: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            last_end_ns: AtomicU64::new(now_ns()),
            span_cap,
            probes: Mutex::new(Vec::new()),
        })
    }

    /// Sets the parent (epoch or round) of later spans on `lane`.
    pub fn set_parent(&self, lane: usize, parent: u64) {
        self.parents[lane].store(parent, Ordering::Relaxed);
    }

    /// End of the most recent layer span, in [`now_ns`] time.
    pub fn last_end_ns(&self) -> u64 {
        self.last_end_ns.load(Ordering::Relaxed)
    }

    /// Moves the "most recent span end" mark to `at_ns`.
    pub fn mark(&self, at_ns: u64) {
        self.last_end_ns.store(at_ns, Ordering::Relaxed);
    }

    fn probe(self: &Arc<Self>, layer: &'static str, lane: usize) -> Probe {
        let state = Arc::new(Mutex::new(ProbeState {
            layer,
            lane: lane as u32,
            ..ProbeState::default()
        }));
        self.probes
            .lock()
            .expect("a probe holder panicked")
            .push(Arc::clone(&state));
        Probe {
            rec: Arc::clone(self),
            lane,
            state,
        }
    }

    /// Wraps `inner` so its `offer` calls are timed on `lane`.
    pub fn policy<P: DropPolicy>(self: &Arc<Self>, lane: usize, inner: P) -> TimedPolicy<P> {
        TimedPolicy {
            inner,
            probe: self.probe("admit", lane),
        }
    }

    /// Wraps `inner` so its `next_flow` calls are timed on `lane`.
    pub fn sched<S: FlowScheduler>(self: &Arc<Self>, lane: usize, inner: S) -> TimedSched<S> {
        TimedSched {
            inner,
            probe: self.probe("sched", lane),
        }
    }

    /// The summed statistics of every probe of `layer`.
    pub fn layer(&self, layer: &str) -> LayerStats {
        let mut out = LayerStats::default();
        for p in self.probes.lock().expect("a probe holder panicked").iter() {
            let p = p.lock().expect("a probe holder panicked");
            if p.layer == layer {
                out.merge(&p.stats);
            }
        }
        out
    }

    /// Final engine counters summed over shards: for each lane, the most
    /// recent observation of any probe on it. The last call on a shard
    /// is the scheduler finding every queue empty, so this is the
    /// engine's state after the drain.
    pub fn engine(&self) -> EngineSeen {
        let mut per_lane: Vec<EngineSeen> = vec![EngineSeen::default(); self.parents.len()];
        for p in self.probes.lock().expect("a probe holder panicked").iter() {
            let p = p.lock().expect("a probe holder panicked");
            let slot = &mut per_lane[p.lane as usize];
            if p.seen.at_ns >= slot.at_ns {
                *slot = p.seen;
            }
        }
        per_lane
            .iter()
            .fold(EngineSeen::default(), |a, s| EngineSeen {
                at_ns: a.at_ns.max(s.at_ns),
                segments: a.segments + s.segments,
                ptr: a.ptr + s.ptr,
            })
    }

    /// Every raw span the probes kept.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for p in self.probes.lock().expect("a probe holder panicked").iter() {
            out.extend_from_slice(&p.lock().expect("a probe holder panicked").spans);
        }
        out
    }
}

/// One probe: a lane of one layer.
#[derive(Debug)]
struct Probe {
    rec: Arc<Recorder>,
    lane: usize,
    state: Arc<Mutex<ProbeState>>,
}

impl Probe {
    fn record(&self, t0: u64, t1: u64, seen: EngineSeen, f: impl FnOnce(&mut LayerStats)) {
        let dur = t1 - t0;
        let parent = self.rec.parents[self.lane].load(Ordering::Relaxed);
        let mut st = self.state.lock().expect("a probe holder panicked");
        st.stats.calls += 1;
        st.stats.ns += dur;
        st.stats.hist.record(dur);
        f(&mut st.stats);
        st.seen = seen;
        if st.spans.len() < self.rec.span_cap {
            let layer = st.layer;
            st.spans.push(Span {
                layer,
                lane: self.lane as u32,
                start_ns: t0,
                dur_ns: dur,
                parent,
            });
        }
        drop(st);
        self.rec.mark(t1);
    }
}

/// A [`DropPolicy`] that times each `offer` of the policy it wraps.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    probe: Probe,
}

impl<P: DropPolicy> TimedPolicy<P> {
    fn timed(
        &mut self,
        qm: &mut QueueManager,
        call: impl FnOnce(&mut P, &mut QueueManager) -> Result<Admission, Refusal>,
    ) -> Result<Admission, Refusal> {
        let ptr0 = qm.ptr_counters().total();
        let t0 = now_ns();
        let r = call(&mut self.inner, qm);
        let t1 = now_ns();
        let seen = EngineSeen::of(qm);
        let (hit, evicted) = match &r {
            Ok(a) => (1, a.evicted.len() as u64),
            Err(refusal) => (0, refusal.evicted.len() as u64),
        };
        self.probe.record(t0, t1, seen, |s| {
            s.hits += hit;
            s.evicted += evicted;
            s.ptr += seen.ptr - ptr0;
        });
        r
    }
}

impl<P: DropPolicy> DropPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        self.timed(qm, |p, qm| p.offer(qm, flow, packet))
    }

    fn offer_work(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
        work: u32,
    ) -> Result<Admission, Refusal> {
        self.timed(qm, |p, qm| p.offer_work(qm, flow, packet, work))
    }
}

/// A [`FlowScheduler`] that times each `next_flow` of the scheduler it
/// wraps (`served` is bookkeeping and is passed straight through).
#[derive(Debug)]
pub struct TimedSched<S> {
    inner: S,
    probe: Probe,
}

impl<S: FlowScheduler> FlowScheduler for TimedSched<S> {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        let ptr0 = qm.ptr_counters().total();
        let t0 = now_ns();
        let pick = self.inner.next_flow(qm);
        let t1 = now_ns();
        let seen = EngineSeen::of(qm);
        self.probe.record(t0, t1, seen, |s| {
            s.hits += u64::from(pick.is_some());
            s.ptr += seen.ptr - ptr0;
        });
        pick
    }

    fn served(&mut self, flow: FlowId, bytes: usize) {
        self.inner.served(flow, bytes);
    }
}

/// Cost of one empty span (two clock reads and a histogram record), in
/// nanoseconds: the floor under every per-call figure.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut hist = LogHistogram::default();
    let start = now_ns();
    for _ in 0..N {
        let t0 = now_ns();
        let t1 = now_ns();
        hist.record(std::hint::black_box(t1 - t0));
    }
    (now_ns() - start) as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_contiguous_and_ordered() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let i = LogHistogram::index(v);
            assert!(i == last || i == last + 1, "gap at {v}");
            last = i;
        }
        for i in 1..900 {
            assert!(LogHistogram::value(i) > LogHistogram::value(i - 1));
        }
    }

    #[test]
    fn histogram_quantiles_are_within_one_bucket() {
        let mut h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.07, "p50 {p50}");
        assert!((p99 / 99_000.0 - 1.0).abs() < 0.07, "p99 {p99}");
        assert_eq!(LogHistogram::default().quantile(0.5), 0);
    }
}
