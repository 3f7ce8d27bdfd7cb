//! One entry point for every closed-loop pipeline shape.
//!
//! [`PipelineBuilder`] picks the shard count, threading, admission
//! flavour, timing model and egress discipline independently, then
//! [`run`](PipelineBuilder::run)s. Every combination returns the same
//! [`ShardedPipelineReport`] (a dense run is simply one shard), so
//! downstream reporting code is shape-agnostic.
//!
//! Every shape runs the same finite-trace event loop: the builder only
//! chooses its arrival source (drawn lazily, or one pregenerated trace
//! walked per shard), its admission (shard-local or global) and how many
//! egress servers drain it. `parallel(true)` is byte-identical to serial
//! at any thread count.

use crate::pipeline::{run_global, run_local, PipelineConfig, ShardedPipelineReport};
use npqm_core::policy::{DropPolicy, DynamicThreshold};
use npqm_core::sched::{from_spec, FlowScheduler, HtbScheduler};
use npqm_core::shard::parallel::GlobalLqd;
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::TelemetryConfig;
use npqm_core::timing::TimingConfig;
use npqm_core::FlowId;

type PolicyFactory = Box<dyn FnMut(usize) -> Box<dyn DropPolicy + Send>>;
type SchedFactory = Box<dyn FnMut(usize) -> Box<dyn FlowScheduler + Send>>;

enum AdmissionSel {
    Local(PolicyFactory),
    GlobalLqd { reserve_segments: u32 },
}

enum TimingSel {
    Uncosted,
    Paper(TimingConfig),
}

enum EgressSel {
    Spec(String),
    Factory(SchedFactory),
    Htb(Box<HtbScheduler>),
}

/// Builds and runs one closed-loop pipeline; see the [module docs](self).
///
/// Defaults: one shard, serial, shard-local
/// [`DynamicThreshold`]`(2.0)` admission, uncosted (line-rate) egress
/// timing, flat per-flow DRR egress with a 1518-byte quantum.
///
/// # Example
///
/// ```
/// use npqm_core::policy::LongestQueueDrop;
/// use npqm_traffic::{PipelineBuilder, PipelineConfig};
///
/// let cfg = PipelineConfig::small_demo(7);
/// let r = PipelineBuilder::new(&cfg)
///     .shards(2)
///     .parallel(true) // byte-identical to serial
///     .admission(|_| LongestQueueDrop::new(0))
///     .egress_spec("wrr:4,2,1,1")
///     .run();
/// assert_eq!(r.aggregate.integrity_violations, 0);
/// assert_eq!(
///     r.aggregate.offered_pkts,
///     r.aggregate.delivered_pkts + r.aggregate.dropped_pkts + r.aggregate.evicted_pkts
/// );
/// ```
///
/// A hierarchical (HTB) egress drops in the same way — build a class
/// tree and hand it to [`egress_htb`](PipelineBuilder::egress_htb), or
/// describe it inline:
///
/// ```
/// use npqm_traffic::{PipelineBuilder, PipelineConfig};
///
/// let cfg = PipelineConfig::small_demo(7);
/// let r = PipelineBuilder::new(&cfg)
///     .egress_spec("htb:cap=1000;root,rate=1000;t,parent=root,rate=250,ceil=1000,flows=0-3")
///     .run();
/// assert_eq!(r.aggregate.integrity_violations, 0);
/// ```
pub struct PipelineBuilder {
    cfg: PipelineConfig,
    shards: usize,
    parallel: bool,
    admission: AdmissionSel,
    timing: TimingSel,
    egress: EgressSel,
}

impl PipelineBuilder {
    /// Starts a builder over `cfg` with the default shape (see the type
    /// docs).
    pub fn new(cfg: &PipelineConfig) -> Self {
        PipelineBuilder {
            cfg: cfg.clone(),
            shards: 1,
            parallel: false,
            admission: AdmissionSel::Local(Box::new(|_| Box::new(DynamicThreshold::new(2.0)))),
            timing: TimingSel::Uncosted,
            egress: EgressSel::Spec("drr:1518".to_string()),
        }
    }

    /// Number of engine shards (1 = the dense pipeline).
    ///
    /// Arrivals are routed to their flow's home shard (see
    /// [`ShardedQueueManager::shard_of`]), and each shard drains through
    /// its own scheduler and egress server at `cfg.egress_gbps / n`. The
    /// *aggregate* line capacity equals the dense pipeline's, but it is
    /// statically partitioned, exactly like per-engine line cards: a
    /// shard whose egress idles (e.g. the hash homed no flow of a small
    /// mix on it) cannot lend its capacity to a loaded shard, so sharded
    /// goodput can trail the dense pipeline's under skew — the per-shard
    /// reports make that partitioning penalty visible. Under shard-local
    /// admission each shard manages `1/n` of the buffer and keeps its own
    /// per-packet ledger, so torn frames are caught exactly as on one
    /// shard. Arrivals stop at `cfg.duration` and every shard then
    /// drains, so per shard and in aggregate
    /// `offered == delivered + dropped + evicted` at return.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        self.shards = n;
        self
    }

    /// Runs each shard's loop on its own worker thread.
    ///
    /// Shard-local admission couples nothing across shards, so a sharded
    /// run factorizes into one self-contained loop per shard over the
    /// shared offered trace. **Parallel and serial runs produce
    /// byte-identical reports** — same loops, same inputs, merged in
    /// shard order — which the CI `parallel-determinism` stage diffs end
    /// to end. Ignored at one shard and under
    /// [global admission](Self::admission_global_lqd), whose coupled
    /// loop is inherently serial.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Shard-local admission: `mk_policy(shard)` builds each shard's
    /// [`DropPolicy`].
    #[must_use]
    pub fn admission<P, F>(mut self, mut mk_policy: F) -> Self
    where
        P: DropPolicy + Send + 'static,
        F: FnMut(usize) -> P + 'static,
    {
        self.admission = AdmissionSel::Local(Box::new(move |shard| Box::new(mk_policy(shard))));
        self
    }

    /// Enables the deterministic telemetry layer
    /// ([`npqm_core::telemetry`]): the run records virtual-time trace
    /// events, a drop-attribution ledger and a metrics registry into
    /// the report's `telemetry` field. Behaviour-neutral — the traced
    /// run's reports and digests are byte-identical to an untraced one.
    #[must_use]
    pub fn observe(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = Some(telemetry);
        self
    }

    /// Global shared-buffer admission: one [`GlobalLqd`] budget over all
    /// shards, emulating the paper's shared data memory across
    /// partitioned engines. The engine is built in the shared-buffer
    /// pairing ([`ShardedQueueManager::new`], each shard able to hold
    /// the full buffer) and the budget is `cfg.qm.num_segments()` — the
    /// *same* aggregate buffer the dense and shard-local sharded runs
    /// manage, so the three are directly comparable. Egress stays
    /// statically partitioned exactly as under [`shards`](Self::shards):
    /// only the buffer is shared.
    ///
    /// An arrival on one shard may push out the globally longest queue
    /// on *another*, so the shards are coupled and run as one
    /// interleaved loop on the calling thread regardless of
    /// [`parallel`](Self::parallel) (the run is still a pure function of
    /// the configuration). Push-out victims are charged to their own
    /// home shard's report.
    #[must_use]
    pub fn admission_global_lqd(mut self, reserve_segments: u32) -> Self {
        self.admission = AdmissionSel::GlobalLqd { reserve_segments };
        self
    }

    /// Memory-derived egress timing: each packet's service time is the
    /// modeled ZBT/DDR cost of its dequeue access stream under `timing`
    /// (see [`npqm_core::timing`]); `cfg.egress_gbps` is ignored.
    /// Requires one shard and shard-local admission.
    #[must_use]
    pub fn timing_paper(mut self, timing: TimingConfig) -> Self {
        self.timing = TimingSel::Paper(timing);
        self
    }

    /// Egress discipline from a [`from_spec`] string (`"drr"`, `"sp"`,
    /// `"wrr:4,2,1"`, `"htb:..."`), validated against the flow count
    /// immediately; each shard gets an independent instance.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not parse for this config's flow count.
    #[must_use]
    pub fn egress_spec(mut self, spec: &str) -> Self {
        let flows = self.cfg.mix.flows();
        if let Err(e) = from_spec(spec, flows) {
            panic!("egress_spec: {e}");
        }
        self.egress = EgressSel::Spec(spec.to_string());
        self
    }

    /// Egress discipline from a factory: `mk_sched(shard)` builds each
    /// shard's [`FlowScheduler`].
    #[must_use]
    pub fn egress<S, F>(mut self, mut mk_sched: F) -> Self
    where
        S: FlowScheduler + Send + 'static,
        F: FnMut(usize) -> S + 'static,
    {
        self.egress = EgressSel::Factory(Box::new(move |shard| Box::new(mk_sched(shard))));
        self
    }

    /// Hierarchical (HTB) egress: each shard drains through an
    /// independent clone of `tree` (fresh ledgers, same classes).
    ///
    /// # Panics
    ///
    /// Panics unless the leaves cover every flow the mix can draw:
    /// packets on an uncovered flow could never be scheduled.
    #[must_use]
    pub fn egress_htb(mut self, tree: HtbScheduler) -> Self {
        if let Some(f) = (0..self.cfg.mix.flows()).find(|&f| !tree.covers(FlowId::new(f))) {
            panic!("egress_htb: flow {f} has no leaf and could never be scheduled");
        }
        self.egress = EgressSel::Htb(Box::new(tree));
        self
    }

    /// Runs the configured pipeline.
    ///
    /// # Panics
    ///
    /// Panics on invalid combinations (paper timing with more than one
    /// shard or with global admission) and on the underlying loops'
    /// invalid-config conditions (non-positive egress rate, flow mix
    /// outside the engine's flow table, empty per-shard buffer).
    pub fn run(self) -> ShardedPipelineReport {
        let cfg = &self.cfg;
        let flows = cfg.mix.flows();
        assert!(
            flows <= cfg.qm.num_flows(),
            "flow mix draws flows outside the engine's flow table"
        );
        let n = self.shards;
        let timing = match self.timing {
            TimingSel::Paper(timing) => {
                assert_eq!(
                    n, 1,
                    "memory-derived timing models one engine's channel; use shards(1)"
                );
                Some(timing)
            }
            TimingSel::Uncosted => {
                assert!(cfg.egress_gbps > 0.0, "egress rate must be positive");
                None
            }
        };
        let mut mk_sched: SchedFactory = match self.egress {
            EgressSel::Spec(spec) => Box::new(move |_| {
                from_spec(&spec, flows).expect("spec was validated in egress_spec")
            }),
            EgressSel::Factory(f) => f,
            EgressSel::Htb(tree) => Box::new(move |_| Box::new((*tree).clone())),
        };
        let mut scheds: Vec<_> = (0..n).map(&mut mk_sched).collect();
        match self.admission {
            AdmissionSel::Local(mut mk_policy) => {
                let mut engine = ShardedQueueManager::partitioned(cfg.qm, n)
                    .expect("per-shard buffer must be non-empty");
                let mut policies: Vec<_> = (0..n).map(&mut mk_policy).collect();
                run_local(
                    cfg,
                    &mut engine,
                    self.parallel,
                    &mut policies,
                    &mut scheds,
                    timing,
                )
            }
            AdmissionSel::GlobalLqd { reserve_segments } => {
                assert!(
                    timing.is_none(),
                    "memory-derived timing supports shard-local admission only"
                );
                let mut engine = ShardedQueueManager::new(cfg.qm, n);
                let mut policy = GlobalLqd::new(cfg.qm.num_segments(), reserve_segments);
                run_global(cfg, &mut engine, &mut policy, &mut scheds)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npqm_core::policy::LongestQueueDrop;
    use npqm_core::sched::{HtbClass, HtbTreeBuilder};

    #[test]
    fn paper_timing_runs_and_reconciles() {
        let cfg = PipelineConfig::small_demo(9);
        let r = PipelineBuilder::new(&cfg)
            .admission(|_| LongestQueueDrop::new(0))
            .timing_paper(TimingConfig::paper(8))
            .run();
        let a = &r.aggregate;
        assert_eq!(a.integrity_violations, 0);
        assert_eq!(
            a.offered_pkts,
            a.delivered_pkts + a.dropped_pkts + a.evicted_pkts
        );
    }

    #[test]
    #[should_panic(expected = "egress_spec")]
    fn bad_spec_fails_fast_at_build_time() {
        let cfg = PipelineConfig::small_demo(1);
        let _ = PipelineBuilder::new(&cfg).egress_spec("wrr:9,9");
    }

    #[test]
    #[should_panic(expected = "egress_htb: flow 3 has no leaf")]
    fn htb_tree_leaving_a_flow_uncovered_fails_fast_at_build_time() {
        // Leaves for flows 0-2 of small_demo's 4: flow 3 would strand.
        let tree = HtbTreeBuilder::new(1000)
            .class("root", None, HtbClass::rate(1000))
            .leaves(Some("root"), 0..3, HtbClass::rate(300).ceil(1000))
            .build()
            .expect("a valid tree");
        let _ = PipelineBuilder::new(&PipelineConfig::small_demo(7)).egress_htb(tree);
    }

    #[test]
    #[should_panic(expected = "shard-local admission")]
    fn paper_timing_rejects_global_admission() {
        let cfg = PipelineConfig::small_demo(1);
        let _ = PipelineBuilder::new(&cfg)
            .admission_global_lqd(0)
            .timing_paper(TimingConfig::paper(8))
            .run();
    }
}
