//! The group runner behind every sharded batch, and the global
//! Longest-Queue-Drop policy over all shards.
//!
//! The sharded engine's shards share no state, so a batch's per-shard
//! groups can run on different OS threads. This module holds the one
//! place where per-shard batch work runs, plus the policy that sees all
//! engines at once:
//!
//! * **The group runner** behind
//!   [`execute_batch`](ShardedQueueManager::execute_batch),
//!   [`execute_batch_parallel`](ShardedQueueManager::execute_batch_parallel),
//!   [`offer_batch`](ShardedAdmission::offer_batch) and
//!   [`offer_batch_parallel`](ShardedAdmission::offer_batch_parallel).
//!   Each non-empty per-shard group of a phase runs in input order on its
//!   own shard, and its wall clock is added to that shard's busy time.
//!   With one worker (one thread, or one non-empty group) the groups run
//!   inline in shard order and each result goes straight into its slot.
//!   Otherwise they are sorted longest-first and handed to
//!   `std::thread::scope` workers through a shared queue: a worker that
//!   drains its group claims the next whole group off the backlog, so a
//!   pathologically loaded shard never leaves the other workers idle.
//!   Claims beyond a worker's first are counted as steals in
//!   [`ParallelStats`](crate::stats::ParallelStats).
//! * [`GlobalLqd`] — the shared-buffer Longest Queue Drop of Matsakis
//!   applied across *all* partitions: one global segment budget, and when
//!   an arrival does not fit, complete packets are pushed out of the
//!   longest queue anywhere in the system (never a mid-SAR or mid-service
//!   head) until it does. The victim is found by scanning each shard's
//!   occupancy heap at the moment of the decision. Shard-local policies
//!   can only make the hog pay when the hog happens to share their shard;
//!   the global policy always can.
//!
//! # Determinism contract
//!
//! For any fixed batch,
//! [`execute_batch_parallel`](ShardedQueueManager::execute_batch_parallel)
//! returns the same results vector, leaves every shard in the same state
//! (see [`ShardedQueueManager::state_digest`]) and accumulates the same
//! [`QmStats`](crate::QmStats) as running the commands one at a time
//! through [`execute`](ShardedQueueManager::execute), at **any** thread
//! count: commands of one shard always run in program order on exactly
//! one worker at a time, shards share no state, and a cross-shard command
//! runs alone after every group queued before it. Only the wall-clock
//! measurements (per-shard busy times) and the steal counter vary with
//! scheduling. The property tests in `tests/parallel_equivalence.rs` pin
//! this contract down, and CI diffs `table7`/`table8 --check --report`
//! documents across thread counts.
//!
//! # Example
//!
//! ```
//! use npqm_core::manager::SegmentPosition;
//! use npqm_core::shard::ShardedQueueManager;
//! use npqm_core::{Command, FlowId, QmConfig};
//!
//! let batch: Vec<Command> = (0..32)
//!     .map(|i| Command::Enqueue {
//!         flow: FlowId::new(i),
//!         data: vec![i as u8; 64],
//!         pos: SegmentPosition::Only,
//!     })
//!     .collect();
//! let mut parallel = ShardedQueueManager::new(QmConfig::small(), 4);
//! let mut serial = ShardedQueueManager::new(QmConfig::small(), 4);
//! let one_by_one: Vec<_> = batch.iter().map(|c| serial.execute(c.clone())).collect();
//! assert_eq!(parallel.execute_batch_parallel(&batch, 4), one_by_one);
//! assert_eq!(parallel.state_digest(), serial.state_digest());
//! ```

use super::{Route, ShardedAdmission, ShardedQueueManager};
use crate::command::{Command, Outcome};
use crate::error::QueueError;
use crate::id::FlowId;
use crate::limits::DropReason;
use crate::manager::QueueManager;
use crate::policy::{self, Admission, DropPolicy, PolicyStats, Refusal};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// One non-empty group handed to a worker: its shard, context, busy-time
/// slot and indices, plus the results it produces in index order.
struct Lane<'a, C, R> {
    qm: &'a mut QueueManager,
    ctx: &'a mut C,
    busy: &'a mut Duration,
    idxs: &'a [usize],
    out: Vec<R>,
}

/// Runs `group` in input order on `qm`, passing each index and its result
/// to `put`. The wall clock is added to `busy`, and the group closes one
/// trace span.
fn run_group<C, R>(
    qm: &mut QueueManager,
    ctx: &mut C,
    busy: &mut Duration,
    group: &[usize],
    op: &impl Fn(&mut QueueManager, &mut C, usize) -> R,
    mut put: impl FnMut(usize, R),
) {
    let t = Instant::now();
    for &i in group {
        put(i, op(qm, ctx, i));
    }
    *busy += t.elapsed();
    qm.commit_span();
}

/// Unwraps a results vector the runner has filled completely.
fn filled<R>(results: Vec<Option<R>>) -> Vec<R> {
    results
        .into_iter()
        .map(|r| r.expect("every index belongs to exactly one group"))
        .collect()
}

impl ShardedQueueManager {
    /// Runs one phase: each non-empty `groups[s]` runs in input order on
    /// shard `s` with context `ctx[s]`, and `op` computes the result for
    /// each index into `results`. The groups are left empty.
    ///
    /// One worker (`threads` or the non-empty group count is 1) runs the
    /// groups inline in shard order and writes each result straight into
    /// its slot. More workers claim whole groups, longest first, from a
    /// shared queue; a claim beyond a worker's first counts as a steal.
    fn run_groups<C: Send, R: Send>(
        &mut self,
        ctx: &mut [C],
        groups: &mut [Vec<usize>],
        threads: usize,
        results: &mut [Option<R>],
        op: impl Fn(&mut QueueManager, &mut C, usize) -> R + Sync,
    ) {
        let nonempty = groups.iter().filter(|g| !g.is_empty()).count();
        if nonempty == 0 {
            return;
        }
        self.pstats.phases += 1;
        self.pstats.groups += nonempty as u64;
        let lanes = self
            .shards
            .iter_mut()
            .zip(ctx)
            .zip(&mut self.busy)
            .zip(&*groups)
            .filter(|(_, g)| !g.is_empty());
        let workers = threads.min(nonempty);
        if workers == 1 {
            for (((qm, c), busy), group) in lanes {
                run_group(qm, c, busy, group, &op, |i, r| results[i] = Some(r));
            }
        } else {
            let mut lanes: Vec<Lane<'_, C, R>> = lanes
                .map(|(((qm, ctx), busy), idxs)| Lane {
                    qm,
                    ctx,
                    busy,
                    idxs,
                    out: Vec::with_capacity(idxs.len()),
                })
                .collect();
            // Longest backlog first (ties toward the lower shard), so an
            // idle worker always claims the heaviest remaining group.
            lanes.sort_by_key(|l| Reverse(l.idxs.len()));
            let backlog = Mutex::new(lanes.iter_mut());
            let steals = AtomicU64::new(0);
            // Each claim holds the lock only to take the next lane.
            let claim = || {
                backlog
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .next()
            };
            thread::scope(|sc| {
                for _ in 0..workers {
                    sc.spawn(|| {
                        let mut claims = 0u64;
                        while let Some(lane) = claim() {
                            claims += 1;
                            let out = &mut lane.out;
                            run_group(lane.qm, lane.ctx, lane.busy, lane.idxs, &op, |_, r| {
                                out.push(r)
                            });
                        }
                        steals.fetch_add(claims.saturating_sub(1), Ordering::Relaxed);
                    });
                }
            });
            self.pstats.steals += steals.into_inner();
            for lane in lanes {
                for (&i, r) in lane.idxs.iter().zip(lane.out) {
                    results[i] = Some(r);
                }
            }
        }
        for g in groups {
            g.clear();
        }
    }

    /// Executes a batch with each shard's command groups running on their
    /// own worker threads, stealing whole groups across shards.
    ///
    /// Results come back in input order and are identical to executing
    /// the commands one at a time through
    /// [`execute`](ShardedQueueManager::execute), at any thread count
    /// (see the [module docs](self)). Commands queue up per shard; a
    /// cross-shard command first runs every pending group, then runs
    /// alone, timed against both engines it serializes.
    ///
    /// Each group's wall clock is charged to the owning shard's
    /// [busy time](ShardedQueueManager::busy_times), and the batch's shape
    /// (phases, groups) and steals land in
    /// [`parallel_stats`](ShardedQueueManager::parallel_stats).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn execute_batch_parallel(
        &mut self,
        cmds: &[Command],
        threads: usize,
    ) -> Vec<Result<Outcome, QueueError>> {
        assert!(threads > 0, "need at least one worker thread");
        let mut results = vec![None; cmds.len()];
        let mut groups = vec![Vec::new(); self.shards.len()];
        let mut units = vec![(); self.shards.len()];
        let op = |qm: &mut QueueManager, _: &mut (), i: usize| qm.execute(cmds[i].clone());
        self.pstats.parallel_batches += 1;
        for (i, cmd) in cmds.iter().enumerate() {
            match self.route(cmd) {
                Route::One(s) => groups[s].push(i),
                Route::Two(a, b) => {
                    self.run_groups(&mut units, &mut groups, threads, &mut results, op);
                    let t = Instant::now();
                    results[i] = Some(self.execute_cross_traced(cmd.clone(), a, b));
                    let d = t.elapsed();
                    self.busy[a] += d;
                    self.busy[b] += d;
                }
            }
        }
        self.run_groups(&mut units, &mut groups, threads, &mut results, op);
        filled(results)
    }
}

impl<P: DropPolicy + Send> ShardedAdmission<P> {
    /// Offers a batch of arrivals with each shard's group running on its
    /// own worker thread (the same group runner as
    /// [`ShardedQueueManager::execute_batch_parallel`]).
    ///
    /// Results are identical to calling
    /// [`offer`](ShardedAdmission::offer) one arrival at a time, at any
    /// thread count: within a shard the arrival order is preserved and
    /// policy `s` only ever touches engine `s`. Group wall-clock is
    /// charged to the shard's busy time; the batch's shape and steals
    /// land in the engine's
    /// [`parallel_stats`](ShardedQueueManager::parallel_stats).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or the engine's shard count differs
    /// from this admission's.
    pub fn offer_batch_parallel(
        &mut self,
        engine: &mut ShardedQueueManager,
        arrivals: &[(FlowId, &[u8])],
        threads: usize,
    ) -> Vec<Result<Admission, Refusal>> {
        assert!(threads > 0, "need at least one worker thread");
        assert_eq!(
            self.policies.len(),
            engine.num_shards(),
            "admission and engine shard counts differ"
        );
        let mut groups = vec![Vec::new(); engine.num_shards()];
        for (i, &(flow, _)) in arrivals.iter().enumerate() {
            groups[engine.shard_of(flow)].push(i);
        }
        let mut results = vec![None; arrivals.len()];
        engine.pstats.parallel_batches += 1;
        engine.run_groups(
            &mut self.policies,
            &mut groups,
            threads,
            &mut results,
            |qm, policy, i| {
                let (flow, data) = arrivals[i];
                policy.offer(qm, flow, data)
            },
        );
        filled(results)
    }
}

/// A buffer-management policy that sees the **whole sharded engine** —
/// every partition at once — instead of a single shard.
///
/// This is the cross-partition analogue of
/// [`DropPolicy`]: [`ShardedAdmission`] adapts any per-shard policy to
/// the interface (each arrival still only consults its home shard), while
/// [`GlobalLqd`] makes genuinely global decisions.
pub trait GlobalDropPolicy {
    /// A short stable name for reports ("global-lqd", ...).
    fn name(&self) -> &str;

    /// Offers one whole packet for admission on `flow`'s home shard,
    /// with eviction decisions drawn from the entire engine.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that applied; victims in
    /// [`Refusal::evicted`] / [`Admission::evicted`] may belong to *any*
    /// shard.
    fn offer_global(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal>;
}

impl<P: DropPolicy> GlobalDropPolicy for ShardedAdmission<P> {
    fn name(&self) -> &str {
        self.policies[0].name()
    }

    fn offer_global(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        self.offer(engine, flow, packet)
    }
}

/// Longest Queue Drop over **all** shards: one shared segment budget,
/// with push-out from the globally longest queue.
///
/// Shard-local policies ([`ShardedAdmission`]) express the
/// partitioned-buffer regime: each engine guards its own memory, and a
/// burst on one partition can drop traffic there while another partition
/// sits empty. `GlobalLqd` expresses the *shared-buffer* regime of the
/// paper's MMS (one data memory behind all engines) on top of the same
/// sharded engine: admission is bounded by a single global budget, and
/// when an arrival does not fit, complete packets are evicted from the
/// longest queue **anywhere in the system** — found by scanning each
/// shard's occupancy heap at the moment of the decision — until it does. Queues whose head is mid-SAR or mid-service are never
/// victims (the shard-local safety rules still hold).
///
/// # Pairing with the engine
///
/// The policy is meant for an engine built with
/// [`ShardedQueueManager::new`] where each shard is configured with the
/// *full* shared buffer and `budget_segments` equals that size: physical
/// space then never binds before the global budget, so this behaves
/// exactly like Matsakis' single shared-memory switch with flows
/// partitioned across engines. On a
/// [`partitioned`](ShardedQueueManager::partitioned) engine it still
/// works, but a full home partition can refuse an arrival that the
/// global budget would admit (reported as an engine refusal).
///
/// # Example
///
/// ```
/// use npqm_core::shard::parallel::{GlobalDropPolicy, GlobalLqd};
/// use npqm_core::shard::ShardedQueueManager;
/// use npqm_core::{FlowId, QmConfig};
///
/// let cfg = QmConfig::builder()
///     .num_flows(16)
///     .num_segments(4)
///     .segment_bytes(64)
///     .build()
///     .unwrap();
/// // Shared-buffer pairing: every shard can hold the whole budget.
/// let mut engine = ShardedQueueManager::new(cfg, 2);
/// let mut lqd = GlobalLqd::new(4, 0);
/// // One flow fills the entire shared budget from its home shard...
/// for _ in 0..4 {
///     lqd.offer_global(&mut engine, FlowId::new(0), &[0u8; 64]).unwrap();
/// }
/// // ...and an arrival homed on the *other* shard still gets in: the
/// // globally longest queue pays, across the partition boundary.
/// let hog_shard = engine.shard_of(FlowId::new(0));
/// let other = (1..16)
///     .map(FlowId::new)
///     .find(|&f| engine.shard_of(f) != hog_shard)
///     .unwrap();
/// let adm = lqd.offer_global(&mut engine, other, &[1u8; 64]).unwrap();
/// assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalLqd {
    budget_segments: u32,
    reserve_segments: u32,
    stats: PolicyStats,
}

impl GlobalLqd {
    /// Creates the policy with a global budget of `budget_segments`
    /// across all shards, keeping `reserve_segments` of it free for
    /// flows with packets mid-assembly.
    pub fn new(budget_segments: u32, reserve_segments: u32) -> Self {
        GlobalLqd {
            budget_segments,
            reserve_segments,
            stats: PolicyStats::default(),
        }
    }

    /// The shared-buffer pairing for `engine`: a budget of one shard's
    /// full segment space (every shard of a
    /// [`ShardedQueueManager::new`]-built engine is configured with the
    /// whole shared buffer).
    pub fn shared(engine: &ShardedQueueManager, reserve_segments: u32) -> Self {
        GlobalLqd::new(engine.shard(0).config().num_segments(), reserve_segments)
    }

    /// Admission/eviction statistics.
    pub const fn stats(&self) -> &PolicyStats {
        &self.stats
    }

    /// The global segment budget.
    pub const fn budget_segments(&self) -> u32 {
        self.budget_segments
    }

    /// The globally longest queue with an evictable head packet.
    ///
    /// Fast path: each shard's longest queue, in shard order, keeping a
    /// queue only if it is strictly longer (ties go to the lowest shard),
    /// taken if evictable. Fallback (the maximum is a mid-SAR or
    /// mid-service hog): a deterministic scan of every shard's occupied
    /// flows — shards in index order, keeping the first queue of maximal
    /// byte count.
    fn longest_evictable_global(engine: &mut ShardedQueueManager) -> Option<(usize, FlowId)> {
        let mut longest: Option<(usize, FlowId, u64)> = None;
        for (s, qm) in engine.shards.iter_mut().enumerate() {
            if let Some((flow, bytes)) = qm.longest_queue() {
                if longest.is_none_or(|(_, _, b)| bytes > b) {
                    longest = Some((s, flow, bytes));
                }
            }
        }
        if let Some((s, flow, _)) = longest {
            if policy::evictable(&engine.shards[s], flow) {
                return Some((s, flow));
            }
        }
        let mut best: Option<(u64, usize, FlowId)> = None;
        for (s, qm) in engine.shards.iter().enumerate() {
            for flow in qm.occupied_flows() {
                if !policy::evictable(qm, flow) {
                    continue;
                }
                let bytes = qm.queue_len_bytes(flow);
                if best.is_none_or(|(b, _, _)| bytes > b) {
                    best = Some((bytes, s, flow));
                }
            }
        }
        best.map(|(_, s, flow)| (s, flow))
    }
}

impl GlobalDropPolicy for GlobalLqd {
    fn name(&self) -> &str {
        "global-lqd"
    }

    fn offer_global(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        let home = engine.shard_of(flow);
        let seg_bytes = engine.shards[home].config().segment_bytes() as usize;
        let needed = packet.len().div_ceil(seg_bytes) as u32;
        if needed + self.reserve_segments > self.budget_segments {
            self.stats.dropped += 1;
            return Err(Refusal::from(DropReason::GlobalReserve));
        }
        let mut admission = Admission::default();
        while engine.used_segments() + needed + self.reserve_segments > self.budget_segments {
            let Some((vs, vf)) = Self::longest_evictable_global(engine) else {
                self.stats.dropped += 1;
                return Err(Refusal {
                    reason: DropReason::GlobalReserve,
                    evicted: admission.evicted,
                });
            };
            let (_segs, bytes) = engine.shards[vs]
                .delete_packet(vf)
                .expect("victim has an evictable head packet");
            self.stats.evicted_packets += 1;
            self.stats.evicted_bytes += bytes as u64;
            admission.evicted.push((vf, bytes));
        }
        match engine.shards[home].enqueue_packet(flow, packet) {
            Ok(()) => {
                self.stats.admitted += 1;
                Ok(admission)
            }
            Err(e) => {
                self.stats.dropped += 1;
                Err(Refusal {
                    reason: DropReason::Engine(e),
                    evicted: admission.evicted,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::manager::SegmentPosition;
    use crate::policy::DynamicThreshold;

    fn cfg(segments: u32) -> QmConfig {
        QmConfig::builder()
            .num_flows(16)
            .num_segments(segments)
            .segment_bytes(64)
            .build()
            .unwrap()
    }

    fn enqueue_cmd(flow: u32, byte: u8, len: usize) -> Command {
        Command::Enqueue {
            flow: FlowId::new(flow),
            data: vec![byte; len],
            pos: SegmentPosition::Only,
        }
    }

    fn mixed_batch() -> Vec<Command> {
        let mut cmds = Vec::new();
        for f in 0..16u32 {
            cmds.push(enqueue_cmd(f, f as u8, 40 + 11 * f as usize));
        }
        for f in 0..16u32 {
            cmds.push(Command::Move {
                src: FlowId::new(f),
                dst: FlowId::new((f + 3) % 16),
            });
        }
        for f in 0..16u32 {
            cmds.push(Command::Dequeue {
                flow: FlowId::new((f + 3) % 16),
            });
        }
        cmds
    }

    #[test]
    fn parallel_matches_serial_including_cross_shard_barriers() {
        let cmds = mixed_batch();
        let mut serial = ShardedQueueManager::new(cfg(64), 4);
        let expected: Vec<_> = cmds.iter().map(|c| serial.execute(c.clone())).collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let mut par = ShardedQueueManager::new(cfg(64), 4);
            let got = par.execute_batch_parallel(&cmds, threads);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(par.stats(), serial.stats(), "threads={threads}");
            assert_eq!(
                par.state_digest(),
                serial.state_digest(),
                "threads={threads}"
            );
            par.verify().unwrap();
        }
    }

    #[test]
    fn batch_shape_does_not_depend_on_the_worker_count() {
        let cmds = mixed_batch();
        let shape = |threads: usize| {
            let mut e = ShardedQueueManager::new(cfg(64), 4);
            let results = e.execute_batch_parallel(&cmds, threads);
            let ps = e.parallel_stats();
            (
                results,
                (ps.parallel_batches, ps.phases, ps.groups),
                ps.steals,
            )
        };
        let (one, one_shape, one_steals) = shape(1);
        let (four, four_shape, _) = shape(4);
        assert_eq!(one, four);
        assert_eq!(one_shape, four_shape);
        assert_eq!(one_shape.0, 1);
        assert!(one_shape.1 > 1, "cross-shard moves split the batch");
        assert_eq!(one_steals, 0, "one worker never steals");
    }

    #[test]
    fn steals_occur_when_groups_outnumber_workers() {
        // Flows 0..16 hash onto 3 of the 4 shards, so the batch forms 3
        // non-empty groups. With 2 workers at least one group is claimed
        // by a worker that already drained one — a guaranteed steal, on
        // any scheduler: steals = successful claims − workers that
        // claimed at least once ≥ groups − workers.
        let mut e = ShardedQueueManager::new(cfg(256), 4);
        let cmds: Vec<Command> = (0..64u32).map(|f| enqueue_cmd(f % 16, 1, 64)).collect();
        e.execute_batch_parallel(&cmds, 2);
        let ps = e.parallel_stats();
        assert_eq!(ps.parallel_batches, 1);
        assert!(ps.groups >= 3, "flows 0..16 span at least 3 shards");
        assert!(
            ps.steals >= ps.groups - 2,
            "with 2 workers, every group beyond the first two is a steal: {ps:?}"
        );
    }

    #[test]
    fn offer_batch_parallel_matches_serial() {
        let payloads: Vec<(FlowId, Vec<u8>)> = (0..60u32)
            .map(|i| (FlowId::new(i % 16), vec![i as u8; 40 + (i as usize % 90)]))
            .collect();
        let arrivals: Vec<(FlowId, &[u8])> =
            payloads.iter().map(|(f, p)| (*f, p.as_slice())).collect();
        let mut e1 = ShardedQueueManager::new(cfg(16), 4);
        let mut adm1 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
        let serial: Vec<_> = arrivals
            .iter()
            .map(|&(f, p)| adm1.offer(&mut e1, f, p))
            .collect();
        for threads in [1usize, 2, 4] {
            let mut e2 = ShardedQueueManager::new(cfg(16), 4);
            let mut adm2 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
            let par = adm2.offer_batch_parallel(&mut e2, &arrivals, threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(e1.state_digest(), e2.state_digest(), "threads={threads}");
            e2.verify().unwrap();
        }
    }

    #[test]
    fn global_lqd_respects_reserve_and_refuses_oversize() {
        let mut e = ShardedQueueManager::new(cfg(8), 2);
        let mut lqd = GlobalLqd::new(8, 2);
        assert!(matches!(
            lqd.offer_global(&mut e, FlowId::new(0), &[0u8; 64 * 7]),
            Err(Refusal {
                reason: DropReason::GlobalReserve,
                ..
            })
        ));
        for _ in 0..6 {
            lqd.offer_global(&mut e, FlowId::new(0), &[0u8; 64])
                .unwrap();
        }
        // The 7th would dip into the reserve: push-out keeps it intact.
        lqd.offer_global(&mut e, FlowId::new(1), &[1u8; 64])
            .unwrap();
        assert_eq!(e.used_segments(), 6);
        assert_eq!(lqd.stats().evicted_packets, 1);
        e.verify().unwrap();
    }

    #[test]
    fn global_lqd_skips_unevictable_queues() {
        // Shard A holds an open (mid-SAR) 2-segment packet — the longest
        // queue — while shard B holds a complete 1-segment packet. The
        // next arrival must evict from B, not give up on A's hog.
        let mut e = ShardedQueueManager::new(cfg(4), 2);
        let hog = FlowId::new(0);
        let hog_shard = e.shard_of(hog);
        let small = (1..16)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != hog_shard)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        let mut lqd = GlobalLqd::new(4, 0);
        lqd.offer_global(&mut e, small, &[1u8; 64]).unwrap();
        assert_eq!(e.used_segments(), 3);
        let adm = lqd
            .offer_global(&mut e, FlowId::new(2), &[2u8; 128])
            .unwrap();
        assert_eq!(adm.evicted, vec![(small, 64)]);
        e.verify().unwrap();
    }

    #[test]
    fn global_lqd_refusal_reports_collateral_evictions() {
        let mut e = ShardedQueueManager::new(cfg(4), 2);
        let hog = FlowId::new(0);
        let hog_shard = e.shard_of(hog);
        let other = (1..16)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != hog_shard)
            .unwrap();
        let mut lqd = GlobalLqd::new(4, 0);
        lqd.offer_global(&mut e, other, &[1u8; 64]).unwrap();
        // Fill the rest of the budget with an unevictable open packet.
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        // A 2-segment arrival can evict `other`'s packet but then runs
        // out of victims: the refusal must carry the collateral.
        let refusal = lqd
            .offer_global(&mut e, FlowId::new(2), &[2u8; 128])
            .unwrap_err();
        assert_eq!(refusal.reason, DropReason::GlobalReserve);
        assert_eq!(refusal.evicted, vec![(other, 64)]);
        e.verify().unwrap();
    }

    #[test]
    fn sharded_admission_is_a_global_drop_policy() {
        let mut e = ShardedQueueManager::new(cfg(64), 2);
        let mut adm = ShardedAdmission::from_fn(2, |_| DynamicThreshold::new(2.0));
        let p: &mut dyn GlobalDropPolicy = &mut adm;
        assert_eq!(p.name(), "dyn-threshold");
        p.offer_global(&mut e, FlowId::new(3), &[3u8; 64]).unwrap();
        assert_eq!(e.stats().enqueues, 1);
    }
}
