//! Egress scheduling over flow queues.
//!
//! The paper's motivation (§1) is that "to support advanced Quality of
//! Service (QoS), a large number of independent queues is desirable" — the
//! queues exist so that a *scheduler* can pick which flow transmits next.
//! This module provides the three classic disciplines over a
//! [`QueueManager`]'s flows:
//!
//! * [`StrictPriority`] — lower-indexed class always wins (802.1p style);
//! * [`WeightedRoundRobin`] — packet-based weights, cheap but unfair for
//!   mixed packet sizes;
//! * [`DeficitRoundRobin`] — byte-accurate fairness (Shreedhar/Varghese),
//!   the discipline per-flow queuing hardware is usually paired with.
//!
//! Schedulers only *choose* flows; dequeuing stays on the engine, so any
//! discipline composes with any engine configuration.
//!
//! Beyond the flat disciplines, [`htb`] provides a hierarchical token
//! bucket (class tree with guaranteed/ceil rates, bursts, priorities and
//! parent borrowing), and [`from_spec`] builds any discipline from a
//! compact text spec (`"drr"`, `"wrr:4,2,1"`, `"sp"`, `"htb:..."`).

pub mod htb;
pub mod spec;

pub use htb::{HtbClass, HtbError, HtbScheduler, HtbStats, HtbTreeBuilder};
pub use spec::{from_spec, SpecError};

use crate::id::FlowId;
use crate::manager::QueueManager;

/// A scheduling discipline over a fixed set of flows.
pub trait FlowScheduler {
    /// Picks the next flow to serve, or `None` if every flow is empty.
    ///
    /// Implementations must only return flows with at least one complete
    /// packet ready (`complete_packets > 0`).
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId>;

    /// Informs the discipline that `bytes` were just served from `flow`
    /// (needed by byte-accounting disciplines like DRR).
    fn served(&mut self, flow: FlowId, bytes: usize);
}

/// Boxed schedulers schedule like their contents, so `Box<dyn
/// FlowScheduler + Send>` slots into any generic pipeline bound.
impl<S: FlowScheduler + ?Sized> FlowScheduler for Box<S> {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        (**self).next_flow(qm)
    }

    fn served(&mut self, flow: FlowId, bytes: usize) {
        (**self).served(flow, bytes)
    }
}

/// Serves the lowest-indexed non-empty flow first.
///
/// # Example
///
/// ```
/// use npqm_core::sched::{FlowScheduler, StrictPriority};
/// use npqm_core::{FlowId, QmConfig, QueueManager};
///
/// # fn main() -> Result<(), npqm_core::QueueError> {
/// let mut qm = QueueManager::new(QmConfig::small());
/// qm.enqueue_packet(FlowId::new(5), b"low")?;
/// qm.enqueue_packet(FlowId::new(1), b"high")?;
/// let mut sched = StrictPriority::new(8);
/// assert_eq!(sched.next_flow(&qm), Some(FlowId::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StrictPriority {
    flows: u32,
}

impl StrictPriority {
    /// Creates a scheduler over flows `0..flows` (0 = highest priority).
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(flows: u32) -> Self {
        assert!(flows > 0, "need at least one flow");
        StrictPriority { flows }
    }
}

impl FlowScheduler for StrictPriority {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        qm.occupied_flows()
            .take_while(|f| f.index() < self.flows)
            .find(|&f| qm.complete_packets(f) > 0)
    }

    fn served(&mut self, _flow: FlowId, _bytes: usize) {}
}

/// Packet-based weighted round robin: flow `i` may send `weight[i]`
/// packets per round.
#[derive(Debug, Clone)]
pub struct WeightedRoundRobin {
    weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
}

impl WeightedRoundRobin {
    /// Creates a scheduler with one weight per flow.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is zero.
    pub fn new(weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "need at least one flow");
        assert!(
            weights.iter().all(|&w| w > 0),
            "weights must be non-zero (a zero weight would starve the flow)"
        );
        let credits = weights.clone();
        WeightedRoundRobin {
            weights,
            credits,
            cursor: 0,
        }
    }

    fn refill(&mut self) {
        self.credits.copy_from_slice(&self.weights);
    }
}

impl FlowScheduler for WeightedRoundRobin {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        let n = self.weights.len();
        // Two passes: the current round with remaining credits, then a
        // refilled round. If both find nothing, the queues are empty.
        for pass in 0..2 {
            if pass == 1 {
                self.refill();
            }
            // Occupied flows from the cursor: `cursor..n`, then `0..cursor`.
            for (lo, hi) in [(self.cursor, n), (0, self.cursor)] {
                for idx in qm.ptr.occupied_from(lo).take_while(|&i| i < hi) {
                    let flow = FlowId::new(idx as u32);
                    if self.credits[idx] > 0 && qm.complete_packets(flow) > 0 {
                        self.cursor = idx;
                        return Some(flow);
                    }
                }
            }
        }
        None
    }

    fn served(&mut self, flow: FlowId, _bytes: usize) {
        let idx = flow.as_usize();
        self.credits[idx] = self.credits[idx].saturating_sub(1);
        if self.credits[idx] == 0 {
            self.cursor = (idx + 1) % self.weights.len();
        }
    }
}

/// The Shreedhar & Varghese deficit-round-robin selection loop over
/// abstract slots, shared verbatim by the flat [`DeficitRoundRobin`] and
/// the per-priority sibling rounds inside [`htb::HtbScheduler`].
///
/// The caller supplies three closures: `candidate(i)` returns the first
/// slot `>= i` that might be backlogged (`Some` for "every slot"; the
/// flat discipline skips flows whose occupancy bit is clear),
/// `head(slot)` returns the head-packet size when the slot is backlogged
/// *and currently eligible* (HTB gates eligibility on token state; the
/// flat discipline on backlog alone), and `empty(slot)` reports a
/// drained queue, which forfeits its deficit. A round visits slots in
/// the order `cursor..n`, then `0..cursor`, whatever the candidate
/// function: skipping a slot whose `head` is `None` changes nothing, so
/// the selection sequence is the same as a visit of every slot.
/// Because both disciplines run this exact loop, a degenerate HTB tree
/// (every leaf permanently eligible) reproduces flat DRR's selection
/// sequence byte-for-byte — a property the test suite pins via
/// `state_digest`.
#[derive(Debug, Clone)]
pub(crate) struct DrrCore {
    quanta: Vec<u32>,
    deficit: Vec<u64>,
    cursor: usize,
    /// Slot currently holding the round (keeps serving while deficit and
    /// backlog allow, as the algorithm specifies).
    active: Option<usize>,
}

impl DrrCore {
    pub(crate) fn new(quanta: Vec<u32>) -> Self {
        assert!(!quanta.is_empty(), "need at least one slot");
        assert!(quanta.iter().all(|&q| q > 0), "quanta must be non-zero");
        let deficit = vec![0; quanta.len()];
        DrrCore {
            quanta,
            deficit,
            cursor: 0,
            active: None,
        }
    }

    pub(crate) fn deficit(&self, slot: usize) -> u64 {
        self.deficit[slot]
    }

    /// Picks the next slot to serve, or `None` if no slot is eligible.
    pub(crate) fn next(
        &mut self,
        candidate: impl Fn(usize) -> Option<usize>,
        head: impl Fn(usize) -> Option<u64>,
        empty: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let n = self.quanta.len();
        // Keep serving the active slot while it can afford its head packet.
        if let Some(idx) = self.active {
            match head(idx) {
                Some(h) if h <= self.deficit[idx] => return Some(idx),
                _ => {
                    if empty(idx) {
                        self.deficit[idx] = 0; // empty queue forfeits deficit
                    }
                    self.active = None;
                    self.cursor = (idx + 1) % n;
                }
            }
        }
        // Visit slots round-robin, granting each backlogged one its
        // quantum, until one can afford its head packet. This terminates:
        // every round grows each backlogged slot's deficit by a non-zero
        // quantum, and a round with no backlog at all returns `None`.
        loop {
            let mut any_backlog = false;
            for (lo, hi) in [(self.cursor, n), (0, self.cursor)] {
                let mut next = candidate(lo);
                while let Some(idx) = next.filter(|&i| i < hi) {
                    next = candidate(idx + 1);
                    let Some(h) = head(idx) else {
                        continue;
                    };
                    any_backlog = true;
                    self.deficit[idx] += self.quanta[idx] as u64;
                    if h <= self.deficit[idx] {
                        self.active = Some(idx);
                        self.cursor = idx;
                        return Some(idx);
                    }
                }
            }
            if !any_backlog {
                return None;
            }
        }
    }

    pub(crate) fn served(&mut self, slot: usize, bytes: usize) {
        self.deficit[slot] = self.deficit[slot].saturating_sub(bytes as u64);
    }
}

/// Deficit round robin (Shreedhar & Varghese): byte-accurate fairness with
/// per-flow quanta.
///
/// Each round visits only flows whose occupancy bit is set, in the same
/// `cursor..n`, `0..cursor` order as a visit of every flow, so the cost
/// of a pick follows the backlog rather than the configured flow count
/// and the selection sequence is unchanged.
#[derive(Debug, Clone)]
pub struct DeficitRoundRobin {
    core: DrrCore,
}

impl DeficitRoundRobin {
    /// Creates a scheduler with one byte-quantum per flow.
    ///
    /// # Panics
    ///
    /// Panics if `quanta` is empty or any quantum is zero.
    pub fn new(quanta: Vec<u32>) -> Self {
        assert!(!quanta.is_empty(), "need at least one flow");
        DeficitRoundRobin {
            core: DrrCore::new(quanta),
        }
    }

    /// The current deficit counter of `flow` (for tests/monitoring).
    pub fn deficit(&self, flow: FlowId) -> u64 {
        self.core.deficit(flow.as_usize())
    }

    /// The head packet's size, which DRR compares against the deficit,
    /// or `None` while `flow` has no complete packet.
    fn head_bytes(qm: &QueueManager, flow: FlowId) -> Option<u64> {
        if qm.complete_packets(flow) == 0 {
            return None;
        }
        Some(qm.head_packet_bytes(flow).unwrap_or(0))
    }
}

impl FlowScheduler for DeficitRoundRobin {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        self.core
            .next(
                |slot| qm.ptr.next_occupied(slot),
                |slot| Self::head_bytes(qm, FlowId::new(slot as u32)),
                |slot| qm.complete_packets(FlowId::new(slot as u32)) == 0,
            )
            .map(|slot| FlowId::new(slot as u32))
    }

    fn served(&mut self, flow: FlowId, bytes: usize) {
        self.core.served(flow.as_usize(), bytes);
    }
}

/// Drives a scheduler: dequeues the next packet according to `sched`.
///
/// Returns `None` when every scheduled flow is empty.
///
/// # Example
///
/// ```
/// use npqm_core::sched::{drain_next, DeficitRoundRobin};
/// use npqm_core::{FlowId, QmConfig, QueueManager};
///
/// # fn main() -> Result<(), npqm_core::QueueError> {
/// let mut qm = QueueManager::new(QmConfig::small());
/// qm.enqueue_packet(FlowId::new(0), &[1; 100])?;
/// let mut drr = DeficitRoundRobin::new(vec![1500, 1500]);
/// let (flow, pkt) = drain_next(&mut qm, &mut drr).unwrap();
/// assert_eq!(flow, FlowId::new(0));
/// assert_eq!(pkt.len(), 100);
/// # Ok(())
/// # }
/// ```
pub fn drain_next<S: FlowScheduler + ?Sized>(
    qm: &mut QueueManager,
    sched: &mut S,
) -> Option<(FlowId, Vec<u8>)> {
    let flow = sched.next_flow(qm)?;
    let pkt = qm
        .dequeue_packet(flow)
        .expect("scheduler picked a ready flow");
    sched.served(flow, pkt.len());
    Some((flow, pkt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;

    fn engine() -> QueueManager {
        QueueManager::new(QmConfig::small())
    }

    #[test]
    fn strict_priority_orders_classes() {
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(3), b"c3").unwrap();
        qm.enqueue_packet(FlowId::new(0), b"c0").unwrap();
        qm.enqueue_packet(FlowId::new(7), b"c7").unwrap();
        let mut sp = StrictPriority::new(8);
        let mut order = Vec::new();
        while let Some((f, _)) = drain_next(&mut qm, &mut sp) {
            order.push(f.index());
        }
        assert_eq!(order, vec![0, 3, 7]);
    }

    #[test]
    fn strict_priority_starves_low_classes() {
        let mut qm = engine();
        let mut sp = StrictPriority::new(2);
        qm.enqueue_packet(FlowId::new(1), b"low").unwrap();
        for _ in 0..5 {
            qm.enqueue_packet(FlowId::new(0), b"high").unwrap();
            let (f, _) = drain_next(&mut qm, &mut sp).unwrap();
            assert_eq!(f.index(), 0, "class 1 must wait");
        }
        let (f, _) = drain_next(&mut qm, &mut sp).unwrap();
        assert_eq!(f.index(), 1);
    }

    #[test]
    fn wrr_respects_weights() {
        let mut qm = engine();
        // Flows 0 and 1 with weights 3:1, both saturated.
        for _ in 0..12 {
            qm.enqueue_packet(FlowId::new(0), &[0; 64]).unwrap();
            qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
        }
        let mut wrr = WeightedRoundRobin::new(vec![3, 1]);
        let mut counts = [0u32; 2];
        for _ in 0..16 {
            let (f, _) = drain_next(&mut qm, &mut wrr).unwrap();
            counts[f.as_usize()] += 1;
        }
        assert_eq!(counts, [12, 4], "3:1 service ratio");
    }

    #[test]
    fn wrr_skips_empty_flows_without_wasting_credits() {
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(2), b"only").unwrap();
        let mut wrr = WeightedRoundRobin::new(vec![4, 4, 1]);
        let (f, _) = drain_next(&mut qm, &mut wrr).unwrap();
        assert_eq!(f.index(), 2);
        assert!(drain_next(&mut qm, &mut wrr).is_none());
    }

    #[test]
    fn wrr_continues_from_its_cursor() {
        // Flow 1 holds the round with a credit left when flow 0 wakes up:
        // the round continues at flow 1, then wraps to flow 0.
        let mut qm = engine();
        for _ in 0..3 {
            qm.enqueue_packet(FlowId::new(1), b"one").unwrap();
        }
        let mut wrr = WeightedRoundRobin::new(vec![2, 2]);
        assert_eq!(drain_next(&mut qm, &mut wrr).unwrap().0.index(), 1);
        qm.enqueue_packet(FlowId::new(0), b"zero").unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| drain_next(&mut qm, &mut wrr))
            .map(|(f, _)| f.index())
            .collect();
        assert_eq!(order, vec![1, 0, 1]);
    }

    #[test]
    fn drr_is_byte_fair_with_mixed_packet_sizes() {
        let mut qm = engine();
        // Flow 0 sends jumbo-ish packets, flow 1 minimum-size ones. With
        // equal quanta, served BYTES must converge, not packet counts.
        for _ in 0..16 {
            qm.enqueue_packet(FlowId::new(0), &[0; 640]).unwrap();
            for _ in 0..10 {
                qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
            }
        }
        let mut drr = DeficitRoundRobin::new(vec![640, 640]);
        let mut bytes = [0usize; 2];
        for _ in 0..100 {
            let Some((f, pkt)) = drain_next(&mut qm, &mut drr) else {
                break;
            };
            bytes[f.as_usize()] += pkt.len();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "byte ratio {ratio} ({bytes:?})"
        );
    }

    #[test]
    fn drr_weighted_quanta_split_bandwidth() {
        let mut qm = engine();
        for _ in 0..60 {
            qm.enqueue_packet(FlowId::new(0), &[0; 64]).unwrap();
            qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
        }
        // 2:1 quanta -> 2:1 bytes.
        let mut drr = DeficitRoundRobin::new(vec![128, 64]);
        let mut bytes = [0usize; 2];
        for _ in 0..90 {
            let Some((f, pkt)) = drain_next(&mut qm, &mut drr) else {
                break;
            };
            bytes[f.as_usize()] += pkt.len();
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio} ({bytes:?})");
    }

    #[test]
    fn drr_empty_queue_forfeits_deficit() {
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(0), &[0; 64]).unwrap();
        let mut drr = DeficitRoundRobin::new(vec![1000, 1000]);
        drain_next(&mut qm, &mut drr).unwrap();
        // Flow 0 is now empty; after the next scheduling pass its stale
        // deficit must not accumulate further once it drains.
        qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
        let (f, _) = drain_next(&mut qm, &mut drr).unwrap();
        assert_eq!(f.index(), 1);
        assert_eq!(drr.deficit(FlowId::new(0)), 0, "forfeited");
    }

    #[test]
    fn drr_keeps_granting_quanta_until_a_packet_fits() {
        // A 1-byte quantum against a 100-byte packet needs 100 rounds; the
        // scheduler must not report "idle" while flow 0 is backlogged.
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(0), &[0; 100]).unwrap();
        let mut drr = DeficitRoundRobin::new(vec![1, 1]);
        assert_eq!(drr.next_flow(&qm), Some(FlowId::new(0)));
        assert_eq!(drr.deficit(FlowId::new(0)), 100);
        let (f, pkt) = drain_next(&mut qm, &mut drr).unwrap();
        assert_eq!((f.index(), pkt.len()), (0, 100));
        assert!(drain_next(&mut qm, &mut drr).is_none());
    }

    #[test]
    fn all_disciplines_terminate_on_empty_engine() {
        let qm = engine();
        assert!(StrictPriority::new(4).next_flow(&qm).is_none());
        assert!(WeightedRoundRobin::new(vec![1; 4]).next_flow(&qm).is_none());
        assert!(DeficitRoundRobin::new(vec![64; 4]).next_flow(&qm).is_none());
    }

    #[test]
    #[should_panic(expected = "weights must be non-zero")]
    fn zero_weight_panics() {
        let _ = WeightedRoundRobin::new(vec![1, 0]);
    }
}
