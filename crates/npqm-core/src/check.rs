//! Structural invariant verification.
//!
//! The queue engine maintains redundant state (counts in queue records and
//! packet records, plus the linked structure itself). `verify` walks the
//! whole pointer memory and cross-checks everything; the test suite and the
//! property tests call it after every operation sequence.

use crate::id::{FlowId, PacketId};
use crate::manager::QueueManager;
use crate::ptrmem::{PtrMemCounters, QueueRecord};
use core::fmt;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// What went wrong, and where.
    pub what: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated: {}", self.what)
    }
}

impl std::error::Error for InvariantViolation {}

/// Summary of a successful verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvariantReport {
    /// Queues inspected.
    pub queues: u32,
    /// Segments found linked into queues.
    pub segments_used: u32,
    /// Segments found on the free list.
    pub segments_free: u32,
    /// Packet records found linked into queues.
    pub packets_used: u32,
    /// Packet records found on the free list.
    pub packets_free: u32,
    /// Payload bytes found queued, summed over the walked segment chains.
    ///
    /// This is the byte occupancy *proven by the walk* (not read from the
    /// queue-table counters), which is what cross-shard conservation
    /// checks compare against admission/delivery ledgers.
    pub payload_bytes: u64,
    /// Pointer-memory access counters at verification time (ZBT SRAM
    /// traffic). The walk itself uses the silent accessors, so the
    /// snapshot is not perturbed by taking it; the sharded engine's
    /// conservation pass sums these across shards and checks the sum
    /// against [`crate::shard::ShardedQueueManager::ptr_counters`].
    pub ptr: PtrMemCounters,
}

fn violation<T>(what: impl Into<String>) -> Result<T, InvariantViolation> {
    Err(InvariantViolation { what: what.into() })
}

/// A set of segment or packet-record indices, one bit per record.
struct IndexSet {
    words: Vec<u64>,
    len: usize,
}

impl IndexSet {
    fn new(records: u32) -> Self {
        IndexSet {
            words: vec![0; (records as usize).div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `i`; `false` if it was already present.
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(fresh);
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// Verifies every structural invariant of `qm`:
///
/// 1. every per-packet segment chain is well-formed (`first → … → last`,
///    terminated, acyclic) and its `segs`/`bytes` counters match the walk;
/// 2. every queue's packet chain is well-formed and the queue's counters
///    (`pkts`, `complete_pkts`, `segs`, `bytes`) match;
/// 3. an `open` queue has a tail packet, and that tail packet is the
///    unfinished one: its EOP has not been recorded yet, while every
///    non-tail packet in the chain is complete. A non-open queue holds
///    only complete packets and has `complete_pkts == pkts`. (This is
///    what catches a complete packet spliced *behind* an open tail — the
///    torn-packet corruption the pre-fix `move_packet` could create.);
/// 4. only a queue's head packet may be partially consumed (`started`);
/// 5. no segment or packet record is referenced twice;
/// 6. the free lists and the queues exactly partition both index spaces;
/// 7. every linked segment has a non-zero length within the segment size;
/// 8. every flow's occupancy bit is set iff its queue record differs from
///    [`QueueRecord::default`] (the bit that lets schedulers and
///    [`state_digest`] skip empty flows). The walk reads every record
///    rather than trusting the bitmap it checks.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] found.
pub fn verify(qm: &QueueManager) -> Result<InvariantReport, InvariantViolation> {
    let cfg = &qm.cfg;
    let pm = &qm.ptr;
    let mut used_segs = IndexSet::new(cfg.num_segments());
    let mut used_pkts = IndexSet::new(cfg.num_segments());
    let mut payload_bytes = 0u64;

    for f in 0..cfg.num_flows() {
        let flow = FlowId::new(f);
        let q = pm.queue_silent(flow);
        let occupied = q != QueueRecord::default();
        if pm.is_occupied(flow) != occupied {
            return violation(format!(
                "{flow}: occupancy bit is {} but the queue record is {}",
                pm.is_occupied(flow),
                if occupied { "occupied" } else { "empty" }
            ));
        }
        let mut pkts = 0u32;
        let mut segs = 0u32;
        let mut bytes = 0u64;
        let mut pid = q.head_pkt;
        let mut last_seen = PacketId::NIL;
        while !pid.is_nil() {
            if !used_pkts.insert(pid.as_usize()) {
                return violation(format!("{flow}: packet {pid} referenced twice"));
            }
            let pr = pm.pkt_silent(pid);
            if pr.started && pid != q.head_pkt {
                return violation(format!(
                    "{flow}: non-head packet {pid} is partially consumed"
                ));
            }
            // Exactly the open queue's tail packet may lack its EOP; a
            // complete packet at the open tail (or an unfinished packet
            // anywhere else) means SAR traffic was interleaved with a
            // structural operation and a packet is torn.
            if q.open && pid == q.tail_pkt {
                if pr.eop {
                    return violation(format!(
                        "{flow}: queue is open but its tail packet {pid} has its EOP recorded"
                    ));
                }
            } else if !pr.eop {
                return violation(format!(
                    "{flow}: packet {pid} has no EOP recorded but is not the open tail"
                ));
            }
            // Walk the segment chain of this packet.
            let mut seg = pr.first;
            let mut seg_count = 0u32;
            let mut byte_count = 0u32;
            let mut reached_last = false;
            while !seg.is_nil() {
                if !used_segs.insert(seg.as_usize()) {
                    return violation(format!("{flow}: segment {seg} referenced twice"));
                }
                let rec = pm.seg_silent(seg);
                if rec.len == 0 || rec.len as u32 > cfg.segment_bytes() {
                    return violation(format!("{flow}: segment {seg} has bad length {}", rec.len));
                }
                seg_count += 1;
                byte_count += rec.len as u32;
                if seg_count > pr.segs {
                    return violation(format!(
                        "{flow}: packet {pid} chain longer than its count {}",
                        pr.segs
                    ));
                }
                if seg == pr.last {
                    reached_last = true;
                    if !rec.next.is_nil() {
                        return violation(format!(
                            "{flow}: last segment {seg} of {pid} has a successor"
                        ));
                    }
                }
                seg = rec.next;
            }
            if !reached_last {
                return violation(format!("{flow}: packet {pid} never reaches its last"));
            }
            if seg_count != pr.segs {
                return violation(format!(
                    "{flow}: packet {pid} counts {} segments, walk found {seg_count}",
                    pr.segs
                ));
            }
            if byte_count != pr.bytes {
                return violation(format!(
                    "{flow}: packet {pid} counts {} bytes, walk found {byte_count}",
                    pr.bytes
                ));
            }
            pkts += 1;
            segs += seg_count;
            bytes += byte_count as u64;
            last_seen = pid;
            pid = pr.next_pkt;
            if pkts > q.pkts {
                return violation(format!("{flow}: packet chain longer than count {}", q.pkts));
            }
        }
        if pkts != q.pkts {
            return violation(format!(
                "{flow}: queue counts {} packets, walk found {pkts}",
                q.pkts
            ));
        }
        if segs != q.segs {
            return violation(format!(
                "{flow}: queue counts {} segments, walk found {segs}",
                q.segs
            ));
        }
        if bytes != q.bytes {
            return violation(format!(
                "{flow}: queue counts {} bytes, walk found {bytes}",
                q.bytes
            ));
        }
        if q.tail_pkt != last_seen {
            return violation(format!(
                "{flow}: tail is {} but walk ended at {last_seen}",
                q.tail_pkt
            ));
        }
        let expected_complete = if q.open {
            q.pkts.saturating_sub(1)
        } else {
            q.pkts
        };
        if q.complete_pkts != expected_complete {
            return violation(format!(
                "{flow}: complete_pkts {} != expected {expected_complete}",
                q.complete_pkts
            ));
        }
        if q.open && q.tail_pkt.is_nil() {
            return violation(format!("{flow}: open queue without a tail packet"));
        }
        payload_bytes += bytes;
    }

    // Free lists must exactly cover the rest of both index spaces.
    let free_segs = qm.seg_fl.collect_free(pm);
    if free_segs.len() as u32 != qm.seg_fl.free_count() {
        return violation(format!(
            "segment free list count {} != walk length {}",
            qm.seg_fl.free_count(),
            free_segs.len()
        ));
    }
    let mut free_seg_set = IndexSet::new(cfg.num_segments());
    for s in &free_segs {
        if used_segs.contains(s.as_usize()) {
            return violation(format!("segment {s} is both free and in use"));
        }
        if !free_seg_set.insert(s.as_usize()) {
            return violation(format!("segment {s} appears twice on the free list"));
        }
    }
    if used_segs.len + free_seg_set.len != cfg.num_segments() as usize {
        return violation(format!(
            "segment space not partitioned: {} used + {} free != {}",
            used_segs.len,
            free_seg_set.len,
            cfg.num_segments()
        ));
    }

    let free_pkts = qm.pkt_fl.collect_free(pm);
    if free_pkts.len() as u32 != qm.pkt_fl.free_count() {
        return violation(format!(
            "packet free list count {} != walk length {}",
            qm.pkt_fl.free_count(),
            free_pkts.len()
        ));
    }
    let mut free_pkt_set = IndexSet::new(cfg.num_segments());
    for p in &free_pkts {
        if used_pkts.contains(p.as_usize()) {
            return violation(format!("packet {p} is both free and in use"));
        }
        if !free_pkt_set.insert(p.as_usize()) {
            return violation(format!("packet {p} appears twice on the free list"));
        }
    }
    if used_pkts.len + free_pkt_set.len != cfg.num_segments() as usize {
        return violation(format!(
            "packet space not partitioned: {} used + {} free != {}",
            used_pkts.len,
            free_pkt_set.len,
            cfg.num_segments()
        ));
    }

    Ok(InvariantReport {
        queues: cfg.num_flows(),
        segments_used: used_segs.len as u32,
        segments_free: free_seg_set.len as u32,
        packets_used: used_pkts.len as u32,
        packets_free: free_pkt_set.len as u32,
        payload_bytes,
        ptr: *pm.counters(),
    })
}

/// The FNV-1a offset basis — the starting accumulator for
/// [`fnv1a_fold`] chains such as [`state_digest`].
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one value into an FNV-1a accumulator, byte by byte.
///
/// This is the single authoritative hash core behind every determinism
/// fingerprint in the workspace ([`state_digest`],
/// [`crate::shard::ShardedQueueManager::state_digest`], the scale
/// experiment's row fingerprint in `npqm-traffic`): the CI
/// `parallel-determinism` diff compares these values across thread
/// counts, so all producers must fold identically.
pub fn fnv1a_fold(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().into_iter().fold(hash, |acc, byte| {
        (acc ^ byte as u64).wrapping_mul(FNV_PRIME)
    })
}

use fnv1a_fold as fnv1a;

/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// What folding one empty queue does to the accumulator: its five zero
/// `u64` words are 40 zero bytes, and `(h ^ 0) * P = h * P`, so the
/// whole record multiplies `h` by `P⁴⁰` (all arithmetic mod 2⁶⁴).
const EMPTY_QUEUE_FOLD: u64 = FNV_PRIME.wrapping_pow(40);

/// A deterministic fingerprint of the engine's complete observable state.
///
/// Walks every queue in flow order — packet chains, segment chains and
/// the **payload bytes** themselves — plus the free-space counters and
/// the operation statistics, folding everything into one FNV-1a hash.
/// The walk is side-effect free (it uses the silent accessors, so no
/// access counter moves), which makes the digest safe to take mid-test.
///
/// Only occupied flows are visited. An empty queue contributes five
/// zero words and no chain, and XOR with a zero byte is the identity,
/// so folding it is exactly a multiply by `P⁴⁰` (`P` the FNV prime); a
/// run of `k` empty queues between two occupied ones folds in one step
/// as a multiply by `(P⁴⁰)ᵏ`. The digest is therefore bit-identical to
/// a fold of every queue, at a cost that follows the backlog.
///
/// Two engines with equal digests executed behaviourally identical
/// histories for every practical purpose; the parallel-equivalence
/// property tests use this to prove that
/// [`crate::shard::ShardedQueueManager::execute_batch_parallel`] leaves
/// *exactly* the state serial replay does, and `table7 --check` includes
/// it in the machine-readable determinism report.
pub fn state_digest(qm: &QueueManager) -> u64 {
    let flows = qm.cfg.num_flows() as usize;
    let mut h = fold_header(qm);
    let mut from = 0;
    loop {
        let f = qm.ptr.next_occupied(from).unwrap_or(flows);
        h = h.wrapping_mul(EMPTY_QUEUE_FOLD.wrapping_pow((f - from) as u32));
        if f == flows {
            return fold_trailer(qm, h);
        }
        h = fold_queue(qm, h, FlowId::new(f as u32));
        from = f + 1;
    }
}

/// [`state_digest`] folding every queue, the reference the run fold is
/// tested against.
#[cfg(test)]
pub(crate) fn state_digest_dense(qm: &QueueManager) -> u64 {
    let h = (0..qm.cfg.num_flows()).fold(fold_header(qm), |h, f| fold_queue(qm, h, FlowId::new(f)));
    fold_trailer(qm, h)
}

fn fold_header(qm: &QueueManager) -> u64 {
    let h = fnv1a(FNV_OFFSET_BASIS, qm.cfg.num_flows() as u64);
    fnv1a(h, qm.cfg.num_segments() as u64)
}

/// Folds one queue's record, packet chain, segment chain and payload.
fn fold_queue(qm: &QueueManager, mut h: u64, flow: FlowId) -> u64 {
    let pm = &qm.ptr;
    let q = pm.queue_silent(flow);
    h = fnv1a(h, u64::from(q.pkts));
    h = fnv1a(h, u64::from(q.complete_pkts));
    h = fnv1a(h, u64::from(q.segs));
    h = fnv1a(h, q.bytes);
    h = fnv1a(h, u64::from(q.open));
    let mut pid = q.head_pkt;
    while !pid.is_nil() {
        let pr = pm.pkt_silent(pid);
        h = fnv1a(h, u64::from(pr.segs));
        h = fnv1a(h, u64::from(pr.bytes));
        h = fnv1a(h, u64::from(pr.started));
        h = fnv1a(h, u64::from(pr.eop));
        h = fnv1a(h, u64::from(pr.work));
        let mut seg = pr.first;
        while !seg.is_nil() {
            let rec = pm.seg_silent(seg);
            h = fnv1a(h, u64::from(rec.len));
            for &b in qm.data.read_silent(seg, rec.len as usize) {
                h = fnv1a(h, u64::from(b));
            }
            if seg == pr.last {
                break;
            }
            seg = rec.next;
        }
        pid = pr.next_pkt;
    }
    h
}

/// Folds the free-space counters and the operation statistics.
fn fold_trailer(qm: &QueueManager, mut h: u64) -> u64 {
    h = fnv1a(h, u64::from(qm.free_segments()));
    h = fnv1a(h, u64::from(qm.free_packet_records()));
    let s = qm.stats();
    for v in [
        s.enqueues,
        s.dequeues,
        s.reads,
        s.overwrites,
        s.len_overwrites,
        s.seg_deletes,
        s.pkt_deletes,
        s.head_appends,
        s.tail_appends,
        s.moves,
        s.bytes_in,
        s.bytes_out,
        s.errors,
    ] {
        h = fnv1a(h, v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::manager::SegmentPosition;

    #[test]
    fn fresh_engine_verifies() {
        let qm = QueueManager::new(QmConfig::small());
        let report = verify(&qm).unwrap();
        assert_eq!(report.segments_used, 0);
        assert_eq!(report.segments_free, 512);
        assert_eq!(report.packets_free, 512);
        assert_eq!(report.queues, 64);
    }

    #[test]
    fn busy_engine_verifies_and_counts() {
        let mut qm = QueueManager::new(QmConfig::small());
        for f in 0..8u32 {
            qm.enqueue_packet(FlowId::new(f), &[f as u8; 100]).unwrap();
        }
        let report = verify(&qm).unwrap();
        assert_eq!(report.segments_used, 16); // 2 per packet
        assert_eq!(report.packets_used, 8);
        assert_eq!(report.segments_free, 512 - 16);
        assert_eq!(report.payload_bytes, 8 * 100);
    }

    #[test]
    fn open_packet_verifies() {
        let mut qm = QueueManager::new(QmConfig::small());
        qm.enqueue(FlowId::new(0), &[1; 64], SegmentPosition::First)
            .unwrap();
        verify(&qm).unwrap();
    }

    /// Injects the exact corruption the pre-fix `move_packet` produced —
    /// a complete packet spliced behind an open (mid-SAR) tail — and
    /// confirms the checker now sees it. Before the EOP-tracking
    /// invariant was added, `verify` passed on this state and the torn
    /// packet was only observable once a wrong-sized frame was dequeued.
    #[test]
    fn checker_detects_complete_packet_behind_open_tail() {
        let mut qm = QueueManager::new(QmConfig::small());
        let a = FlowId::new(0);
        let b = FlowId::new(1);
        qm.enqueue(a, &[1; 64], SegmentPosition::First).unwrap();
        qm.enqueue_packet(b, &[2u8; 64]).unwrap();
        verify(&qm).unwrap();

        // Replay the old buggy splice by hand: unlink b's complete packet
        // and link it after a's open tail, with all counters "fixed up"
        // the way the old code fixed them up.
        let mut bq = qm.ptr.queue_silent(b);
        let pid = bq.head_pkt;
        let pr = qm.ptr.pkt_silent(pid);
        bq.head_pkt = crate::id::PacketId::NIL;
        bq.tail_pkt = crate::id::PacketId::NIL;
        bq.pkts = 0;
        bq.complete_pkts = 0;
        bq.segs = 0;
        bq.bytes = 0;
        qm.ptr.set_queue(b, bq);

        let mut aq = qm.ptr.queue_silent(a);
        let tail = aq.tail_pkt;
        let mut tail_pr = qm.ptr.pkt_silent(tail);
        tail_pr.next_pkt = pid;
        qm.ptr.set_pkt(tail, tail_pr);
        aq.tail_pkt = pid;
        aq.pkts += 1;
        aq.complete_pkts += 1;
        aq.segs += pr.segs;
        aq.bytes += pr.bytes as u64;
        qm.ptr.set_queue(a, aq);

        let err = verify(&qm).unwrap_err();
        assert!(err.what.contains("EOP"), "unexpected violation: {err}");
    }

    #[test]
    fn checker_detects_a_flipped_occupancy_bit() {
        let mut qm = QueueManager::new(QmConfig::small());
        qm.enqueue_packet(FlowId::new(5), &[5; 64]).unwrap();
        verify(&qm).unwrap();
        // A set bit on an empty flow, and a clear bit on a busy one.
        for flow in [FlowId::new(63), FlowId::new(5)] {
            qm.ptr.flip_occupied(flow);
            let err = verify(&qm).unwrap_err();
            assert!(
                err.what.contains("occupancy bit") && err.what.contains(&flow.to_string()),
                "unexpected violation: {err}"
            );
            qm.ptr.flip_occupied(flow);
            verify(&qm).unwrap();
        }
    }

    #[test]
    fn run_fold_matches_the_dense_fold() {
        let mut qm = QueueManager::new(QmConfig::small());
        assert_eq!(state_digest(&qm), state_digest_dense(&qm));
        for f in [0u32, 1, 62, 63] {
            qm.enqueue_packet(FlowId::new(f), &[f as u8; 90]).unwrap();
        }
        qm.enqueue(FlowId::new(33), &[7; 64], SegmentPosition::First)
            .unwrap();
        assert_eq!(state_digest(&qm), state_digest_dense(&qm));
    }

    #[test]
    fn report_default_and_display() {
        assert_eq!(InvariantReport::default().queues, 0);
        let v = InvariantViolation {
            what: "x".to_string(),
        };
        assert_eq!(v.to_string(), "invariant violated: x");
    }
}
