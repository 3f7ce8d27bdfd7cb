//! Differential property tests for the queue table's occupancy bitmap.
//!
//! Random enqueue, dequeue, SAR-open and abort sequences run on engines
//! whose flow count is not a multiple of 64, so occupied runs cross word
//! boundaries. Everything the bitmap drives is compared against a dense
//! reference that visits every flow: [`state_digest`] against
//! [`state_digest_dense`], and [`DeficitRoundRobin`] against a
//! [`DrrCore`] whose candidate function is the identity.

use crate::check::{state_digest, state_digest_dense};
use crate::sched::{DeficitRoundRobin, DrrCore, FlowScheduler};
use crate::{FlowId, QmConfig, QueueError, QueueManager, SegmentPosition};
use proptest::collection::vec;
use proptest::prelude::*;

/// One engine operation; flows are reduced modulo the engine's count.
#[derive(Debug, Clone)]
enum Op {
    /// `enqueue_packet`: aborts its open tail if segments run out midway.
    Packet {
        flow: u32,
        len: usize,
    },
    /// One SAR segment (`Only`, `First`, `Middle` or `Last`).
    Sar {
        flow: u32,
        pos: u8,
        len: usize,
    },
    Dequeue {
        flow: u32,
    },
    DequeuePacket {
        flow: u32,
    },
    DeletePacket {
        flow: u32,
    },
    Move {
        src: u32,
        dst: u32,
    },
    /// Let the scheduler pick a flow and dequeue its head packet.
    Serve,
}

/// A flow index: uniform, or the first or last two bits of a word.
fn flow() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..256,
        (0u32..4, 0usize..4).prop_map(|(w, k)| 64 * w + [0, 1, 62, 63][k]),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (flow(), 1usize..400).prop_map(|(flow, len)| Op::Packet { flow, len }),
        (flow(), 0u8..4, 1usize..65).prop_map(|(flow, pos, len)| Op::Sar { flow, pos, len }),
        flow().prop_map(|flow| Op::Dequeue { flow }),
        flow().prop_map(|flow| Op::DequeuePacket { flow }),
        flow().prop_map(|flow| Op::DeletePacket { flow }),
        (flow(), flow()).prop_map(|(src, dst)| Op::Move { src, dst }),
        (0u32..1).prop_map(|_| Op::Serve),
        (0u32..1).prop_map(|_| Op::Serve),
    ]
}

/// An engine with `64 * words + extra` flows (`extra` in `1..64`) and
/// few enough segments that multi-segment enqueues run out midway.
fn engine(words: u32, extra: u32) -> QueueManager {
    let cfg = QmConfig::builder()
        .num_flows(64 * words + extra)
        .num_segments(40)
        .segment_bytes(64)
        .build()
        .unwrap();
    QueueManager::new(cfg)
}

/// Applies a non-`Serve` op; errors are part of the sequence.
fn apply(qm: &mut QueueManager, op: &Op) {
    let n = qm.config().num_flows();
    let f = |x: u32| FlowId::new(x % n);
    let payload = |len: usize| vec![len as u8; len];
    let _ = match *op {
        Op::Packet { flow, len } => qm.enqueue_packet(f(flow), &payload(len)),
        Op::Sar { flow, pos, len } => {
            let pos = [
                SegmentPosition::Only,
                SegmentPosition::First,
                SegmentPosition::Middle,
                SegmentPosition::Last,
            ][pos as usize];
            qm.enqueue(f(flow), &payload(len), pos).map(drop)
        }
        Op::Dequeue { flow } => qm.dequeue(f(flow)).map(drop),
        Op::DequeuePacket { flow } => rest_of_packet(qm, f(flow)).map(drop),
        Op::DeletePacket { flow } => qm.delete_packet(f(flow)).map(drop),
        Op::Move { src, dst } => qm.move_packet(f(src), f(dst)),
        Op::Serve => Ok(()),
    };
}

/// Dequeues the rest of `flow`'s head packet segment by segment (unlike
/// `dequeue_packet`, this may finish a partly served head) and returns
/// the bytes served.
fn rest_of_packet(qm: &mut QueueManager, flow: FlowId) -> Result<usize, QueueError> {
    let mut bytes = 0;
    loop {
        let seg = qm.dequeue(flow)?;
        bytes += seg.data.len();
        if seg.eop {
            return Ok(bytes);
        }
    }
}

/// The dense reference pick: the same loop over every slot.
fn dense_pick(reference: &mut DrrCore, qm: &QueueManager) -> Option<FlowId> {
    let complete = |slot: usize| qm.complete_packets(FlowId::new(slot as u32));
    reference
        .next(
            Some,
            |slot| {
                (complete(slot) > 0)
                    .then(|| qm.head_packet_bytes(FlowId::new(slot as u32)).unwrap_or(0))
            },
            |slot| complete(slot) == 0,
        )
        .map(|slot| FlowId::new(slot as u32))
}

/// Serves one packet through `drr` and the dense reference, failing on
/// the first disagreement. Returns the flow served, if any.
fn serve_both(
    qm: &mut QueueManager,
    drr: &mut DeficitRoundRobin,
    reference: &mut DrrCore,
) -> Result<Option<FlowId>, TestCaseError> {
    let pick = drr.next_flow(qm);
    prop_assert_eq!(pick, dense_pick(reference, qm));
    if let Some(flow) = pick {
        let bytes = rest_of_packet(qm, flow).map_err(|e| TestCaseError::fail(e.to_string()))?;
        drr.served(flow, bytes);
        reference.served(flow.as_usize(), bytes);
    }
    Ok(pick)
}

/// Whether a flow the scheduler covers still holds a complete packet.
fn backlogged(qm: &QueueManager, slots: usize) -> bool {
    (0..slots.min(qm.config().num_flows() as usize))
        .any(|i| qm.complete_packets(FlowId::new(i as u32)) > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The run fold equals the dense fold after every step, and `verify`
    /// (which polices the bitmap) passes.
    #[test]
    fn run_fold_digest_equals_dense_fold(
        words in 0u32..4,
        extra in 1u32..64,
        ops in vec(op(), 1..120),
    ) {
        let mut qm = engine(words, extra);
        for op in &ops {
            apply(&mut qm, op);
            if matches!(op, Op::Serve) {
                // Drain a whole packet from the first occupied flow.
                let first = qm.ptr.next_occupied(0).map(|i| FlowId::new(i as u32));
                if let Some(flow) = first {
                    let _ = rest_of_packet(&mut qm, flow);
                }
            }
            prop_assert_eq!(state_digest(&qm), state_digest_dense(&qm), "after {:?}", op);
            if let Err(e) = qm.verify() {
                return Err(TestCaseError::fail(format!("after {op:?}: {e}")));
            }
        }
    }

    /// `DeficitRoundRobin` picks exactly what a dense `DrrCore` picks,
    /// with more or fewer quanta than the engine has flows.
    #[test]
    fn occupancy_drr_equals_dense_drr(
        words in 0u32..4,
        extra in 1u32..64,
        quanta in vec(prop_oneof![1u32..4, 1u32..1600], 1..300),
        ops in vec(op(), 1..120),
    ) {
        let mut qm = engine(words, extra);
        let mut drr = DeficitRoundRobin::new(quanta.clone());
        let mut reference = DrrCore::new(quanta.clone());
        for op in &ops {
            apply(&mut qm, op);
            if matches!(op, Op::Serve) {
                serve_both(&mut qm, &mut drr, &mut reference)?;
            }
        }
        while serve_both(&mut qm, &mut drr, &mut reference)?.is_some() {}
        prop_assert!(!backlogged(&qm, quanta.len()), "stopped with a flow backlogged");
    }

    /// With 1-byte quanta every pick takes many rounds; DRR must still
    /// never report idle while a covered flow holds a complete packet.
    #[test]
    fn one_byte_quanta_never_report_idle_while_backlogged(
        words in 0u32..3,
        extra in 1u32..64,
        slots in 1usize..200,
        ops in vec(op(), 1..60),
    ) {
        let mut qm = engine(words, extra);
        let mut drr = DeficitRoundRobin::new(vec![1; slots]);
        let mut reference = DrrCore::new(vec![1; slots]);
        for op in &ops {
            apply(&mut qm, op);
            let was_backlogged = backlogged(&qm, slots);
            let pick = serve_both(&mut qm, &mut drr, &mut reference)?;
            prop_assert_eq!(pick.is_some(), was_backlogged, "after {:?}", op);
        }
    }
}
