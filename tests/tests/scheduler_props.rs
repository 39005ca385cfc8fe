//! Scheduler-equivalence properties: the calendar queue must be
//! observationally identical to a binary-heap oracle.
//!
//! The DES engine's determinism contract is a single `(time, seq)`
//! total order over events; the calendar queue is allowed to change
//! the *cost* of maintaining that order, never the order itself.
//! These properties drive the calendar queue and a plain
//! `std::collections::BinaryHeap` keyed on `(time, seq)` through the
//! same randomized
//! schedule — quantized times to force exact ties, a heavy-tailed
//! band to force far-future buckets, and interleaved pops so the
//! calendar's current-bucket cursor rewinds and resizes mid-run —
//! and require the popped `(time-bits, id)` sequences to match
//! element for element.

use proptest::prelude::*;
use simcore::queue::EventQueue;
use simcore::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of a randomized schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at this many seconds (payload is the push index).
    Push(f64),
    /// Pop once from both queues and compare.
    Pop,
}

/// Mixes three time regimes so the calendar gets no free pass:
/// quantized times collide exactly (FIFO ties must hold), continuous
/// times scatter across buckets, and far-future times land orders of
/// magnitude past the current bucket ring. Weights (out of 9): 3
/// quantized pushes, 2 continuous, 1 far-future, 3 pops.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..9, 0u32..200, 0.0f64..100.0).prop_map(|(sel, q, secs)| match sel {
        0..=2 => Op::Push(f64::from(q) * 0.25),
        3 | 4 => Op::Push(secs),
        5 => Op::Push(secs * 1.0e9),
        _ => Op::Pop,
    })
}

/// The oracle's pop: the `(time, seq)` minimum. The push index is the
/// sequence number, as in [`EventQueue`].
fn heap_pop(heap: &mut BinaryHeap<Reverse<(SimTime, u64)>>) -> Option<(SimTime, u64)> {
    heap.pop().map(|Reverse(entry)| entry)
}

/// Runs one schedule against the calendar queue and the heap oracle,
/// comparing every pop (and the final drain) for identical
/// `(time, id)`.
fn check_schedule(ops: &[Op]) {
    let mut cal = EventQueue::new();
    let mut heap = BinaryHeap::new();
    let mut id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(secs) => {
                let time = SimTime::from_secs(secs);
                cal.push(time, id);
                heap.push(Reverse((time, id)));
                id += 1;
            }
            Op::Pop => {
                let c = cal.pop();
                let h = heap_pop(&mut heap);
                assert_eq!(
                    c.map(|(t, e)| (t.as_secs().to_bits(), e)),
                    h.map(|(t, e)| (t.as_secs().to_bits(), e)),
                    "pop diverged at step {step}"
                );
            }
        }
        assert_eq!(cal.len(), heap.len(), "length diverged at step {step}");
    }
    while let Some(h) = heap_pop(&mut heap) {
        let c = cal.pop().expect("calendar drained early");
        assert_eq!(
            (c.0.as_secs().to_bits(), c.1),
            (h.0.as_secs().to_bits(), h.1),
            "drain diverged"
        );
    }
    assert!(cal.is_empty(), "calendar kept events the heap drained");
}

proptest! {
    /// Randomized push/pop interleavings, ties and far-future events
    /// included: identical pop sequences.
    #[test]
    fn backends_pop_identical_sequences(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_schedule(&ops);
    }

    /// All-ties schedules: every event at one instant, so the order
    /// is pure FIFO by sequence number on both queues.
    #[test]
    fn exact_ties_stay_fifo(at in 0.0f64..1.0e6, n in 1usize..300) {
        let ops: Vec<Op> = std::iter::repeat_n(Op::Push(at), n)
            .chain(std::iter::repeat_n(Op::Pop, n))
            .collect();
        check_schedule(&ops);
    }
}

/// A directed worst case no random schedule reliably hits: a dense
/// near-term cluster plus one event so far out the calendar must skip
/// nearly its whole ring (or resize) to find it — then events pushed
/// *behind* the cursor after that jump.
#[test]
fn far_future_then_backfill() {
    let mut ops: Vec<Op> = (0..64).map(|i| Op::Push(f64::from(i) * 0.125)).collect();
    ops.push(Op::Push(3.0e12));
    ops.extend(std::iter::repeat_n(Op::Pop, 65));
    ops.extend((0..64).map(|i| Op::Push(f64::from(i) * 0.125)));
    ops.push(Op::Pop);
    check_schedule(&ops);
}
