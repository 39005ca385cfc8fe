//! Deterministic event queue.
//!
//! Orders entries by `(time, sequence)` so events scheduled for the
//! same instant pop in insertion order. Determinism matters: the whole
//! workspace relies on bit-identical replays for regression tests.
//!
//! The queue is a calendar queue (R. Brown, CACM 1988): events hash
//! into `buckets` by truncated `time / width`, the pop cursor walks
//! the current "year" and each bucket keeps its entries
//! `(time, seq)`-sorted. Amortized O(1) push/pop when the bucket width
//! tracks the mean event spacing, which a full resize-and-recalibrate
//! pass maintains as the queue grows and shrinks. This is what lets
//! the DES sustain millions of scheduled events per run.
//!
//! Because `(time, seq)` is a total order with unique `seq`, *any*
//! correct priority queue yields the same pop sequence. The tests
//! below and the scheduler-equivalence property suite hold the
//! calendar to a plain `std::collections::BinaryHeap` oracle.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A timestamped FIFO-stable priority queue of events.
///
/// # Examples
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2.0), "late");
/// q.push(SimTime::from_secs(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    cal: Calendar<E>,
    seq: u64,
}

/// Smallest bucket count; the array doubles/halves between this and
/// whatever the live event population demands.
const MIN_BUCKETS: usize = 4;
/// Resize sample: how many head-of-queue events inform the new width.
const WIDTH_SAMPLE: usize = 64;
/// Classic calendar-queue rule of thumb: a year-day spans about three
/// mean inter-event gaps, so a bucket holds ~1-2 events.
const WIDTH_GAP_FACTOR: f64 = 3.0;

#[derive(Debug)]
struct CalEntry<E> {
    time: SimTime,
    seq: u64,
    /// Precomputed virtual bucket index `trunc(time / width)`. Integer
    /// comparison against the scan cursor sidesteps float boundary
    /// rounding: an entry is "due this day" iff `virt == cursor`,
    /// exactly.
    virt: u64,
    event: E,
}

#[derive(Debug)]
struct Calendar<E> {
    /// `buckets.len()` is a power of two; `virt & mask` indexes it.
    buckets: Vec<VecDeque<CalEntry<E>>>,
    mask: u64,
    /// Reciprocal bucket width (1/seconds): `virt = trunc(t * inv_width)`.
    inv_width: f64,
    /// Lower bound on the `virt` of every pending entry: pushes rewind
    /// it, pops only advance past provably empty virtual days.
    cur_virt: u64,
    count: usize,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: (MIN_BUCKETS as u64) - 1,
            inv_width: 1.0,
            cur_virt: 0,
            count: 0,
        }
    }

    /// Virtual day of `time` under the current width. `SimTime` is
    /// non-negative and never NaN, the `as` cast saturates at
    /// `u64::MAX`, and truncation of `t * inv_width` is weakly monotone
    /// in `t` — so earlier times never map to later days.
    fn virt_of(&self, time: SimTime) -> u64 {
        (time.as_secs() * self.inv_width) as u64
    }

    fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let virt = self.virt_of(time);
        let idx = (virt & self.mask) as usize;
        let bucket = &mut self.buckets[idx];
        // Buckets stay (time, seq)-sorted; ties in time share a virt
        // (same width) and therefore a bucket, so seq breaks them here.
        let pos = bucket.partition_point(|e| (e.time, e.seq) < (time, seq));
        bucket.insert(
            pos,
            CalEntry {
                time,
                seq,
                virt,
                event,
            },
        );
        self.cur_virt = self.cur_virt.min(virt);
        self.count += 1;
        if self.count > 2 * self.buckets.len() {
            let doubled = 2 * self.buckets.len();
            self.resize(doubled);
        }
    }

    /// Pops the global `(time, seq)` minimum, or — with a bound — only
    /// if that minimum is at or before `bound`. The scan cursor always
    /// ends on the minimum's virtual day, so a bounded refusal still
    /// pays its scan cost only once.
    fn pop_min(&mut self, bound: Option<SimTime>) -> Option<(SimTime, E)> {
        if self.count == 0 {
            return None;
        }
        // Walk at most one full year from the cursor. Every entry with
        // `virt == cur_virt` lives in bucket `cur_virt & mask` as a
        // sorted prefix, so a front with a later virt proves the whole
        // day empty and the cursor may advance.
        for _ in 0..self.buckets.len() {
            let idx = (self.cur_virt & self.mask) as usize;
            if let Some(front) = self.buckets[idx].front() {
                if front.virt == self.cur_virt {
                    if bound.is_some_and(|b| front.time > b) {
                        return None;
                    }
                    return self.take_front(idx);
                }
            }
            self.cur_virt = self.cur_virt.saturating_add(1);
        }
        // Sparse regime: a whole year was empty. Find the minimum
        // across bucket fronts directly (each front is its bucket's
        // minimum; equal times imply equal virts imply the same bucket,
        // so fronts never tie across buckets) and jump the cursor.
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(front) = bucket.front() {
                let key = (front.time, front.seq);
                if best.is_none_or(|(t, s, _)| key < (t, s)) {
                    best = Some((front.time, front.seq, idx));
                }
            }
        }
        let (time, _, idx) = best?;
        if let Some(front) = self.buckets[idx].front() {
            self.cur_virt = front.virt;
        }
        if bound.is_some_and(|b| time > b) {
            return None;
        }
        self.take_front(idx)
    }

    fn take_front(&mut self, idx: usize) -> Option<(SimTime, E)> {
        let entry = self.buckets[idx].pop_front()?;
        self.count -= 1;
        if self.count < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            let halved = self.buckets.len() / 2;
            self.resize(halved);
        }
        Some((entry.time, entry.event))
    }

    /// Next event time without removal: the same scan as [`pop_min`],
    /// minus cursor movement and the pop.
    fn peek_time(&self) -> Option<SimTime> {
        if self.count == 0 {
            return None;
        }
        let mut virt = self.cur_virt;
        for _ in 0..self.buckets.len() {
            let idx = (virt & self.mask) as usize;
            if let Some(front) = self.buckets[idx].front() {
                if front.virt == virt {
                    return Some(front.time);
                }
            }
            virt = virt.saturating_add(1);
        }
        self.buckets
            .iter()
            .filter_map(|b| b.front())
            .map(|front| (front.time, front.seq))
            .min()
            .map(|(time, _)| time)
    }

    /// Rebuilds the bucket array at `new_len` (a power of two),
    /// recalibrating the bucket width to ~[`WIDTH_GAP_FACTOR`] mean
    /// inter-event gaps measured over the [`WIDTH_SAMPLE`] earliest
    /// entries. Sampling from the head keeps one far-future sentinel
    /// (e.g. a horizon timeout) from stretching the width until every
    /// near-term event collapses into one bucket.
    fn resize(&mut self, new_len: usize) {
        let mut all: Vec<CalEntry<E>> = Vec::with_capacity(self.count);
        for bucket in &mut self.buckets {
            all.extend(bucket.drain(..));
        }
        all.sort_unstable_by_key(|a| (a.time, a.seq));

        let sample = &all[..all.len().min(WIDTH_SAMPLE)];
        if sample.len() >= 2 {
            let span = sample[sample.len() - 1].time.as_secs() - sample[0].time.as_secs();
            let gap = span / (sample.len() - 1) as f64;
            let width = WIDTH_GAP_FACTOR * gap;
            if width.is_finite() && width > 0.0 {
                self.inv_width = width.recip();
            }
        }

        self.buckets = (0..new_len).map(|_| VecDeque::new()).collect();
        self.mask = (new_len as u64) - 1;
        self.cur_virt = match all.first() {
            Some(first) => self.virt_of(first.time),
            None => 0,
        };
        // Reinserting in ascending global order keeps every bucket
        // internally sorted with plain push_back.
        for mut entry in all {
            entry.virt = self.virt_of(entry.time);
            let idx = (entry.virt & self.mask) as usize;
            self.buckets[idx].push_back(entry);
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            cal: Calendar::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.cal.push(time, seq, event);
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.cal.pop_min(None)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `horizon`; leaves the queue untouched otherwise. One call
    /// replaces the peek-then-pop pair in the executor's hot loop.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.cal.pop_min(Some(horizon))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cal.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.cal.count
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[3.0, 1.0, 2.0] {
            q.push(t(s), s as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(1.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(t(5.0), ());
        q.push(t(4.0), ());
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert_eq!(q.pop().unwrap().0, t(4.0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::<()>::default();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        q.push(t(3.0), "b");
        assert_eq!(q.pop_before(t(2.0)).map(|(_, e)| e), Some("a"));
        assert_eq!(q.pop_before(t(2.0)), None);
        assert_eq!(q.len(), 1, "refused pop must not consume");
        assert_eq!(q.pop_before(t(3.0)).map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    /// A mixed interleaving of pushes and pops — enough volume to force
    /// several calendar resizes in both directions — must pop in the
    /// exact order a `BinaryHeap` oracle keyed on `(time, seq)` does.
    #[test]
    fn backends_pop_identically_under_churn() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeap::new();
        // Deterministic pseudo-random schedule: LCG times, batches of
        // pushes separated by partial drains, plus exact ties and a
        // far-future sentinel. The id doubles as the oracle's `seq`.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut id = 0u32;
        let mut popped_cal = Vec::new();
        let mut popped_heap = Vec::new();
        let oracle_pop =
            |heap: &mut BinaryHeap<Reverse<(SimTime, u32)>>| heap.pop().map(|Reverse(entry)| entry);
        for round in 0..40 {
            for _ in 0..50 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let secs = (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                let time = t(if round % 7 == 0 { secs.floor() } else { secs });
                cal.push(time, id);
                heap.push(Reverse((time, id)));
                id += 1;
            }
            if round == 5 {
                let far = t(f64::MAX);
                cal.push(far, id);
                heap.push(Reverse((far, id)));
                id += 1;
            }
            for _ in 0..30 {
                popped_cal.push(cal.pop());
                popped_heap.push(oracle_pop(&mut heap));
            }
        }
        while let Some(p) = cal.pop() {
            popped_cal.push(Some(p));
        }
        while let Some(p) = oracle_pop(&mut heap) {
            popped_heap.push(Some(p));
        }
        assert_eq!(popped_cal, popped_heap);
        assert!(cal.is_empty() && heap.is_empty());
    }

    /// The year-scan must hand over to the direct search when the next
    /// event is many empty years ahead, without losing order.
    #[test]
    fn sparse_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(t(0.25), 0u32);
        q.push(t(1e9), 1);
        q.push(t(1e12), 2);
        q.push(t(f64::MAX), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Draining far below the grow threshold must shrink the bucket
    /// array back down and keep popping correctly.
    #[test]
    fn growth_and_shrink_round_trip() {
        let mut q = EventQueue::new();
        let n = 10_000u32;
        for i in 0..n {
            q.push(t(f64::from(i % 97) * 0.5), i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = (t(0.0), 0u32);
        let mut seen = 0;
        while let Some((time, e)) = q.pop() {
            if seen > 0 {
                assert!((time, e) > last, "order violated at {seen}");
            }
            last = (time, e);
            seen += 1;
        }
        assert_eq!(seen, n);
    }
}
