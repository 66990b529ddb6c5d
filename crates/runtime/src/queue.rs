//! The event queue: a binary min-heap over `(time, seq)` keys.
//!
//! The engine holds at most one pending event per resource (the fabric
//! and each CGC slot) plus one deadline per queued job, and an in-flight
//! event's job lives on the resource that runs it, so entries are small
//! and the heap stays shallow — without deadlines it never holds more
//! than `1 + cgc_slots` events. A [`BinaryHeap`] is the cheapest
//! structure at that size.
//!
//! Ordering is **total and deterministic**: events are keyed by
//! `(time, seq)` exactly like the heap oracle in `sim.rs`, and the pop
//! always selects the minimum key, so insertion order never influences
//! the processing order.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event-structure statistics of a run — the `queue` half of a
/// [`RuntimeReport`](crate::RuntimeReport)'s `metrics`.
///
/// All fields derive purely from the deterministic event stream, so
/// two runs of one scenario snapshot identical stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueueStats {
    /// Events scheduled over the run.
    pub events: u64,
    /// Always 0: a binary heap never rehashes. The field stays so the
    /// JSON `queue` object and the `queue.rehashes` metric keep the
    /// shape their readers (the benchmark among them) expect.
    pub rehashes: u64,
    /// Peak simultaneous occupancy.
    pub peak_occupancy: u64,
}

/// One scheduled event: `(time, seq)` key plus payload. Entries compare
/// by key alone, so payloads need no ordering of their own.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> Ord for Entry<T> {
    /// Reversed key order, so the max-heap pops the minimum key.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

/// A min-queue of payloads `T`, totally ordered by `(time, seq)`, that
/// counts what it schedules.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Lifetime push count.
    events: u64,
    /// Peak length observed.
    peak: usize,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: 0,
            peak: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Snapshot the lifetime counters.
    pub(crate) fn stats(&self) -> QueueStats {
        QueueStats {
            events: self.events,
            rehashes: 0,
            peak_occupancy: self.peak as u64,
        }
    }

    /// Schedule `item` at `time` with tie-breaker `seq`.
    pub(crate) fn push(&mut self, time: u64, seq: u64, item: T) {
        self.heap.push(Entry { time, seq, item });
        self.events += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// The minimum `(time, seq)` key, or `None` when empty.
    pub(crate) fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Remove and return the minimum-key event.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_key(q: &mut EventQueue<u32>) -> Option<(u64, u64)> {
        q.pop().map(|(t, s, _)| (t, s))
    }

    /// Drain the queue, asserting the pop order is exactly the sorted
    /// `(time, seq)` order.
    fn drain_sorted(q: &mut EventQueue<u32>, mut expect: Vec<(u64, u64)>) {
        expect.sort_unstable();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| pop_key(q)).collect();
        assert_eq!(popped, expect);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pops_in_total_key_order() {
        let mut q = EventQueue::new();
        let keys = [
            (50u64, 0u64),
            (10, 1),
            (10, 0),
            (1_000_000, 2),
            (0, 3),
            (50, 4),
        ];
        for &(t, s) in &keys {
            q.push(t, s, 0);
        }
        assert_eq!(q.peek_key(), Some((0, 3)));
        let stats = q.stats();
        assert_eq!(stats.events, 6);
        assert_eq!(stats.peak_occupancy, 6);
        assert_eq!(stats.rehashes, 0);
        drain_sorted(&mut q, keys.to_vec());
        assert_eq!(q.stats().peak_occupancy, 6, "peak survives the drain");

        // A deep heap: scattered times, seqs pushed in descending order.
        let mut q = EventQueue::new();
        let keys: Vec<(u64, u64)> = (0..2_000u64)
            .map(|s| ((s * 7919) % 50_021, 2_000 - s))
            .collect();
        for &(t, s) in &keys {
            q.push(t, s, 0);
        }
        assert_eq!(q.stats().peak_occupancy, 2_000);
        drain_sorted(&mut q, keys);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(5, 0, 0);
        q.push(700, 1, 0);
        assert_eq!(pop_key(&mut q), Some((5, 0)));
        // Push an event earlier than the pending one but after the
        // popped one (the simulator only schedules at or after `now`).
        q.push(6, 2, 0);
        q.push(1 << 40, 3, 0);
        assert_eq!(pop_key(&mut q), Some((6, 2)));
        assert_eq!(pop_key(&mut q), Some((700, 1)));
        assert_eq!(q.peek_key(), Some((1 << 40, 3)));
        assert_eq!(pop_key(&mut q), Some((1 << 40, 3)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().events, 4);
        assert_eq!(q.stats().peak_occupancy, 3);
    }

    #[test]
    fn times_near_the_end_of_the_clock_stay_ordered() {
        let mut q = EventQueue::new();
        q.push(u64::MAX, 2, 0);
        q.push(u64::MAX - 3, 1, 0);
        q.push(1 << 50, 0, 0);
        q.push(u64::MAX, 0, 0);
        drain_sorted(
            &mut q,
            vec![
                (u64::MAX, 2),
                (u64::MAX - 3, 1),
                (1 << 50, 0),
                (u64::MAX, 0),
            ],
        );
    }

    #[test]
    fn equal_times_break_ties_by_seq_not_insertion() {
        let mut q = EventQueue::new();
        q.push(42, 9, 1);
        q.push(42, 3, 2);
        q.push(42, 7, 3);
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop().map(|(_, s, i)| (s, i))).collect();
        assert_eq!(
            order,
            vec![(3, 2), (7, 3), (9, 1)],
            "payloads follow their keys"
        );
    }
}
