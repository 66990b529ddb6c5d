//! The event core: one pending-event slot per resource plus a FIFO lane
//! of deadlines.
//!
//! The engine holds at most one pending event per resource (the fabric
//! and each CGC slot), because an in-flight event's job lives on the
//! resource that runs it. The only other events are deadlines, one per
//! admitted job when deadlines are on. A reap time is `arrival +
//! deadline` and arrivals never decrease, so deadlines are scheduled in
//! non-decreasing `(time, seq)` order and a FIFO keeps them sorted.
//! [`EventLanes`] therefore needs no heap: the next event is the
//! smallest `(time, seq)` among the lane heads. That head is cached on
//! every push and found again by a scan over the lanes on every pop.
//!
//! Ordering is **total and deterministic**: the pop always selects the
//! minimum `(time, seq)` key over every pending event — exactly the
//! order of a binary min-heap holding them all, the `#[cfg(test)]`
//! `EventQueue` kept here as the differential oracle — so insertion
//! order never influences the processing order.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Event-structure statistics of a run — the `queue` half of a
/// [`RuntimeReport`](crate::RuntimeReport)'s `metrics`.
///
/// All fields derive purely from the deterministic event stream, so
/// two runs of one scenario snapshot identical stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueueStats {
    /// Events scheduled over the run.
    pub events: u64,
    /// Always 0: the event lanes never rehash. The field stays so the
    /// JSON `queue` object and the `queue.rehashes` metric keep the
    /// shape their readers (the benchmark among them) expect.
    pub rehashes: u64,
    /// Peak number of pending events, sampled after each push.
    pub peak_occupancy: u64,
}

/// Where a scheduled event waits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lane {
    /// The single pending-event slot of resource `r`.
    Resource(usize),
    /// The deadline FIFO.
    Deadline,
}

/// One scheduled event: `(time, seq)` key plus payload.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// A min-queue of payloads `T`, totally ordered by `(time, seq)`, that
/// holds at most one event per resource lane plus a FIFO of deadlines,
/// and counts what it schedules.
#[derive(Debug)]
pub(crate) struct EventLanes<T> {
    resources: Vec<Option<Entry<T>>>,
    deadlines: VecDeque<Entry<T>>,
    /// Key and lane of the minimum pending event; `None` when empty.
    head: Option<(u64, u64, Lane)>,
    /// Events currently pending across all lanes.
    pending: usize,
    /// Lifetime push count.
    events: u64,
    /// Peak of `pending`.
    peak: usize,
}

impl<T> EventLanes<T> {
    /// Empty lanes for `resources` resources and the deadline FIFO.
    pub(crate) fn new(resources: usize) -> Self {
        EventLanes {
            resources: (0..resources).map(|_| None).collect(),
            deadlines: VecDeque::new(),
            head: None,
            pending: 0,
            events: 0,
            peak: 0,
        }
    }

    /// Snapshot the lifetime counters.
    pub(crate) fn stats(&self) -> QueueStats {
        QueueStats {
            events: self.events,
            rehashes: 0,
            peak_occupancy: self.peak as u64,
        }
    }

    /// Schedule `item` at `time` with tie-breaker `seq` on `lane`. A
    /// resource lane must be empty, and a deadline's key must not be
    /// below the last deadline's.
    pub(crate) fn push(&mut self, lane: Lane, time: u64, seq: u64, item: T) {
        let entry = Entry { time, seq, item };
        match lane {
            Lane::Resource(r) => {
                debug_assert!(
                    self.resources[r].is_none(),
                    "resource {r} already holds a pending event"
                );
                self.resources[r] = Some(entry);
            }
            Lane::Deadline => {
                debug_assert!(
                    self.deadlines
                        .back()
                        .is_none_or(|last| (last.time, last.seq) <= (time, seq)),
                    "deadline keys must not decrease"
                );
                self.deadlines.push_back(entry);
            }
        }
        self.events += 1;
        self.pending += 1;
        self.peak = self.peak.max(self.pending);
        if self.head.is_none_or(|(t, s, _)| (time, seq) < (t, s)) {
            self.head = Some((time, seq, lane));
        }
    }

    /// The minimum `(time, seq)` key, or `None` when empty.
    pub(crate) fn peek_key(&self) -> Option<(u64, u64)> {
        self.head.map(|(time, seq, _)| (time, seq))
    }

    /// Remove and return the minimum-key event.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        let (time, seq, lane) = self.head?;
        let entry = match lane {
            Lane::Resource(r) => self.resources[r].take(),
            Lane::Deadline => self.deadlines.pop_front(),
        }
        .expect("the head lane holds the head event");
        self.pending -= 1;
        self.head = self.min_head();
        Some((time, seq, entry.item))
    }

    /// Key and lane of the smallest lane head.
    fn min_head(&self) -> Option<(u64, u64, Lane)> {
        let mut head = self
            .deadlines
            .front()
            .map(|e| (e.time, e.seq, Lane::Deadline));
        for (r, slot) in self.resources.iter().enumerate() {
            if let Some(e) = slot {
                if head.is_none_or(|(t, s, _)| (e.time, e.seq) < (t, s)) {
                    head = Some((e.time, e.seq, Lane::Resource(r)));
                }
            }
        }
        head
    }
}

/// The binary min-heap the lanes replaced: every pending event in one
/// [`BinaryHeap`](std::collections::BinaryHeap) on `(time, seq)`. Kept
/// verbatim as the differential oracle for [`EventLanes`].
#[cfg(test)]
mod oracle {
    use super::QueueStats;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// One scheduled event: `(time, seq)` key plus payload. Entries
    /// compare by key alone, so payloads need no ordering of their own.
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

    /// A min-queue of payloads `T`, totally ordered by `(time, seq)`,
    /// that counts what it schedules.
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
}

#[cfg(test)]
mod tests {
    use super::oracle::EventQueue;
    use super::*;
    use amdrel_core::rng::SplitMix64;
    use proptest::prelude::*;

    fn pop_key(q: &mut EventQueue<u32>) -> Option<(u64, u64)> {
        q.pop().map(|(t, s, _)| (t, s))
    }

    /// Drain the queue, asserting the pop order is exactly the
    /// sorted `(time, seq)` order.
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

    #[test]
    fn lanes_order_keys_at_the_end_of_the_clock() {
        let mut q = EventLanes::new(1);
        q.push(Lane::Resource(0), u64::MAX - 1, 0, 0u32);
        assert_eq!(q.pop(), Some((u64::MAX - 1, 0, 0)));
        q.push(Lane::Resource(0), u64::MAX, 1, 1);
        q.push(Lane::Deadline, u64::MAX, 2, 2);
        assert_eq!(q.pop(), Some((u64::MAX, 1, 1)));
        assert_eq!(q.pop(), Some((u64::MAX, 2, 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().events, 3);
        assert_eq!(q.stats().peak_occupancy, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already holds a pending event")]
    fn a_second_event_on_one_resource_is_rejected() {
        let mut q = EventLanes::new(2);
        q.push(Lane::Resource(1), 5, 0, ());
        q.push(Lane::Resource(1), 6, 1, ());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "deadline keys must not decrease")]
    fn a_decreasing_deadline_is_rejected() {
        let mut q = EventLanes::new(0);
        q.push(Lane::Deadline, 9, 0, ());
        q.push(Lane::Deadline, 8, 1, ());
    }

    proptest! {
        /// Random schedule/pop sequences that obey the engine's
        /// invariants — one pending event per resource, events at or
        /// after the last popped time, deadlines a fixed delay after
        /// "now" — pop in the same order from the lanes and from the
        /// heap, with the same statistics. Times stay within a few
        /// cycles of each other, so equal-time ties across lanes are
        /// common and only `seq` breaks them.
        #[test]
        fn lanes_pop_exactly_like_the_heap(
            seed in any::<u64>(),
            resources in 1usize..6,
            deadline_delay in 0u64..4,
            steps in 1usize..400,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut lanes = EventLanes::new(resources);
            let mut heap = EventQueue::new();
            let mut busy = vec![false; resources];
            let (mut now, mut seq) = (0u64, 0u64);
            for _ in 0..steps {
                let op = rng.below(resources as u64 + 2) as usize;
                if op < resources && !busy[op] {
                    let time = now + rng.below(4);
                    lanes.push(Lane::Resource(op), time, seq, op);
                    heap.push(time, seq, op);
                    busy[op] = true;
                    seq += 1;
                } else if op == resources {
                    lanes.push(Lane::Deadline, now + deadline_delay, seq, resources);
                    heap.push(now + deadline_delay, seq, resources);
                    seq += 1;
                } else {
                    let popped = lanes.pop();
                    prop_assert_eq!(popped, heap.pop());
                    if let Some((time, _, lane)) = popped {
                        now = time;
                        if lane < resources {
                            busy[lane] = false;
                        }
                    }
                }
                prop_assert_eq!(lanes.peek_key(), heap.peek_key());
                prop_assert_eq!(lanes.stats(), heap.stats());
            }
            while let Some(popped) = heap.pop() {
                prop_assert_eq!(lanes.pop(), Some(popped));
            }
            prop_assert_eq!(lanes.pop(), None);
        }
    }
}
