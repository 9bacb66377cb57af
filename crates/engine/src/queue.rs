//! Deterministic time-ordered event queue.
//!
//! A calendar queue (Brown, CACM 1988) shaped for the simulator's short
//! scheduling delays: a ring of `RING` (1,024) one-cycle buckets holds
//! every event due less than `RING` cycles after [`EventQueue::now`], and a
//! small `(time, seq)` heap holds the rest. The buckets are intrusive FIFO lists
//! threaded through one slab of slots with a free list, so a steady-state
//! schedule or pop allocates nothing.
//!
//! Delivery order is exactly `(time, schedule order)`. Within the ring a
//! bucket holds a single cycle and appends in schedule order. An overflow
//! event moves into the ring as soon as `now` advances far enough to bring
//! its time within the horizon, which is before anything can be scheduled
//! directly into the ring at that time — so it always precedes such events.

use dresar_types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets in the calendar ring, one per cycle (a power of two). The
/// simulator's hop, controller and DRAM delays are almost all shorter; the
/// few longer ones wait in the overflow heap.
const RING: usize = 1024;
const MASK: Cycle = RING as Cycle - 1;
/// End-of-list link in the slab.
const NIL: u32 = u32::MAX;

/// Overflow heap entry: ordered by `(time, seq)` so that events scheduled
/// earlier (in program order) at the same cycle are delivered first.
#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A slab slot: a pending event and the next slot of its bucket (or, while
/// free, the next free slot).
#[derive(Debug)]
struct Slot<E> {
    event: Option<E>,
    next: u32,
}

/// Head and tail slot of one bucket's FIFO (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A deterministic discrete-event queue.
///
/// The queue tracks the current simulation time ([`EventQueue::now`]);
/// popping an event advances time to that event's timestamp. Scheduling in
/// the past panics in debug builds (a scheduling bug would otherwise warp
/// causality silently).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket `t & MASK` holds the ring events due at `t`, for every `t` in
    /// `now..now + RING`.
    buckets: Box<[Bucket; RING]>,
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list.
    free: u32,
    /// Events in the ring.
    ring_len: usize,
    /// Events due at or beyond the ring horizon `now + RING`.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycle,
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        EventQueue {
            buckets: Box::new([Bucket { head: NIL, tail: NIL }; RING]),
            slab: Vec::new(),
            free: NIL,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            now: 0,
            peak_len: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` at absolute cycle `time`.
    #[inline]
    pub fn schedule_at(&mut self, time: Cycle, event: E) {
        debug_assert!(time >= self.now, "scheduling into the past: {} < {}", time, self.now);
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if time - self.now < RING as Cycle {
            self.push_ring(time, event);
        } else {
            self.overflow.push(Reverse(Entry { time, seq, event }));
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Appends `event` to the tail of `time`'s bucket.
    #[inline]
    fn push_ring(&mut self, time: Cycle, event: E) {
        let slot = if self.free == NIL {
            self.slab.push(Slot { event: Some(event), next: NIL });
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 - 1 ring events pending")
        } else {
            let i = self.free;
            let s = &mut self.slab[i as usize];
            self.free = s.next;
            *s = Slot { event: Some(event), next: NIL };
            i
        };
        let b = &mut self.buckets[(time & MASK) as usize];
        if b.tail == NIL {
            b.head = slot;
        } else {
            self.slab[b.tail as usize].next = slot;
        }
        b.tail = slot;
        self.ring_len += 1;
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the simulation has drained.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let start = self.now;
        if self.ring_len == 0 {
            self.now = self.overflow.peek()?.0.time;
        } else {
            while self.buckets[(self.now & MASK) as usize].head == NIL {
                self.now += 1;
            }
        }
        if self.now != start {
            self.refill();
        }
        let b = &mut self.buckets[(self.now & MASK) as usize];
        let slot = b.head;
        let s = &mut self.slab[slot as usize];
        b.head = s.next;
        if b.head == NIL {
            b.tail = NIL;
        }
        let event = s.event.take().expect("a linked slot holds an event");
        s.next = self.free;
        self.free = slot;
        self.ring_len -= 1;
        Some((self.now, event))
    }

    /// Moves every overflow event now within the ring horizon into its
    /// bucket, in `(time, seq)` order.
    fn refill(&mut self) {
        while self.overflow.peek().is_some_and(|Reverse(e)| e.time - self.now < RING as Cycle) {
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.push_ring(e.time, e.event);
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostic; also the tie-break
    /// sequence counter).
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    /// High-water mark of pending events — the queue occupancy a sized
    /// hardware event list would have needed.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dresar_types::rng::SmallRng;

    const W: Cycle = RING as Cycle;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule_at(i, i);
        }
        q.pop();
        q.pop();
        q.schedule_at(10, 10);
        assert_eq!(q.peak_len(), 5, "peak is the historical maximum, not the current depth");
        assert_eq!(q.len(), 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    /// Popping always yields a non-decreasing time sequence, and every
    /// scheduled event comes back exactly once (seeded randomized sweep).
    #[test]
    fn time_monotone_and_complete_for_random_schedules() {
        for seed in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let delays: Vec<u64> =
                (0..rng.gen_range(0usize..200)).map(|_| rng.gen_range(0u64..1000)).collect();
            let mut q = EventQueue::new();
            for (i, d) in delays.iter().enumerate() {
                q.schedule_at(*d, i);
            }
            let mut popped = Vec::new();
            let mut last = 0;
            while let Some((t, e)) = q.pop() {
                assert!(t >= last, "seed {seed}");
                last = t;
                popped.push(e);
            }
            popped.sort_unstable();
            assert_eq!(popped, (0..delays.len()).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    /// FIFO among events scheduled for the same cycle, at every batch size.
    #[test]
    fn fifo_within_cycle_at_every_size() {
        for n in 1usize..64 {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule_at(7, i);
            }
            let got: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(got, (0..n).collect::<Vec<_>>());
        }
    }

    /// An event parked in the overflow heap at `T` precedes one scheduled
    /// directly into the ring at `T` once `T` comes within the horizon.
    #[test]
    fn overflow_event_precedes_later_direct_schedule_at_same_time() {
        let t = W + 5;
        let mut q = EventQueue::new();
        q.schedule_at(t, "overflow");
        q.schedule_at(10, "near");
        assert_eq!(q.pop(), Some((10, "near")));
        q.schedule_at(t, "direct");
        assert_eq!(q.pop(), Some((t, "overflow")));
        assert_eq!(q.pop(), Some((t, "direct")));
        assert_eq!(q.pop(), None);
    }

    /// Differential check against a reference that sorts by
    /// `(time, seq)`: seeded random interleavings of schedules and pops
    /// with delays across four ring widths, weighted towards 0 and the
    /// horizon edges, must pop in the same order with the same `len`,
    /// `peak_len` and `scheduled_total` after every step.
    #[test]
    fn matches_a_time_seq_sorted_reference() {
        let edges = [0, 1, W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1];
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut q = EventQueue::new();
            // Reference: pending (time, seq) pairs; the event is its seq.
            let mut reference: Vec<(Cycle, u64)> = Vec::new();
            let (mut seq, mut peak) = (0u64, 0usize);
            let pop_weight = rng.gen_range(20u64..60);
            for step in 0..4000 {
                if rng.gen_range(0u64..100) < pop_weight {
                    let expect = (0..reference.len())
                        .min_by_key(|&i| reference[i])
                        .map(|i| reference.swap_remove(i));
                    assert_eq!(q.pop(), expect, "seed {seed} step {step}");
                } else {
                    let delay = if rng.gen_bool(0.5) {
                        edges[rng.gen_range(0usize..edges.len())]
                    } else {
                        rng.gen_range(0..4 * W)
                    };
                    let time = q.now() + delay;
                    q.schedule_at(time, seq);
                    reference.push((time, seq));
                    seq += 1;
                    peak = peak.max(reference.len());
                }
                assert_eq!(q.len(), reference.len(), "seed {seed} step {step}");
                assert_eq!(q.peak_len(), peak, "seed {seed} step {step}");
                assert_eq!(q.scheduled_total(), seq, "seed {seed} step {step}");
            }
            reference.sort_unstable();
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(rest, reference, "seed {seed} drain");
            assert!(q.is_empty());
        }
    }
}
