//! The engine's event queue: one binary heap ordered by `(time, seq)`.
//!
//! The engine pops events in `(time, seq)` order, `seq` being a counter
//! taken at push time, so equal-time events leave in the order they were
//! scheduled and every run is deterministic. Almost every handled event
//! schedules exactly one successor (a thread's next op) and then asks for
//! the next event; [`HeapQueue::push_pop`] does both with a single
//! sift-down by overwriting the root in place.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A timestamped entry: `(time, seq, payload)`. Ordering ignores the
/// payload.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Min-queue of `(time, seq, payload)` events.
#[derive(Debug)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T: Copy> HeapQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Enqueues `payload` at `(time, seq)`.
    pub fn push(&mut self, time: u64, seq: u64, payload: T) {
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Dequeues the `(time, seq)`-minimal event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.payload))
    }

    /// `push(time, seq, payload)` followed by `pop()`, with one sift
    /// instead of two: unless the new event is itself the minimum, it
    /// replaces the root and sinks from there.
    pub fn push_pop(&mut self, time: u64, seq: u64, payload: T) -> (u64, u64, T) {
        let new = Entry { time, seq, payload };
        let first = match self.heap.peek_mut() {
            Some(mut root) if root.0 < new => std::mem::replace(&mut root.0, new),
            _ => new,
        };
        (first.time, first.seq, first.payload)
    }

    /// Time of the earliest queued event without dequeuing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T: Copy> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q: HeapQueue<u32> = HeapQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(100, 1, 1);
        q.push(5, 2, 20);
        q.push(5, 3, 30);
        q.push(7, 4, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, 2, 20)));
        assert_eq!(q.pop(), Some((5, 3, 30)));
        assert_eq!(q.pop(), Some((7, 4, 4)));
        assert_eq!(q.pop(), Some((100, 1, 1)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_pop_on_empty_queue_returns_the_event() {
        let mut q: HeapQueue<u32> = HeapQueue::new();
        assert_eq!(q.push_pop(9, 1, 7), (9, 1, 7));
        assert!(q.is_empty());
    }

    /// `push_pop` ≡ `push; pop` on engine-shaped random schedules
    /// (monotonic `now`, bursty deltas, many equal-time ties).
    #[test]
    fn push_pop_equals_push_then_pop() {
        let mut state = 0x8bad_f00d_u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20 {
            let mut fused: HeapQueue<u64> = HeapQueue::new();
            let mut plain: HeapQueue<u64> = HeapQueue::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for step in 0..5_000 {
                seq += 1;
                // Deltas from a handful of values, so ties are common;
                // sometimes a quantum-scale jump.
                let delta = match rnd() % 10 {
                    0 => rnd() % 200_000,
                    1..=3 => (rnd() % 4) * 50,
                    _ => rnd() % 3,
                };
                match rnd() % 4 {
                    0 => {
                        fused.push(now + delta, seq, seq);
                        plain.push(now + delta, seq, seq);
                    }
                    1 => {
                        let a = fused.pop();
                        assert_eq!(a, plain.pop(), "round {round} step {step}");
                        if let Some((t, _, _)) = a {
                            now = t;
                        }
                    }
                    _ => {
                        let a = fused.push_pop(now + delta, seq, seq);
                        plain.push(now + delta, seq, seq);
                        assert_eq!(Some(a), plain.pop(), "round {round} step {step}");
                        now = a.0;
                    }
                }
                assert_eq!(fused.len(), plain.len());
                assert_eq!(fused.peek_time(), plain.peek_time());
            }
            loop {
                let a = fused.pop();
                assert_eq!(a, plain.pop());
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
