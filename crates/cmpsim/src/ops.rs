//! The abstract operation stream executed by simulated threads.
//!
//! Workload models produce a deterministic stream of [`Op`]s per thread;
//! the engine interprets them against the machine model. The vocabulary is
//! deliberately minimal — computation, memory accesses and the two
//! synchronization primitives the paper analyses (locks and barriers).

use memsim::LineAddr;

/// Identifier of a lock variable within a workload.
pub type LockId = u32;
/// Identifier of a barrier within a workload.
pub type BarrierId = u32;

/// One abstract operation of a simulated thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` cycles (and `n` instructions) of pure computation.
    Compute(u32),
    /// A load from the cache line `LineAddr`.
    Load(LineAddr),
    /// A store to the cache line `LineAddr`.
    Store(LineAddr),
    /// Acquire a lock (blocking; spin-then-yield while contended).
    LockAcquire(LockId),
    /// Release a previously acquired lock.
    LockRelease(LockId),
    /// Wait on a barrier shared by all threads of the workload.
    Barrier(BarrierId),
}

/// A deterministic generator of a thread's operation stream.
///
/// Implementations must be deterministic: the engine's reproducibility
/// guarantee (same configuration ⇒ same cycle counts) depends on it.
pub trait OpStream {
    /// Produces the next operation, or `None` when the thread is done.
    fn next_op(&mut self) -> Option<Op>;
}

/// An [`OpStream`] over a pre-materialized vector (testing, tiny traces).
///
/// # Examples
///
/// ```
/// use cmpsim::{Op, OpStream, VecStream};
/// let mut s = VecStream::new(vec![Op::Compute(10), Op::Load(4)]);
/// assert_eq!(s.next_op(), Some(Op::Compute(10)));
/// assert_eq!(s.next_op(), Some(Op::Load(4)));
/// assert_eq!(s.next_op(), None);
/// ```
#[derive(Debug, Clone)]
pub struct VecStream {
    ops: std::vec::IntoIter<Op>,
}

impl VecStream {
    /// Wraps a vector of operations.
    #[must_use]
    pub fn new(ops: Vec<Op>) -> Self {
        VecStream {
            ops: ops.into_iter(),
        }
    }
}

impl OpStream for VecStream {
    fn next_op(&mut self) -> Option<Op> {
        self.ops.next()
    }
}

impl<F: FnMut() -> Option<Op>> OpStream for F {
    fn next_op(&mut self) -> Option<Op> {
        self()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_stream_order() {
        let mut s = VecStream::new(vec![Op::Store(1), Op::Barrier(0)]);
        assert_eq!(s.next_op(), Some(Op::Store(1)));
        assert_eq!(s.next_op(), Some(Op::Barrier(0)));
        assert_eq!(s.next_op(), None);
        assert_eq!(s.next_op(), None);
    }

    #[test]
    fn closures_are_streams() {
        let mut remaining = 2;
        let mut s = move || {
            if remaining > 0 {
                remaining -= 1;
                Some(Op::Compute(1))
            } else {
                None
            }
        };
        let stream: &mut dyn OpStream = &mut s;
        assert_eq!(stream.next_op(), Some(Op::Compute(1)));
        assert_eq!(stream.next_op(), Some(Op::Compute(1)));
        assert_eq!(stream.next_op(), None);
    }
}
