//! Deterministic op-stream generation from a [`WorkloadProfile`].
//!
//! Each thread gets a [`ProfileStream`]: a lazy state machine that emits
//! the ops of one work item at a time (compute, loads, stores, optional
//! critical section) and a barrier at every phase boundary. The final
//! phase barrier is the convergence point of the parallel section, so the
//! end-of-program imbalance component stays near zero, as in the paper's
//! measurement setup (§7.1).

use cmpsim::{Op, OpStream};

use crate::profile::{AccessPattern, WorkloadProfile};
use crate::rng::SmallRng;

/// Base line address of the shared working set.
const SHARED_BASE: u64 = 1 << 30;
/// Base line address of the (partitioned) private working set.
const PRIVATE_BASE: u64 = 2 << 30;

/// Lazy op stream for one thread of a profiled workload.
#[derive(Debug)]
pub struct ProfileStream {
    profile: WorkloadProfile,
    thread: usize,
    n_threads: usize,
    rng: SmallRng,
    /// Ops of the current item, drained front-to-back via `buf_head`
    /// (refilled in place — cheaper than a deque on the per-op path).
    buf: Vec<Op>,
    buf_head: usize,
    phase: u32,
    items_left: u64,
    item_counter: u64,
    /// This thread's slice of the private footprint: `[start, start+len)`.
    slice_start: u64,
    slice_len: u64,
    /// Streaming cursor within the slice.
    cursor: u64,
    /// `profile.effective_compute(n_threads)`, precomputed (the rounding
    /// arithmetic showed up in per-item profiles).
    item_compute: u32,
    done: bool,
}

impl ProfileStream {
    /// Creates the stream for `thread` of an `n_threads` run.
    ///
    /// # Panics
    ///
    /// Panics if `thread >= n_threads` or `n_threads == 0`.
    #[must_use]
    pub fn new(profile: &WorkloadProfile, thread: usize, n_threads: usize) -> Self {
        assert!(n_threads > 0, "n_threads must be non-zero");
        assert!(thread < n_threads, "thread index out of range");
        let items = profile.items_for(thread, 0, n_threads);
        let slice_len = (profile.private_lines / n_threads as u64).max(1);
        let slice_start = PRIVATE_BASE + thread as u64 * slice_len;
        let mut rng = SmallRng::seed_from_u64(
            profile.seed ^ (thread as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        // Streaming threads start at a random offset within their slice:
        // real partitioned kernels do not march through DRAM banks in
        // lockstep, and bank-aligned slices otherwise serialize all
        // threads on one bank.
        let cursor = rng.gen_range(0..slice_len);
        ProfileStream {
            profile: profile.clone(),
            thread,
            n_threads,
            rng,
            buf: Vec::with_capacity(32),
            buf_head: 0,
            phase: 0,
            items_left: items,
            item_counter: 0,
            slice_start,
            slice_len,
            cursor,
            item_compute: profile.effective_compute(n_threads),
            done: false,
        }
    }

    fn pick_line(&mut self, shared_frac: f64, shared_lines: u64) -> u64 {
        let shared = shared_lines > 0 && self.rng.gen_bool(shared_frac.clamp(0.0, 1.0));
        if shared {
            SHARED_BASE + self.rng.gen_range(0..shared_lines)
        } else {
            match self.profile.access_pattern {
                AccessPattern::Random => self.slice_start + self.rng.gen_range(0..self.slice_len),
                AccessPattern::Streaming => {
                    let line = self.slice_start + self.cursor;
                    self.cursor += 1;
                    if self.cursor == self.slice_len {
                        self.cursor = 0;
                    }
                    line
                }
            }
        }
    }

    fn emit_item(&mut self) {
        // Copy out the scalar parameters the item needs: cloning the
        // whole profile per item showed up in the sweep profile.
        let cs = self.profile.cs;
        let item_loads = self.profile.item_loads;
        let item_stores = self.profile.item_stores;
        let shared_read_frac = self.profile.shared_read_frac;
        let shared_write_frac = self.profile.shared_write_frac;
        let shared_lines = self.profile.shared_lines;
        let compute = self.item_compute;
        self.item_counter += 1;

        // Optional critical section first (task-queue style: grab work,
        // then compute on it).
        if let Some(cs) = cs {
            if cs.every_items > 0 && self.item_counter.is_multiple_of(u64::from(cs.every_items)) {
                let lock = if cs.n_locks > 1 {
                    self.rng.gen_range(0..cs.n_locks)
                } else {
                    0
                };
                self.buf.push(Op::LockAcquire(lock));
                if cs.len_cycles > 0 {
                    self.buf.push(Op::Compute(cs.len_cycles));
                }
                self.buf.push(Op::LockRelease(lock));
            }
        }

        // Interleave compute with memory accesses so loads spread out in
        // time (burstiness would overstate bank conflicts).
        let accesses = item_loads + item_stores;
        let slice = if accesses > 0 {
            compute / (accesses + 1)
        } else {
            compute
        };
        let mut emitted = 0u32;
        for _ in 0..item_loads {
            if slice > 0 {
                self.buf.push(Op::Compute(slice));
                emitted += slice;
            }
            let line = self.pick_line(shared_read_frac, shared_lines);
            self.buf.push(Op::Load(line));
        }
        for _ in 0..item_stores {
            if slice > 0 {
                self.buf.push(Op::Compute(slice));
                emitted += slice;
            }
            let line = self.pick_line(shared_write_frac, shared_lines);
            self.buf.push(Op::Store(line));
        }
        if compute > emitted {
            self.buf.push(Op::Compute(compute - emitted));
        }
    }

    fn advance_phase(&mut self) {
        // Phase boundary: a barrier shared by all threads.
        self.buf.push(Op::Barrier(0));
        self.phase += 1;
        if self.phase >= self.profile.phases.max(1) {
            self.done = true;
        } else {
            self.items_left = self
                .profile
                .items_for(self.thread, self.phase, self.n_threads);
        }
    }
}

impl OpStream for ProfileStream {
    fn next_op(&mut self) -> Option<Op> {
        loop {
            if let Some(&op) = self.buf.get(self.buf_head) {
                self.buf_head += 1;
                return Some(op);
            }
            if self.done {
                return None;
            }
            self.buf.clear();
            self.buf_head = 0;
            if self.items_left == 0 {
                self.advance_phase();
                continue;
            }
            self.items_left -= 1;
            self.emit_item();
        }
    }
}

/// Builds the per-thread op streams for an `n_threads` run of `profile`.
///
/// # Examples
///
/// ```
/// use workloads::{streams_for, Suite, WorkloadProfile};
/// let p = WorkloadProfile::compute_bound("demo", Suite::Splash2, 1_000);
/// let streams = streams_for(&p, 4);
/// assert_eq!(streams.len(), 4);
/// ```
#[must_use]
pub fn streams_for(profile: &WorkloadProfile, n_threads: usize) -> Vec<Box<dyn OpStream>> {
    (0..n_threads)
        .map(|t| Box::new(ProfileStream::new(profile, t, n_threads)) as Box<dyn OpStream>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{AccessPattern, CsProfile, Suite};

    fn demo() -> WorkloadProfile {
        let mut p = WorkloadProfile::compute_bound("demo", Suite::Splash2, 64);
        p.phases = 2;
        p.item_loads = 2;
        p.item_stores = 1;
        p
    }

    fn drain(mut s: ProfileStream) -> Vec<Op> {
        let mut out = Vec::new();
        while let Some(op) = s.next_op() {
            out.push(op);
            assert!(out.len() < 1_000_000, "stream does not terminate");
        }
        out
    }

    #[test]
    fn stream_terminates_with_phase_barriers() {
        let ops = drain(ProfileStream::new(&demo(), 0, 4));
        let barriers = ops.iter().filter(|o| matches!(o, Op::Barrier(_))).count();
        assert_eq!(barriers, 2);
        assert_eq!(*ops.last().unwrap(), Op::Barrier(0));
    }

    #[test]
    fn deterministic_streams() {
        let a = drain(ProfileStream::new(&demo(), 1, 4));
        let b = drain(ProfileStream::new(&demo(), 1, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn threads_have_distinct_address_streams() {
        let a = drain(ProfileStream::new(&demo(), 0, 4));
        let b = drain(ProfileStream::new(&demo(), 1, 4));
        assert_ne!(a, b);
    }

    #[test]
    fn loads_and_stores_emitted_per_item() {
        let p = demo();
        let ops = drain(ProfileStream::new(&p, 0, 4));
        // 64 items / 2 phases / 4 threads = 8 per phase → 16 items total.
        let loads = ops.iter().filter(|o| matches!(o, Op::Load(_))).count();
        let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count();
        assert_eq!(loads, 32);
        assert_eq!(stores, 16);
    }

    #[test]
    fn critical_sections_balanced() {
        let mut p = demo();
        p.cs = Some(CsProfile {
            every_items: 1,
            len_cycles: 50,
            n_locks: 1,
        });
        let ops = drain(ProfileStream::new(&p, 0, 4));
        let acquires = ops
            .iter()
            .filter(|o| matches!(o, Op::LockAcquire(_)))
            .count();
        let releases = ops
            .iter()
            .filter(|o| matches!(o, Op::LockRelease(_)))
            .count();
        assert_eq!(acquires, releases);
        assert_eq!(acquires, 16);
        // Acquire always precedes its release.
        let mut held = false;
        for op in &ops {
            match op {
                Op::LockAcquire(_) => {
                    assert!(!held);
                    held = true;
                }
                Op::LockRelease(_) => {
                    assert!(held);
                    held = false;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn addresses_stay_in_declared_regions() {
        let p = demo();
        let ops = drain(ProfileStream::new(&p, 2, 4));
        let slice = p.private_lines / 4;
        let pb = PRIVATE_BASE + 2 * slice;
        for op in ops {
            if let Op::Load(l) | Op::Store(l) = op {
                let in_shared = (SHARED_BASE..SHARED_BASE + p.shared_lines).contains(&l);
                let in_private = (pb..pb + slice).contains(&l);
                assert!(in_shared || in_private, "line {l} outside regions");
            }
        }
    }

    #[test]
    fn partitions_are_disjoint_and_cover_footprint() {
        let p = demo();
        let slice = p.private_lines / 4;
        for t in 0..4usize {
            let ops = drain(ProfileStream::new(&p, t, 4));
            let base = PRIVATE_BASE + t as u64 * slice;
            for op in ops {
                if let Op::Load(l) | Op::Store(l) = op {
                    if l < SHARED_BASE + p.shared_lines && l >= SHARED_BASE {
                        continue;
                    }
                    assert!((base..base + slice).contains(&l));
                }
            }
        }
        // Single-threaded: the whole footprint is reachable.
        let ops = drain(ProfileStream::new(&p, 0, 1));
        let max = ops
            .iter()
            .filter_map(|o| match o {
                Op::Load(l) | Op::Store(l) if *l >= PRIVATE_BASE => Some(*l),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(
            max >= PRIVATE_BASE + p.private_lines / 2,
            "ST must roam the full footprint"
        );
    }

    #[test]
    fn streaming_pattern_is_sequential() {
        let mut p = demo();
        p.access_pattern = AccessPattern::Streaming;
        p.shared_read_frac = 0.0;
        p.shared_write_frac = 0.0;
        let ops = drain(ProfileStream::new(&p, 0, 4));
        let lines: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Load(l) => Some(*l),
                _ => None,
            })
            .collect();
        for w in lines.windows(2) {
            let d = if w[1] > w[0] {
                w[1] - w[0]
            } else {
                w[0] + p.private_lines / 4 - w[1]
            };
            assert!(d <= 2, "streaming stride too large: {w:?}");
        }
    }

    #[test]
    fn compute_cycles_sum_to_item_compute() {
        let p = demo();
        let ops = drain(ProfileStream::new(&p, 0, 4));
        let compute: u64 = ops
            .iter()
            .map(|o| {
                if let Op::Compute(c) = o {
                    u64::from(*c)
                } else {
                    0
                }
            })
            .sum();
        // 16 items × effective compute (400 × 1.01 = 404).
        assert_eq!(compute, 16 * u64::from(p.effective_compute(4)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_thread_index() {
        let _ = ProfileStream::new(&demo(), 4, 4);
    }
}
