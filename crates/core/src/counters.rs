//! Raw per-thread event counts produced by the cycle accounting
//! architecture.
//!
//! The paper's hardware (§4.7) exposes *raw cycle and event counts*; system
//! software then post-processes them into speedup-stack components
//! (extrapolation for sampled negative interference, interpolation for
//! positive interference). [`ThreadCounters`] is that raw interface: it is
//! what a profiler — hardware, the `cmpsim` simulator, or anything else —
//! must produce per thread for [`crate::accounting`] to do the rest.

/// Raw accounting counters for one thread of a multi-threaded run.
///
/// All cycle quantities are *exposed* cycles: the portion of a miss or wait
/// that actually stalled the core (the accounting architecture only charges
/// interference when a miss blocks the ROB head, §4.1).
///
/// # Examples
///
/// ```
/// use speedup_stacks::ThreadCounters;
/// let c = ThreadCounters {
///     active_end_cycle: 10_000,
///     spin_cycles: 1_500.0,
///     ..ThreadCounters::default()
/// };
/// assert_eq!(c.spin_cycles, 1_500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ThreadCounters {
    /// Cycle at which this thread finished its share of the parallel
    /// section. The slowest thread defines `Tp`; the gap to `Tp` for the
    /// other threads becomes the imbalance component (§4.6).
    pub active_end_cycle: u64,
    /// Cycles spent in detected spin loops (Tian et al. load-table
    /// detector, §4.3).
    pub spin_cycles: f64,
    /// Cycles this thread was scheduled out while waiting on a barrier or
    /// contended lock (§4.4), including run-queue wait after wakeup.
    pub yield_cycles: f64,
    /// Exposed cycles waiting for the memory bus, a memory bank, or an
    /// open-page conflict caused by another core (§4.1).
    pub mem_interference_cycles: f64,
    /// Exposed stall cycles of *sampled* inter-thread LLC misses (misses in
    /// the shared LLC that hit in this core's ATD). Extrapolated by the
    /// sampling factor during accounting.
    pub sampled_interthread_miss_stall_cycles: f64,
    /// Number of sampled inter-thread LLC misses.
    pub sampled_interthread_misses: u64,
    /// Number of sampled inter-thread LLC hits (hits in the shared LLC that
    /// miss in this core's ATD, §4.2).
    pub sampled_interthread_hits: u64,
    /// Number of LLC accesses that fell into ATD-sampled sets.
    pub sampled_llc_accesses: u64,
    /// Total number of LLC accesses by this thread.
    pub llc_accesses: u64,
    /// Total number of LLC load misses by this thread.
    pub llc_load_misses: u64,
    /// Total exposed cycles the core was stalled on LLC load misses. Used
    /// for the positive-interference interpolation (average miss penalty =
    /// stall cycles / misses).
    pub llc_load_miss_stall_cycles: f64,
    /// Exposed cycles attributable to coherency misses (L1 misses on lines
    /// previously invalidated by another core). Counted but not charged by
    /// default (§4.5).
    pub coherency_miss_cycles: f64,
    /// Dynamic instruction count (used for the software-side
    /// parallelization-overhead measure, §6).
    pub instructions: u64,
    /// Dynamic instructions executed inside detected spin loops (subtracted
    /// from the instruction-overhead measure, §6).
    pub spin_instructions: u64,
}

impl ThreadCounters {
    /// The per-thread ATD sampling factor: total LLC accesses divided by
    /// sampled LLC accesses (§4.1). Returns 1.0 when nothing was sampled,
    /// so unsampled runs degrade gracefully to "no interference observed".
    ///
    /// ```
    /// use speedup_stacks::ThreadCounters;
    /// let c = ThreadCounters { llc_accesses: 800, sampled_llc_accesses: 100,
    ///                          ..ThreadCounters::default() };
    /// assert_eq!(c.sampling_factor(), 8.0);
    /// ```
    #[must_use]
    pub fn sampling_factor(&self) -> f64 {
        if self.sampled_llc_accesses == 0 {
            1.0
        } else {
            self.llc_accesses as f64 / self.sampled_llc_accesses as f64
        }
    }

    /// Average exposed penalty of an LLC load miss, the interpolation basis
    /// for positive interference (§4.2). Zero when the thread had no LLC
    /// load misses (then there is no basis to price an avoided miss).
    #[must_use]
    pub fn average_miss_penalty(&self) -> f64 {
        if self.llc_load_misses == 0 {
            0.0
        } else {
            self.llc_load_miss_stall_cycles / self.llc_load_misses as f64
        }
    }

    /// Estimated total number of inter-thread hits (sampled count scaled by
    /// the sampling factor).
    #[must_use]
    pub fn estimated_interthread_hits(&self) -> f64 {
        self.sampled_interthread_hits as f64 * self.sampling_factor()
    }

    /// Estimated total positive-interference cycles: estimated inter-thread
    /// hits priced at the average miss penalty (§4.2).
    #[must_use]
    pub fn positive_interference_cycles(&self) -> f64 {
        self.estimated_interthread_hits() * self.average_miss_penalty()
    }

    /// Estimated total negative LLC interference cycles: sampled
    /// inter-thread miss stalls extrapolated by the sampling factor (§4.1).
    #[must_use]
    pub fn negative_llc_cycles(&self) -> f64 {
        self.sampled_interthread_miss_stall_cycles * self.sampling_factor()
    }

    /// Returns `true` if all cycle quantities are finite and non-negative.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        [
            self.spin_cycles,
            self.yield_cycles,
            self.mem_interference_cycles,
            self.sampled_interthread_miss_stall_cycles,
            self.llc_load_miss_stall_cycles,
            self.coherency_miss_cycles,
        ]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_factor_defaults_to_one() {
        let c = ThreadCounters::default();
        assert_eq!(c.sampling_factor(), 1.0);
    }

    #[test]
    fn sampling_factor_ratio() {
        let c = ThreadCounters {
            llc_accesses: 1000,
            sampled_llc_accesses: 125,
            ..ThreadCounters::default()
        };
        assert_eq!(c.sampling_factor(), 8.0);
    }

    #[test]
    fn average_miss_penalty_zero_without_misses() {
        let c = ThreadCounters {
            llc_load_miss_stall_cycles: 500.0,
            ..ThreadCounters::default()
        };
        assert_eq!(c.average_miss_penalty(), 0.0);
    }

    #[test]
    fn positive_interference_interpolation() {
        // 4 sampled hits at sampling factor 8 => 32 estimated hits;
        // average penalty 200 cycles => 6400 cycles of positive interference.
        let c = ThreadCounters {
            llc_accesses: 800,
            sampled_llc_accesses: 100,
            sampled_interthread_hits: 4,
            llc_load_misses: 10,
            llc_load_miss_stall_cycles: 2000.0,
            ..ThreadCounters::default()
        };
        assert_eq!(c.positive_interference_cycles(), 32.0 * 200.0);
    }

    #[test]
    fn negative_llc_extrapolation() {
        let c = ThreadCounters {
            llc_accesses: 400,
            sampled_llc_accesses: 100,
            sampled_interthread_miss_stall_cycles: 300.0,
            ..ThreadCounters::default()
        };
        assert_eq!(c.negative_llc_cycles(), 1200.0);
    }

    #[test]
    fn validity() {
        let mut c = ThreadCounters::default();
        assert!(c.is_valid());
        c.spin_cycles = -1.0;
        assert!(!c.is_valid());
    }
}
