//! The [`SpeedupStack`] type: the paper's central representation.
//!
//! A stack has height `N` (threads/cores) and decomposes as (Eq. 4):
//!
//! ```text
//! Ŝ = N − Σ_i Σ_j O_ij / Tp + Σ_i P_i / Tp
//!     └──────── base ──────┘  └─ positive ─┘
//! ```
//!
//! The *base speedup* is `N` minus all overhead components; the *estimated
//! speedup* is the base plus positive interference. All components are in
//! speedup units, so everything always sums to exactly `N`.

use crate::accounting::{self, AccountingConfig, ThreadBreakdown};
use crate::components::{Breakdown, Component};
use crate::counters::ThreadCounters;
use crate::error::StackError;

/// A speedup stack for one multi-threaded run.
///
/// Construct with [`SpeedupStack::from_counters`] (raw profiler output) or
/// [`SpeedupStack::from_breakdowns`] (already-accounted components).
///
/// # Examples
///
/// ```
/// use speedup_stacks::{SpeedupStack, ThreadCounters, AccountingConfig, Component};
/// let threads = vec![
///     ThreadCounters { active_end_cycle: 1000, spin_cycles: 200.0,
///                      ..ThreadCounters::default() },
///     ThreadCounters { active_end_cycle: 1000, ..ThreadCounters::default() },
/// ];
/// let stack = SpeedupStack::from_counters(&threads, 1000, &AccountingConfig::default())?;
/// assert_eq!(stack.num_threads(), 2);
/// assert_eq!(stack.component(Component::Spinning), 0.2);
/// assert!((stack.estimated_speedup() - 1.8).abs() < 1e-12);
/// # Ok::<(), speedup_stacks::StackError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupStack {
    n: usize,
    tp_cycles: u64,
    overheads: Breakdown,
    positive: f64,
    actual: Option<f64>,
    per_thread: Vec<ThreadBreakdown>,
}

impl SpeedupStack {
    /// Builds a stack from raw per-thread counters of a single
    /// multi-threaded run of duration `tp` cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`StackError`] from [`accounting::account`]: empty input,
    /// zero `tp`, or invalid per-thread counters.
    pub fn from_counters(
        threads: &[ThreadCounters],
        tp: u64,
        cfg: &AccountingConfig,
    ) -> Result<Self, StackError> {
        let per_thread = accounting::account(threads, tp, cfg)?;
        Ok(Self::from_breakdowns(per_thread, tp))
    }

    /// Builds a stack from already-accounted per-thread breakdowns.
    ///
    /// `N` is taken as the number of breakdowns.
    #[must_use]
    pub fn from_breakdowns(per_thread: Vec<ThreadBreakdown>, tp: u64) -> Self {
        let (overheads, positive) = accounting::aggregate(&per_thread, tp);
        SpeedupStack {
            n: per_thread.len(),
            tp_cycles: tp,
            overheads,
            positive,
            actual: None,
            per_thread,
        }
    }

    /// Attaches the *actual* speedup measured from a separate
    /// single-threaded run (`S = Ts / Tp`, Eq. 1), enabling validation.
    #[must_use]
    pub fn with_actual_speedup(mut self, actual: f64) -> Self {
        self.actual = Some(actual);
        self
    }

    /// Adds `speedup_units` to an overhead component after the fact.
    ///
    /// Intended for software-side estimates the hardware cannot measure,
    /// chiefly [`Component::ParallelizationOverhead`] (§3.5). The addition
    /// reduces the base speedup accordingly; the stack still sums to `N`.
    ///
    /// # Panics
    ///
    /// Panics if `speedup_units` is negative or not finite.
    #[must_use]
    pub fn with_overhead_component(mut self, c: Component, speedup_units: f64) -> Self {
        assert!(
            speedup_units.is_finite() && speedup_units >= 0.0,
            "overhead component must be finite and non-negative"
        );
        self.overheads[c] += speedup_units;
        self
    }

    /// Number of threads `N` — the height of the stack.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Duration of the multi-threaded run in cycles (`Tp`).
    #[must_use]
    pub fn tp_cycles(&self) -> u64 {
        self.tp_cycles
    }

    /// One overhead component, in speedup units.
    #[must_use]
    pub fn component(&self, c: Component) -> f64 {
        self.overheads.get(c)
    }

    /// All overhead components, in speedup units.
    #[must_use]
    pub fn overheads(&self) -> &Breakdown {
        &self.overheads
    }

    /// Sum of all overhead components.
    #[must_use]
    pub fn total_overhead(&self) -> f64 {
        self.overheads.total()
    }

    /// Positive LLC interference, in speedup units.
    #[must_use]
    pub fn positive_interference(&self) -> f64 {
        self.positive
    }

    /// Base speedup (Eq. 5): `N − Σ overheads`, i.e. the achieved speedup
    /// not counting positive interference. Clamped at zero.
    #[must_use]
    pub fn base_speedup(&self) -> f64 {
        (self.n as f64 - self.overheads.total()).max(0.0)
    }

    /// Estimated speedup (Eq. 4): base speedup plus positive interference.
    #[must_use]
    pub fn estimated_speedup(&self) -> f64 {
        self.base_speedup() + self.positive
    }

    /// Net negative LLC interference: the negative LLC component minus the
    /// positive component (can be negative when sharing pays off overall,
    /// as in Figure 9 for large LLCs).
    #[must_use]
    pub fn net_negative_llc(&self) -> f64 {
        self.overheads.get(Component::NegativeLlc) - self.positive
    }

    /// The actual measured speedup, if attached.
    #[must_use]
    pub fn actual_speedup(&self) -> Option<f64> {
        self.actual
    }

    /// Validation error `(Ŝ − S)/N` (Eq. 6), if an actual speedup was
    /// attached.
    #[must_use]
    pub fn validation_error(&self) -> Option<f64> {
        self.actual
            .map(|s| crate::estimate::speedup_error(self.estimated_speedup(), s, self.n))
    }

    /// Per-thread breakdowns (Figure 3's per-thread execution-time breakup).
    #[must_use]
    pub fn per_thread(&self) -> &[ThreadBreakdown] {
        &self.per_thread
    }

    /// Estimated total single-threaded execution time `T̂s = Σ T̂_i`
    /// (Eq. 2), in cycles.
    #[must_use]
    pub fn estimated_single_thread_cycles(&self) -> f64 {
        self.per_thread
            .iter()
            .map(|b| b.estimated_single_thread_cycles)
            .sum()
    }

    /// Checks the stack invariants: all components non-negative and finite,
    /// and `base + Σ overheads == N` (which holds by construction; this
    /// guards against post-hoc mutation via overflow).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.overheads.is_valid()
            && self.positive.is_finite()
            && self.positive >= 0.0
            && (self.base_speedup() + self.total_overhead() - self.n as f64).abs() < 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(end: u64, spin: f64) -> ThreadCounters {
        ThreadCounters {
            active_end_cycle: end,
            spin_cycles: spin,
            ..ThreadCounters::default()
        }
    }

    fn stack2() -> SpeedupStack {
        let threads = [thread(1000, 200.0), thread(800, 0.0)];
        SpeedupStack::from_counters(&threads, 1000, &AccountingConfig::default()).unwrap()
    }

    #[test]
    fn sums_to_n() {
        let s = stack2();
        assert!((s.base_speedup() + s.total_overhead() - 2.0).abs() < 1e-12);
        assert!(s.is_valid());
    }

    #[test]
    fn components_in_speedup_units() {
        let s = stack2();
        assert_eq!(s.component(Component::Spinning), 0.2);
        assert_eq!(s.component(Component::Imbalance), 0.2);
        assert!((s.estimated_speedup() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn actual_and_error() {
        let s = stack2().with_actual_speedup(1.5);
        assert_eq!(s.actual_speedup(), Some(1.5));
        let e = s.validation_error().unwrap();
        assert!((e - 0.05).abs() < 1e-12); // (1.6 - 1.5)/2
    }

    #[test]
    fn positive_interference_included() {
        let t = ThreadCounters {
            active_end_cycle: 1000,
            llc_accesses: 100,
            sampled_llc_accesses: 100,
            sampled_interthread_hits: 2,
            llc_load_misses: 10,
            llc_load_miss_stall_cycles: 1000.0, // avg penalty 100
            ..ThreadCounters::default()
        };
        let s = SpeedupStack::from_counters(&[t], 1000, &AccountingConfig::default()).unwrap();
        assert!((s.positive_interference() - 0.2).abs() < 1e-12);
        assert!((s.estimated_speedup() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn net_negative_llc() {
        let t = ThreadCounters {
            active_end_cycle: 1000,
            llc_accesses: 100,
            sampled_llc_accesses: 100,
            sampled_interthread_hits: 1,
            sampled_interthread_miss_stall_cycles: 300.0,
            llc_load_misses: 10,
            llc_load_miss_stall_cycles: 1000.0,
            ..ThreadCounters::default()
        };
        let s = SpeedupStack::from_counters(&[t], 1000, &AccountingConfig::default()).unwrap();
        // negative = 0.3, positive = 0.1 => net = 0.2
        assert!((s.net_negative_llc() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn with_overhead_component_reduces_base() {
        let s = stack2();
        let base_before = s.base_speedup();
        let s = s.with_overhead_component(Component::ParallelizationOverhead, 0.3);
        assert!((s.base_speedup() - (base_before - 0.3)).abs() < 1e-12);
        assert!(s.is_valid());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn with_overhead_component_rejects_negative() {
        let _ = stack2().with_overhead_component(Component::Spinning, -0.1);
    }

    #[test]
    fn estimated_single_thread_cycles_sums() {
        let s = stack2();
        // thread 0: 1000 - 200 = 800; thread 1: 1000 - 200(imbalance) = 800
        assert!((s.estimated_single_thread_cycles() - 1600.0).abs() < 1e-12);
    }

    #[test]
    fn per_thread_exposed() {
        let s = stack2();
        assert_eq!(s.per_thread().len(), 2);
    }
}
