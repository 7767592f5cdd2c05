//! Post-processing of raw counters into per-thread cycle components.
//!
//! This is the "system software" half of the paper's accounting
//! architecture (§4.7): the hardware provides raw cycle and event counts
//! ([`ThreadCounters`]); this module applies
//!
//! - **extrapolation** for negative LLC interference (sampled inter-thread
//!   miss stalls × sampling factor, §4.1),
//! - **interpolation** for positive LLC interference (estimated
//!   inter-thread hits × average miss penalty, §4.2),
//! - direct charging for memory interference, spinning and yielding, and
//! - the **imbalance fill** (§4.6): every thread's components are topped up
//!   so they sum to the slowest thread's execution time.

use crate::components::{Breakdown, Component};
use crate::counters::ThreadCounters;
use crate::error::StackError;

/// Configuration for turning raw counters into cycle components.
///
/// # Examples
///
/// ```
/// use speedup_stacks::AccountingConfig;
/// let cfg = AccountingConfig { charge_coherency: true, ..AccountingConfig::default() };
/// assert!(cfg.charge_coherency);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccountingConfig {
    /// Charge coherency-miss cycles as a [`Component::CacheCoherency`]
    /// overhead. The paper's default is `false`: a balanced out-of-order
    /// core hides most L1 misses (§4.5). Enable for in-order-style cores.
    pub charge_coherency: bool,
    /// Clamp each thread's total overhead to `Tp` (scaling components
    /// proportionally) so the estimated single-threaded fraction is never
    /// negative. Extrapolated estimates can otherwise overshoot.
    pub clamp_overheads: bool,
}

impl Default for AccountingConfig {
    fn default() -> Self {
        AccountingConfig {
            charge_coherency: false,
            clamp_overheads: true,
        }
    }
}

/// Per-thread cycle components plus the derived single-thread estimate.
///
/// `estimated_single_thread_cycles` is the paper's `T̂_i` (Eq. 2): the
/// measured per-thread time minus all overhead components plus positive
/// interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadBreakdown {
    /// Overhead components, in cycles.
    pub overheads: Breakdown,
    /// Positive LLC interference, in cycles.
    pub positive_cycles: f64,
    /// `T̂_i = Tp − Σ_j O_ij + P_i` (Eq. 2).
    pub estimated_single_thread_cycles: f64,
}

impl ThreadBreakdown {
    /// Total overhead cycles across all components.
    #[must_use]
    pub fn total_overhead(&self) -> f64 {
        self.overheads.total()
    }
}

/// Computes per-thread cycle components from raw counters.
///
/// `tp` is the duration of the (parallel section of the) multi-threaded
/// run in cycles; it is identical for all threads in the paper's breakup
/// (Figure 3).
///
/// # Errors
///
/// - [`StackError::NoThreads`] if `threads` is empty.
/// - [`StackError::ZeroDuration`] if `tp == 0`.
/// - [`StackError::InvalidCounters`] if a thread reports negative or
///   non-finite cycles, or finished after `tp`.
///
/// # Examples
///
/// ```
/// use speedup_stacks::{accounting, AccountingConfig, ThreadCounters, Component};
/// let threads = [
///     ThreadCounters { active_end_cycle: 1000, spin_cycles: 100.0,
///                      ..ThreadCounters::default() },
///     ThreadCounters { active_end_cycle: 600, ..ThreadCounters::default() },
/// ];
/// let b = accounting::account(&threads, 1000, &AccountingConfig::default())?;
/// // Thread 1 finished 400 cycles early: imbalance fill.
/// assert_eq!(b[1].overheads[Component::Imbalance], 400.0);
/// # Ok::<(), speedup_stacks::StackError>(())
/// ```
pub fn account(
    threads: &[ThreadCounters],
    tp: u64,
    cfg: &AccountingConfig,
) -> Result<Vec<ThreadBreakdown>, StackError> {
    if threads.is_empty() {
        return Err(StackError::NoThreads);
    }
    if tp == 0 {
        return Err(StackError::ZeroDuration);
    }
    let tp_f = tp as f64;

    let mut out = Vec::with_capacity(threads.len());
    for (i, t) in threads.iter().enumerate() {
        if !t.is_valid() || t.active_end_cycle > tp {
            return Err(StackError::InvalidCounters { thread: i });
        }

        let mut o = Breakdown::zero();
        o[Component::NegativeLlc] = t.negative_llc_cycles();
        o[Component::NegativeMemory] = t.mem_interference_cycles;
        o[Component::Spinning] = t.spin_cycles;
        o[Component::Yielding] = t.yield_cycles;
        o[Component::Imbalance] = tp_f - t.active_end_cycle as f64;
        if cfg.charge_coherency {
            o[Component::CacheCoherency] = t.coherency_miss_cycles;
        }

        if cfg.clamp_overheads {
            let total = o.total();
            if total > tp_f {
                o = o.scaled(tp_f / total);
            }
        }

        let positive = t.positive_interference_cycles();
        let mut est = tp_f - o.total() + positive;
        if cfg.clamp_overheads {
            // Proportional scaling can leave a float epsilon below zero.
            est = est.max(0.0);
        }
        out.push(ThreadBreakdown {
            overheads: o,
            positive_cycles: positive,
            estimated_single_thread_cycles: est,
        });
    }
    Ok(out)
}

/// Aggregates per-thread breakdowns into stack components in *speedup
/// units* (Σ cycles / Tp), the terms of Eq. 4.
///
/// Returns `(overheads, positive)` where `overheads.total()` is the total
/// speedup lost to scaling delimiters and `positive` is the speedup gained
/// from inter-thread hits.
#[must_use]
pub fn aggregate(breakdowns: &[ThreadBreakdown], tp: u64) -> (Breakdown, f64) {
    let tp_f = tp as f64;
    let mut agg = Breakdown::zero();
    let mut pos = 0.0;
    for b in breakdowns {
        agg += b.overheads.scaled(1.0 / tp_f);
        pos += b.positive_cycles / tp_f;
    }
    (agg, pos)
}

/// The paper's software-side parallelization-overhead measure (§6): the
/// relative increase in dynamic instruction count of the multi-threaded
/// run over the single-threaded run, after subtracting spin-loop
/// instructions.
///
/// Returns e.g. `0.26` for "26 % more instructions". Returns `0.0` when
/// the single-threaded instruction count is zero or the multi-threaded
/// count is smaller.
#[must_use]
pub fn instruction_overhead(threads: &[ThreadCounters], single_thread_instructions: u64) -> f64 {
    if single_thread_instructions == 0 {
        return 0.0;
    }
    let mt: f64 = threads
        .iter()
        .map(|t| t.instructions.saturating_sub(t.spin_instructions) as f64)
        .sum();
    let st = single_thread_instructions as f64;
    ((mt - st) / st).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_thread(end: u64) -> ThreadCounters {
        ThreadCounters {
            active_end_cycle: end,
            ..ThreadCounters::default()
        }
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            account(&[], 100, &AccountingConfig::default()),
            Err(StackError::NoThreads)
        );
    }

    #[test]
    fn rejects_zero_tp() {
        assert_eq!(
            account(&[base_thread(0)], 0, &AccountingConfig::default()),
            Err(StackError::ZeroDuration)
        );
    }

    #[test]
    fn rejects_end_after_tp() {
        assert_eq!(
            account(&[base_thread(200)], 100, &AccountingConfig::default()),
            Err(StackError::InvalidCounters { thread: 0 })
        );
    }

    #[test]
    fn imbalance_fill() {
        let threads = [base_thread(1000), base_thread(250)];
        let b = account(&threads, 1000, &AccountingConfig::default()).unwrap();
        assert_eq!(b[0].overheads[Component::Imbalance], 0.0);
        assert_eq!(b[1].overheads[Component::Imbalance], 750.0);
    }

    #[test]
    fn direct_components_pass_through() {
        let t = ThreadCounters {
            active_end_cycle: 1000,
            spin_cycles: 10.0,
            yield_cycles: 20.0,
            mem_interference_cycles: 30.0,
            ..ThreadCounters::default()
        };
        let b = account(&[t], 1000, &AccountingConfig::default()).unwrap();
        assert_eq!(b[0].overheads[Component::Spinning], 10.0);
        assert_eq!(b[0].overheads[Component::Yielding], 20.0);
        assert_eq!(b[0].overheads[Component::NegativeMemory], 30.0);
    }

    #[test]
    fn coherency_charged_only_when_enabled() {
        let t = ThreadCounters {
            active_end_cycle: 1000,
            coherency_miss_cycles: 42.0,
            ..ThreadCounters::default()
        };
        let off = account(&[t], 1000, &AccountingConfig::default()).unwrap();
        assert_eq!(off[0].overheads[Component::CacheCoherency], 0.0);
        let cfg = AccountingConfig {
            charge_coherency: true,
            ..AccountingConfig::default()
        };
        let on = account(&[t], 1000, &cfg).unwrap();
        assert_eq!(on[0].overheads[Component::CacheCoherency], 42.0);
    }

    #[test]
    fn estimated_single_thread_cycles_eq2() {
        let t = ThreadCounters {
            active_end_cycle: 1000,
            spin_cycles: 100.0,
            ..ThreadCounters::default()
        };
        let b = account(&[t], 1000, &AccountingConfig::default()).unwrap();
        // Tp - O + P = 1000 - 100 + 0
        assert_eq!(b[0].estimated_single_thread_cycles, 900.0);
    }

    #[test]
    fn clamping_prevents_negative_estimate() {
        let t = ThreadCounters {
            active_end_cycle: 100,
            spin_cycles: 5000.0, // absurd over-estimate
            ..ThreadCounters::default()
        };
        let b = account(&[t], 1000, &AccountingConfig::default()).unwrap();
        assert!(b[0].estimated_single_thread_cycles >= 0.0);
        assert!(b[0].overheads.total() <= 1000.0 + 1e-9);
    }

    #[test]
    fn aggregate_speedup_units() {
        let threads = [base_thread(1000), base_thread(500)];
        let b = account(&threads, 1000, &AccountingConfig::default()).unwrap();
        let (agg, pos) = aggregate(&b, 1000);
        assert_eq!(agg[Component::Imbalance], 0.5);
        assert_eq!(pos, 0.0);
    }

    #[test]
    fn instruction_overhead_measure() {
        let threads = [
            ThreadCounters {
                instructions: 700,
                spin_instructions: 100,
                ..ThreadCounters::default()
            },
            ThreadCounters {
                instructions: 660,
                spin_instructions: 0,
                ..ThreadCounters::default()
            },
        ];
        // (600 + 660 - 1000) / 1000 = 0.26
        let ovh = instruction_overhead(&threads, 1000);
        assert!((ovh - 0.26).abs() < 1e-12);
        assert_eq!(instruction_overhead(&threads, 0), 0.0);
    }

    #[test]
    fn instruction_overhead_never_negative() {
        let threads = [ThreadCounters {
            instructions: 10,
            ..ThreadCounters::default()
        }];
        assert_eq!(instruction_overhead(&threads, 1000), 0.0);
    }
}
