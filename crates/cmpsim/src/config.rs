//! Machine configuration: cores, memory, synchronization policy,
//! scheduler and spin-detection parameters.

use memsim::MemConfig;
use speedup_stacks::error::ConfigError;

/// Out-of-order core timing model.
///
/// The engine exposes `max(0, latency − overlap_window)` of every load's
/// beyond-L1 latency as stall cycles, modelling the paper's "only account
/// interference when the miss blocks the ROB head" rule (§4.1): short LLC
/// hits are fully hidden, DRAM accesses are mostly exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreModelConfig {
    /// Cycles of memory latency the out-of-order window can hide per load.
    /// Set to 0 for an in-order-style core (then coherency misses become
    /// visible, cf. §4.5).
    pub overlap_window: u64,
}

impl Default for CoreModelConfig {
    fn default() -> Self {
        CoreModelConfig { overlap_window: 30 }
    }
}

/// Synchronization substrate parameters (spin-then-yield policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncConfig {
    /// Cycles a waiter spins before the OS schedules it out (adaptive
    /// mutex / futex behaviour).
    pub spin_threshold: u64,
    /// Cycles from a release to a *spinning* waiter resuming (cache-line
    /// transfer of the lock word).
    pub lock_handoff: u64,
    /// Cycles from a release to a *yielded* waiter becoming runnable
    /// (futex wake path through the OS).
    pub wake_latency: u64,
    /// Cycles per spin-loop iteration (poll period of the lock word).
    pub spin_iter_cycles: u64,
    /// Instructions per spin-loop iteration (for the dynamic
    /// instruction-count overhead measure, §6).
    pub spin_iter_instrs: u64,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            spin_threshold: 1_500,
            lock_handoff: 50,
            wake_latency: 4_000,
            spin_iter_cycles: 8,
            spin_iter_instrs: 4,
        }
    }
}

/// OS scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Context-switch cost in cycles (charged to the incoming thread's
    /// scheduled-out time).
    pub context_switch: u64,
    /// Round-robin time slice when runnable threads exceed cores.
    pub quantum: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            context_switch: 1_000,
            quantum: 100_000,
        }
    }
}

/// Which spin-detection mechanism feeds the accounting (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpinDetectorKind {
    /// Tian et al.: a load table marks loads that reload identical data
    /// more than `mark_threshold` times; when a marked load's value
    /// changes (written by another core) the episode is counted.
    Tian {
        /// Same-value reload count before a load is marked as spinning.
        mark_threshold: u32,
    },
    /// Li et al.: backward-branch monitoring with a compact processor-state
    /// signature; detects after `confirm_iterations` unchanged iterations.
    Li {
        /// Loop iterations with unchanged state before confirmation.
        confirm_iterations: u32,
    },
    /// Perfect oracle (simulator ground truth); useful for isolating the
    /// detector's contribution to estimation error.
    Oracle,
}

impl Default for SpinDetectorKind {
    fn default() -> Self {
        SpinDetectorKind::Tian { mark_threshold: 16 }
    }
}

/// Full machine configuration for a simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of hardware cores, 1 to [`MachineConfig::MAX_CORES`]: the
    /// memory hierarchy keeps `ceil(n_cores / 64)` sharer-mask words per
    /// LLC line, so 128-core (and larger) machines simulate without
    /// configuration changes.
    pub n_cores: usize,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Core timing model.
    pub core: CoreModelConfig,
    /// Synchronization policy.
    pub sync: SyncConfig,
    /// OS scheduler.
    pub sched: SchedConfig,
    /// Spin detector used by the accounting.
    pub spin_detector: SpinDetectorKind,
    /// Record per-thread accounting snapshots at every barrier release,
    /// enabling per-region speedup stacks (§4.6: the imbalance before
    /// each barrier then quantifies barrier overhead).
    pub record_regions: bool,
    /// Safety valve: abort the simulation after this many cycles.
    pub max_cycles: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_cores: 16,
            mem: MemConfig::default(),
            core: CoreModelConfig::default(),
            sync: SyncConfig::default(),
            sched: SchedConfig::default(),
            spin_detector: SpinDetectorKind::default(),
            record_regions: false,
            max_cycles: 50_000_000_000,
        }
    }
}

impl MachineConfig {
    /// The most cores a machine may have, and the most threads a size
    /// taken from a user or the wire may ask for (`repro --threads`, a
    /// submit's `threads`). Each simulated core costs about 36 KB up
    /// front, and a failed allocation aborts the whole process, so counts
    /// are bounded where they are parsed: 8× the scaling study's 128
    /// cores, about 44 MB per run. It also keeps the LLC's 16-bit
    /// inserter id from wrapping.
    pub const MAX_CORES: usize = 1024;

    /// A machine with `n_cores` cores and default parameters otherwise.
    /// Counts above 64 only widen the per-line sharer masks.
    ///
    /// ```
    /// let m = cmpsim::MachineConfig::with_cores(4);
    /// assert_eq!(m.n_cores, 4);
    /// let many = cmpsim::MachineConfig::with_cores(128);
    /// assert_eq!(many.n_cores, 128);
    /// ```
    #[must_use]
    pub fn with_cores(n_cores: usize) -> Self {
        MachineConfig {
            n_cores,
            ..MachineConfig::default()
        }
    }

    /// Checks the configuration before a simulation starts, replacing the
    /// engine's constructor `assert!`s with a typed error: the
    /// fault-tolerant sweep layer surfaces it as `SimError::Config`
    /// (exit code 3) instead of a panic.
    ///
    /// ```
    /// use cmpsim::MachineConfig;
    /// assert!(MachineConfig::default().validate().is_ok());
    /// assert!(MachineConfig::with_cores(0).validate().is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: zero cores or more than
    /// [`MachineConfig::MAX_CORES`], a zero cycle limit, a zero scheduler quantum or a zero spin-poll period (the
    /// sync substrate divides by it), or a zero ATD sampling period.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_cores == 0 {
            return Err(ConfigError::zero("n_cores"));
        }
        if self.n_cores > Self::MAX_CORES {
            return Err(ConfigError::range("n_cores", "must be at most 1024"));
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::zero("max_cycles"));
        }
        if self.sched.quantum == 0 {
            return Err(ConfigError::zero("sched.quantum"));
        }
        if self.sync.spin_iter_cycles == 0 {
            return Err(ConfigError::zero("sync.spin_iter_cycles"));
        }
        if self.mem.atd_sample_period == 0 {
            return Err(ConfigError::zero("mem.atd_sample_period"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let m = MachineConfig::default();
        assert_eq!(m.n_cores, 16);
        assert!(m.sync.spin_threshold < m.sched.quantum);
        assert!(m.sync.lock_handoff < m.sync.wake_latency);
    }

    #[test]
    fn with_cores() {
        assert_eq!(MachineConfig::with_cores(2).n_cores, 2);
    }

    #[test]
    fn validate_rejects_zero_counts() {
        assert!(MachineConfig::default().validate().is_ok());
        assert!(MachineConfig::with_cores(0).validate().is_err());
        let max = MachineConfig::MAX_CORES;
        assert!(MachineConfig::with_cores(max).validate().is_ok());
        assert!(MachineConfig::with_cores(max + 1).validate().is_err());
        let m = MachineConfig {
            max_cycles: 0,
            ..MachineConfig::default()
        };
        assert!(m.validate().is_err());
        let mut m = MachineConfig::default();
        m.sched.quantum = 0;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::default();
        m.sync.spin_iter_cycles = 0;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::default();
        m.mem.atd_sample_period = 0;
        assert!(m.validate().is_err());
    }
}
