//! Banked open-page DRAM with a shared memory bus and per-core open row
//! arrays (ORAs).
//!
//! Models the three memory-subsystem interference sources of §3.1/§4.1:
//!
//! - **bus conflicts** — the single data bus serves one transfer at a time;
//!   waiting for a transfer of *another* core is interference;
//! - **bank conflicts** — a busy bank delays accesses; waiting for another
//!   core's access is interference;
//! - **open-page conflicts** — under the open-page policy a row stays open
//!   in the row buffer; if a core finds its row closed *and its ORA says it
//!   opened that row most recently*, another core must have closed it, and
//!   the extra precharge+activate latency is interference.

use crate::{CoreId, LineAddr};

/// DRAM timing and geometry parameters (all times in core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (paper: 8).
    pub banks: usize,
    /// log2 of the number of cache lines per DRAM row (6 → 64 lines ×
    /// 64 B = 4 KB rows).
    pub lines_per_row_log2: u32,
    /// Row activate time.
    pub t_act: u64,
    /// Precharge time.
    pub t_pre: u64,
    /// Column access time.
    pub t_cas: u64,
    /// Data-bus occupancy per transfer.
    pub t_bus: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            lines_per_row_log2: 6,
            t_act: 30,
            t_pre: 30,
            t_cas: 40,
            t_bus: 8,
        }
    }
}

impl DramConfig {
    /// The DRAM row holding a line.
    #[must_use]
    pub fn row_of(&self, line: LineAddr) -> u64 {
        line >> self.lines_per_row_log2
    }

    /// The bank holding a line (rows interleave across banks).
    #[must_use]
    pub fn bank_of(&self, line: LineAddr) -> usize {
        (self.row_of(line) % self.banks as u64) as usize
    }

    /// Service latency for a row-buffer hit.
    #[must_use]
    pub fn row_hit_latency(&self) -> u64 {
        self.t_cas
    }

    /// Service latency when the bank has no open row.
    #[must_use]
    pub fn row_empty_latency(&self) -> u64 {
        self.t_act + self.t_cas
    }

    /// Service latency when another row must first be closed.
    #[must_use]
    pub fn row_conflict_latency(&self) -> u64 {
        self.t_pre + self.t_act + self.t_cas
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    busy_until: u64,
    open_row: Option<u64>,
    last_user: Option<CoreId>,
}

/// One core's open row array: the row this core most recently opened in
/// each bank (§4.1).
#[derive(Debug, Clone)]
struct Ora {
    rows: Vec<Option<u64>>,
}

/// Result of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramAccess {
    /// Total latency from issue to data return.
    pub latency: u64,
    /// Cycles waited on a bank busy with another core's access.
    pub bank_wait_other: u64,
    /// Cycles waited for the data bus while used by another core.
    pub bus_wait_other: u64,
    /// Extra service latency caused by another core closing this core's
    /// open page (per the ORA), versus the row hit it would have had.
    pub page_conflict_other: u64,
    /// The access hit the open row.
    pub row_hit: bool,
}

/// The DRAM subsystem shared by all cores.
///
/// # Examples
///
/// ```
/// use memsim::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig::default(), 2);
/// let first = dram.access(0, 0, 0);
/// assert!(!first.row_hit);                       // cold bank
/// let second = dram.access(0, 1, first.latency); // same row, later
/// assert!(second.row_hit);
/// assert!(second.latency < first.latency);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    oras: Vec<Ora>,
    bus_free: u64,
    bus_last_user: Option<CoreId>,
}

impl Dram {
    /// Creates a DRAM shared by `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero banks or `n_cores` is zero.
    #[must_use]
    pub fn new(cfg: DramConfig, n_cores: usize) -> Self {
        assert!(cfg.banks > 0, "banks must be non-zero");
        assert!(n_cores > 0, "n_cores must be non-zero");
        Dram {
            cfg,
            banks: vec![Bank::default(); cfg.banks],
            oras: vec![
                Ora {
                    rows: vec![None; cfg.banks],
                };
                n_cores
            ],
            bus_free: 0,
            bus_last_user: None,
        }
    }

    /// The DRAM parameters.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Performs one access by `core` to `line` starting at cycle `now`.
    ///
    /// Works identically for demand accesses and writebacks; the caller
    /// decides whether the returned latency stalls anyone.
    pub fn access(&mut self, core: CoreId, line: LineAddr, now: u64) -> DramAccess {
        let row = self.cfg.row_of(line);
        let bank_idx = self.cfg.bank_of(line);
        let bank = &mut self.banks[bank_idx];

        // Wait for the bank.
        let bank_wait = bank.busy_until.saturating_sub(now);
        let bank_wait_other = if bank.last_user.is_some_and(|u| u != core) {
            bank_wait
        } else {
            0
        };
        let start = now + bank_wait;

        // Row buffer state.
        let (service, row_hit) = match bank.open_row {
            Some(open) if open == row => (self.cfg.row_hit_latency(), true),
            Some(_) => (self.cfg.row_conflict_latency(), false),
            None => (self.cfg.row_empty_latency(), false),
        };

        // Open-page interference per the ORA: the row was open for us and
        // someone else replaced it.
        let ora = &mut self.oras[core];
        let page_conflict_other = if !row_hit
            && bank.open_row.is_some()
            && ora.rows[bank_idx] == Some(row)
            && bank.last_user.is_some_and(|u| u != core)
        {
            self.cfg.row_conflict_latency() - self.cfg.row_hit_latency()
        } else {
            0
        };
        ora.rows[bank_idx] = Some(row);

        let data_ready = start + service;

        // Wait for the shared data bus.
        let bus_wait = self.bus_free.saturating_sub(data_ready);
        let bus_wait_other = if self.bus_last_user.is_some_and(|u| u != core) {
            bus_wait
        } else {
            0
        };
        let finish = data_ready + bus_wait + self.cfg.t_bus;

        bank.busy_until = data_ready;
        bank.open_row = Some(row);
        bank.last_user = Some(core);
        self.bus_free = finish;
        self.bus_last_user = Some(core);

        DramAccess {
            latency: finish - now,
            bank_wait_other,
            bus_wait_other,
            page_conflict_other,
            row_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default(), 4)
    }

    #[test]
    fn cold_access_latency() {
        let mut d = dram();
        let a = d.access(0, 0, 0);
        let cfg = d.config();
        assert_eq!(a.latency, cfg.row_empty_latency() + cfg.t_bus);
        assert!(!a.row_hit);
        assert_eq!(a.bank_wait_other, 0);
        assert_eq!(a.page_conflict_other, 0);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let a = d.access(0, 0, 0);
        let b = d.access(0, 1, a.latency + 10);
        assert!(b.row_hit);
        assert_eq!(b.latency, d.config().row_hit_latency() + d.config().t_bus);
    }

    #[test]
    fn row_conflict_same_core_not_interference() {
        let mut d = dram();
        let cfg = d.config();
        d.access(0, 0, 0);
        // Same bank, different row: row 8 maps to bank 0 with 8 banks.
        let lines_per_row = 1u64 << cfg.lines_per_row_log2;
        let other_row_line = 8 * lines_per_row;
        assert_eq!(cfg.bank_of(other_row_line), 0);
        let b = d.access(0, other_row_line, 1000);
        assert!(!b.row_hit);
        assert_eq!(b.page_conflict_other, 0); // self-inflicted
    }

    #[test]
    fn page_conflict_attributed_to_other_core() {
        let mut d = dram();
        let cfg = d.config();
        let lines_per_row = 1u64 << cfg.lines_per_row_log2;
        // Core 0 opens row 0 in bank 0.
        d.access(0, 0, 0);
        // Core 1 opens row 8 (same bank), closing core 0's row.
        d.access(1, 8 * lines_per_row, 1000);
        // Core 0 returns to row 0: closed by core 1 → interference.
        let back = d.access(0, 1, 2000);
        assert!(!back.row_hit);
        assert_eq!(
            back.page_conflict_other,
            cfg.row_conflict_latency() - cfg.row_hit_latency()
        );
    }

    #[test]
    fn bank_wait_attributed_to_other_core() {
        let mut d = dram();
        d.access(0, 0, 0); // bank 0 busy until t_act+t_cas = 70
        let b = d.access(1, 1, 10); // same bank, row hit after wait
        assert!(b.bank_wait_other > 0);
    }

    #[test]
    fn bank_wait_self_not_interference() {
        let mut d = dram();
        d.access(0, 0, 0);
        let b = d.access(0, 1, 10);
        assert_eq!(b.bank_wait_other, 0);
    }

    #[test]
    fn bus_contention_across_banks() {
        let mut d = dram();
        let cfg = d.config();
        let lines_per_row = 1u64 << cfg.lines_per_row_log2;
        // Two cores, different banks, same time: second transfer waits for bus.
        let a = d.access(0, 0, 0);
        let b = d.access(1, lines_per_row, 0); // bank 1
        assert_eq!(a.bus_wait_other, 0);
        assert!(b.bus_wait_other > 0 || b.latency > a.latency - cfg.t_bus);
    }

    #[test]
    fn deterministic() {
        let mut d1 = dram();
        let mut d2 = dram();
        for i in 0..100u64 {
            let a = d1.access((i % 4) as usize, i * 3, i * 7);
            let b = d2.access((i % 4) as usize, i * 3, i * 7);
            assert_eq!(a, b);
        }
    }
}
