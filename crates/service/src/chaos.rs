//! Deterministic fault injection for the chaos suite.
//!
//! A [`ChaosPolicy`] names concrete faults by *position* — "panic while
//! executing the Nth work unit" — so an injected failure lands at
//! exactly the same place on every run: the chaos tests assert on typed
//! outcomes, never on timing. The policy is off by default and costs
//! three `Option` loads per unit when disabled. (Spill corruption needs
//! no fault here: the chaos suite damages the file by hand.)
//!
//! Tests construct a policy programmatically (through
//! [`crate::server::ServeConfig`] or [`crate::scheduler::SchedOptions`]);
//! the `studyd` binary also honors the `STUDYD_CHAOS` environment
//! variable (`panic-unit=N`, `stall-unit=N`, `exit-unit=N`,
//! comma-joined) so the federation suite can inject faults into a real
//! daemon process — including killing or stalling one *specific*
//! backend of a fleet deterministically.

/// Which deterministic faults to inject. Default: none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPolicy {
    /// Panic inside the worker executing the Nth scheduled unit
    /// (0-based, counted across all jobs since startup). Every retry of
    /// that unit panics too, so the unit exhausts its budget into a
    /// typed failure.
    pub panic_at_unit: Option<u64>,
    /// Stall the worker that claims the Nth scheduled unit forever (it
    /// parks until shutdown), simulating a wedged straggler backend: the
    /// unit never completes, but the daemon keeps answering control
    /// frames so only a hedge or failover can rescue the unit.
    pub stall_at_unit: Option<u64>,
    /// Kill the whole process (`exit(9)`, as abrupt as a `kill -9`) the
    /// moment a worker claims the Nth scheduled unit, simulating a
    /// backend dying mid-sweep with streams open.
    pub exit_at_unit: Option<u64>,
}

impl ChaosPolicy {
    /// Whether any fault is armed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.panic_at_unit.is_some() || self.stall_at_unit.is_some() || self.exit_at_unit.is_some()
    }

    /// Parses a `STUDYD_CHAOS`-style spec: comma-separated `key=N`
    /// pairs, e.g. `panic-unit=3,stall-unit=0`. Empty spec → default.
    ///
    /// # Errors
    ///
    /// A human-readable reason for a malformed spec.
    pub fn parse(spec: &str) -> Result<ChaosPolicy, String> {
        let mut policy = ChaosPolicy::default();
        for part in spec.split(',').filter(|s| !s.is_empty()) {
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("chaos spec '{part}' is not key=N"));
            };
            let n: u64 = value
                .parse()
                .map_err(|_| format!("chaos spec '{part}' needs an integer value"))?;
            match key {
                "panic-unit" => policy.panic_at_unit = Some(n),
                "stall-unit" => policy.stall_at_unit = Some(n),
                "exit-unit" => policy.exit_at_unit = Some(n),
                other => return Err(format!("unknown chaos fault '{other}'")),
            }
        }
        Ok(policy)
    }

    /// Reads the `STUDYD_CHAOS` environment variable (unset or empty →
    /// no faults; a malformed spec is an error, not a silent no-op —
    /// a typo must not quietly disarm a chaos run).
    ///
    /// # Errors
    ///
    /// The [`ChaosPolicy::parse`] reason.
    pub fn from_env() -> Result<ChaosPolicy, String> {
        match std::env::var("STUDYD_CHAOS") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(ChaosPolicy::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_specs() {
        assert_eq!(ChaosPolicy::parse("").unwrap(), ChaosPolicy::default());
        let p = ChaosPolicy::parse("panic-unit=3").unwrap();
        assert_eq!(p.panic_at_unit, Some(3));
        assert!(p.is_active());
        assert!(!ChaosPolicy::default().is_active());
        let p = ChaosPolicy::parse("stall-unit=0,exit-unit=7").unwrap();
        assert_eq!(p.stall_at_unit, Some(0));
        assert_eq!(p.exit_at_unit, Some(7));
        assert!(p.is_active());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(ChaosPolicy::parse("panic-unit").is_err());
        assert!(ChaosPolicy::parse("panic-unit=x").is_err());
        assert!(ChaosPolicy::parse("frobnicate=1").is_err());
        assert!(ChaosPolicy::parse("flip-spill=0").is_err(), "retired fault");
    }
}
