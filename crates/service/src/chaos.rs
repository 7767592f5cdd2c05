//! Deterministic fault injection for the chaos suite.
//!
//! A [`ChaosPolicy`] names a fault by *position* — "panic while
//! executing the Nth work unit" — so an injected failure lands at
//! exactly the same place on every run: the chaos tests assert on typed
//! outcomes, never on timing. The policy is off by default and costs one
//! `Option` load per unit when disabled. It is set programmatically
//! (through [`crate::server::ServeConfig`] or
//! [`crate::scheduler::SchedOptions`]).
//!
//! A panic inside a unit is the one fault nothing outside the process
//! can cause. Every other fault the suites need is injected from
//! outside: a relay in front of a backend that cuts or withholds its
//! stream, a fake engine behind a session, spill bytes damaged by hand.

/// Which deterministic faults to inject. Default: none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPolicy {
    /// Panic inside the worker executing the Nth scheduled unit
    /// (0-based, counted across all jobs since startup). Every retry of
    /// that unit panics too, so the unit exhausts its budget into a
    /// typed failure.
    pub panic_at_unit: Option<u64>,
}
