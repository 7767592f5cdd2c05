//! The one executor of every study's simulations.
//!
//! Every (benchmark × machine) point is a self-contained, deterministic
//! `Engine` run, and every point needs the single-thread references it
//! is measured against. [`run_units`] is the scoped driver of that
//! [`UnitGraph`] (no `rayon` offline — plain `std::thread::scope` over
//! the graph behind a mutex): every unit in its own fault domain, points
//! released as their references land, outcomes delivered by index — so
//! a sweep produces byte-identical output whether it ran serially or in
//! parallel, and a panicking or failing unit degrades its points instead
//! of killing the pool.
//!
//! [`fault_domain`] is the one per-unit **fault domain**: `catch_unwind`
//! plus a bounded retry budget. Retries re-run the identical pure
//! closure (backoff-free re-queue), so serial and parallel sweeps stay
//! bit-identical for every successful point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::graph::{RefValue, Unit, UnitGraph};

/// Execution mode of a sweep ([`run_units`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run on the calling thread, in input order.
    Serial,
    /// One worker per available CPU (serial when only one is available).
    #[default]
    Auto,
    /// Exactly this many workers (used by the determinism tests to force
    /// real cross-thread execution regardless of the host).
    Workers(usize),
}

impl Parallelism {
    /// The effective worker count for a sweep of `items` points.
    ///
    /// The count is capped at the item count. `Workers(0)`, which the
    /// study gate refuses before a run starts, counts as one worker.
    #[must_use]
    pub fn workers(self, items: usize) -> usize {
        let n = match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Parallelism::Workers(n) => n.max(1),
        };
        n.min(items.max(1))
    }
}

/// Renders a `catch_unwind` payload as text (the common `&str`/`String`
/// panic payloads; anything else gets a placeholder).
fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked: (non-string payload)".to_string()
    }
}

/// Runs `f` in one fault domain: a panic is caught and rendered as an
/// `Err`, and a failing run (panic or `Err`) is re-attempted up to
/// `retries` extra times. Returns the last outcome and the attempts
/// spent. Every unit — [`run_units`]'s and the study service's workers'
/// — runs through here, so "what a retry budget means" has one
/// definition.
pub fn fault_domain<R>(
    retries: u32,
    f: impl Fn() -> Result<R, String>,
) -> (Result<R, String>, u32) {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(r) => r,
            Err(p) => Err(panic_payload(p.as_ref())),
        };
        if outcome.is_ok() || attempts > retries {
            return (outcome, attempts);
        }
    }
}

/// What running one popped unit produced — its fault-domain outcome and
/// attempts — before it is applied to the graph.
enum Ran<P> {
    Ref(usize, (Result<RefValue, String>, u32)),
    Point(usize, (Result<P, String>, u32)),
}

/// The scoped single-job driver of a [`UnitGraph`]: pops units until the
/// graph has none left to give, runs each in [`fault_domain`] with the
/// `retries` budget — `reference(r)`, or `point(i, inputs)` with the
/// values of the point's references — and delivers every point's outcome
/// (completed, failed, or cascaded from a failed reference) to
/// `resolved(index, outcome, attempts)`. Returns the units that succeeded.
///
/// Under one effective worker this is an inline loop on the calling
/// thread: no thread, lock or allocation per unit. Otherwise that many
/// scoped workers (the caller among them) share the graph behind a
/// mutex, and `resolved` runs under it.
pub fn run_units<P, R, F, S>(
    graph: &mut UnitGraph,
    mode: Parallelism,
    retries: u32,
    reference: R,
    point: F,
    mut resolved: S,
) -> usize
where
    P: Send,
    R: Fn(usize) -> Result<RefValue, String> + Sync,
    F: Fn(usize, &[RefValue]) -> Result<P, String> + Sync,
    S: FnMut(usize, Result<P, String>, u32) + Send,
{
    let run = |unit: Unit, inputs: &[RefValue]| match unit {
        Unit::Ref(r) => Ran::Ref(r, fault_domain(retries, || reference(r))),
        Unit::Point(i) => Ran::Point(i, fault_domain(retries, || point(i, inputs))),
    };
    // Applies one finished unit; true when it succeeded.
    let apply = |graph: &mut UnitGraph, resolved: &mut S, ran: Ran<P>| match ran {
        Ran::Ref(r, (outcome, attempts)) => {
            let ok = outcome.is_ok();
            let cascades = match outcome {
                Ok(value) => graph.ref_ok(r, value),
                Err(reason) => graph.ref_failed(r, &reason, attempts),
            };
            for c in cascades {
                resolved(c.point, Err(c.reason), c.attempts);
            }
            ok
        }
        Ran::Point(i, (outcome, attempts)) => {
            let ok = outcome.is_ok();
            graph.point_done(i);
            resolved(i, outcome, attempts);
            ok
        }
    };

    let workers = mode.workers(graph.queued());
    let mut completed = 0usize;
    if workers <= 1 {
        while let Some(unit) = graph.pop() {
            let ran = run(unit, graph.inputs(unit));
            completed += usize::from(apply(graph, &mut resolved, ran));
        }
        return completed;
    }

    let shared = Mutex::new((graph, &mut resolved, &mut completed));
    let wake = Condvar::new();
    let worker = || loop {
        let (unit, inputs) = {
            let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(unit) = guard.0.pop() {
                    break (unit, guard.0.inputs(unit).to_vec());
                }
                if guard.0.running() == 0 {
                    // Nothing to pop and nothing in flight that could
                    // release more: this worker is done.
                    return;
                }
                guard = wake.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let ran = run(unit, &inputs);
        let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
        let (graph, resolved, completed) = &mut *guard;
        **completed += usize::from(apply(graph, resolved, ran));
        drop(guard);
        wake.notify_all();
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });
    completed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_clamps_zero_and_caps_at_items() {
        assert_eq!(Parallelism::Workers(0).workers(10), 1);
        assert_eq!(Parallelism::Workers(64).workers(3), 3);
        assert_eq!(Parallelism::Serial.workers(100), 1);
    }

    #[test]
    fn workers_clamp_covers_zero_one_and_many_against_available_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Explicit counts: 0 clamps up to 1, 1 stays 1, many is honored
        // verbatim (the pool does not silently cap at the host's cores —
        // oversubscription is the caller's informed choice) until the
        // item cap kicks in.
        for items in [1usize, 2, 100] {
            assert_eq!(Parallelism::Workers(0).workers(items), 1, "{items} items");
            assert_eq!(Parallelism::Workers(1).workers(items), 1, "{items} items");
            assert_eq!(
                Parallelism::Workers(cores * 4).workers(items),
                (cores * 4).min(items),
                "{items} items"
            );
        }
        // Auto tracks the host's available cores, capped at the items.
        assert_eq!(Parallelism::Auto.workers(usize::MAX), cores);
        assert_eq!(Parallelism::Auto.workers(1), 1);
        // Zero items never yields zero workers (a sweep of nothing still
        // needs a well-formed pool size).
        for mode in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Workers(0),
            Parallelism::Workers(8),
        ] {
            assert_eq!(mode.workers(0), 1, "{mode:?}");
        }
    }

    /// A one-reference graph over `n` points, every point added.
    fn flat_graph(n: usize) -> UnitGraph {
        let mut graph = UnitGraph::new(1, n, |_| 0..1);
        (0..n).for_each(|i| graph.add_point(i));
        graph
    }

    #[test]
    fn run_units_isolates_panics() {
        for mode in [Parallelism::Serial, Parallelism::Workers(4)] {
            let mut graph = flat_graph(10);
            let mut slots: Vec<Option<(Result<u64, String>, u32)>> = vec![None; 10];
            let completed = run_units(
                &mut graph,
                mode,
                0,
                |_| Ok((7, 1)),
                |i, st| {
                    assert_eq!(st, [(7, 1)]);
                    if i == 3 {
                        panic!("injected panic at {i}");
                    }
                    Ok(i as u64 * 2)
                },
                |i, outcome, attempts| {
                    assert!(slots[i].replace((outcome, attempts)).is_none());
                },
            );
            assert_eq!(completed, 10, "the reference and nine points");
            assert!(graph.is_complete());
            for (i, slot) in slots.into_iter().enumerate() {
                let (outcome, attempts) = slot.expect("every point resolved");
                assert_eq!(attempts, 1);
                if i == 3 {
                    let payload = outcome.unwrap_err();
                    assert!(payload.contains("injected panic at 3"), "{payload}");
                } else {
                    assert_eq!(outcome.unwrap(), i as u64 * 2);
                }
            }
        }
    }

    #[test]
    fn run_units_spends_the_retry_budget_and_reports_attempts() {
        use std::sync::atomic::{AtomicU32, Ordering};
        // A point failing its first `failures` calls under `retries`
        // extra attempts: a deterministic failure exhausts the budget
        // (1 try + 2 retries), a transient one succeeds on its third call.
        for (retries, failures, expected) in [
            (2, u32::MAX, (Err("fails".to_string()), 3)),
            (3, 2, (Ok(7u32), 3)),
        ] {
            let calls = AtomicU32::new(0);
            let mut seen = None;
            run_units(
                &mut flat_graph(1),
                Parallelism::Serial,
                retries,
                |_| Ok((1, 1)),
                |_, _| match calls.fetch_add(1, Ordering::Relaxed) {
                    n if n < failures => Err("fails".to_string()),
                    _ => Ok(7),
                },
                |_, outcome, attempts| seen = Some((outcome, attempts)),
            );
            assert_eq!(seen, Some(expected));
            assert_eq!(calls.load(Ordering::Relaxed), 3);
        }
    }
}
