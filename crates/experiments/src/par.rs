//! Deterministic parallel map over independent simulation points.
//!
//! Figure grids are embarrassingly parallel: every (benchmark ×
//! thread-count) point is a self-contained, deterministic `Engine` run.
//! [`par_map`] fans the points out over a scoped thread pool (no `rayon`
//! offline — plain `std::thread::scope` with an atomic work index) and
//! collects results **in input order**, so a sweep produces byte-identical
//! output whether it ran serially or in parallel — guarded by the
//! `sweep_determinism` integration test.
//!
//! [`fault_domain`] is the one per-unit **fault domain**: `catch_unwind`
//! plus a bounded retry budget. [`try_map_mode`] maps it over a sweep, so
//! a panicking or failing point yields a typed [`PointError`] in its slot
//! instead of killing the pool. Retries re-run the identical pure closure
//! (backoff-free re-queue), so serial and parallel sweeps stay
//! bit-identical for every successful point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use speedup_stacks::error::PointError;

/// Execution mode for [`map_mode`].
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
    /// Note the clamp: `Parallelism::Workers(0)` is treated as one worker
    /// (zero workers could make no progress). Drivers should reject `0`
    /// at the input boundary instead of relying on the clamp — the
    /// `repro` CLI turns `--parallelism 0` into a usage error before it
    /// ever reaches here. The count is also capped at the item count.
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

/// Applies `f` to every item with the default parallelism, returning
/// results in input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    map_mode(Parallelism::Auto, items, f)
}

/// Applies `f` to every item under the given [`Parallelism`], returning
/// results in input order regardless of completion order.
pub fn map_mode<T, R, F>(mode: Parallelism, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = mode.workers(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                // Poison-tolerant locks: a worker that panicked inside `f`
                // (between the two lock holds) must not turn its siblings'
                // accesses into secondary panics — only the faulting
                // point's slot may be lost.
                let item = slots[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("item taken once");
                let r = f(item);
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker filled every slot")
        })
        .collect()
}

/// Outcome of one fault-isolated point: the result (or its typed error)
/// plus the attempts spent, so sweeps can report retried points.
#[derive(Debug)]
pub struct PointOutcome<R> {
    /// Attempts used (1 = succeeded or failed first try).
    pub attempts: u32,
    /// The point's result, or why every attempt failed.
    pub result: Result<R, PointError>,
}

impl<R> PointOutcome<R> {
    /// True if the point eventually succeeded but needed a retry.
    #[must_use]
    pub fn retried_ok(&self) -> bool {
        self.result.is_ok() && self.attempts > 1
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
/// spent. Every grid unit — the local sweep's, the study service's
/// workers', the federation's local fallback's — runs through here, so
/// "what a retry budget means" has one definition.
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

/// Applies the fallible `f` to every item under the given
/// [`Parallelism`], isolating each point in its own fault domain:
///
/// - a panic inside `f` is caught per attempt and never reaches the
///   thread pool (workers keep draining the queue);
/// - a failing point (panic or `Err`) is re-attempted up to `retries`
///   extra times — a backoff-free re-queue of the identical pure closure,
///   so a deterministic failure fails identically every time and a
///   successful point's value is independent of the execution mode;
/// - after exhausting its budget the point's slot carries a
///   [`PointError`] with the index, `label(item)`, the captured payload
///   and the wall-clock spent.
///
/// Results are in input order; serial and parallel runs agree on every
/// successful point.
pub fn try_map_mode<T, R, F, L>(
    mode: Parallelism,
    retries: u32,
    items: Vec<T>,
    label: L,
    f: F,
) -> Vec<PointOutcome<R>>
where
    T: Send,
    R: Send,
    F: Fn(&T) -> Result<R, String> + Sync,
    L: Fn(&T) -> String + Sync,
{
    let indexed: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    map_mode(mode, indexed, |(index, item)| {
        let start = Instant::now();
        let (outcome, attempts) = fault_domain(retries, || f(&item));
        PointOutcome {
            attempts,
            result: outcome.map_err(|payload| PointError {
                index,
                label: label(&item),
                payload,
                elapsed: start.elapsed(),
                attempts,
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_mode(Parallelism::Workers(4), items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_equals_parallel() {
        let f = |x: u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        let a = map_mode(Parallelism::Serial, (0..257).collect(), f);
        let b = map_mode(Parallelism::Workers(7), (0..257).collect(), f);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(empty, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn more_workers_than_items() {
        let out = map_mode(Parallelism::Workers(16), vec![1, 2, 3], |x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

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

    #[test]
    fn try_map_isolates_panics() {
        for mode in [Parallelism::Serial, Parallelism::Workers(4)] {
            let out = try_map_mode(
                mode,
                0,
                (0..10u64).collect(),
                |x| format!("item {x}"),
                |&x| {
                    if x == 3 {
                        panic!("injected panic at {x}");
                    }
                    Ok(x * 2)
                },
            );
            assert_eq!(out.len(), 10);
            for (i, o) in out.iter().enumerate() {
                if i == 3 {
                    let e = o.result.as_ref().unwrap_err();
                    assert_eq!(e.index, 3);
                    assert_eq!(e.label, "item 3");
                    assert!(e.payload.contains("injected panic at 3"), "{}", e.payload);
                    assert_eq!(e.attempts, 1);
                } else {
                    assert_eq!(*o.result.as_ref().unwrap(), (i as u64) * 2);
                }
            }
        }
    }

    #[test]
    fn try_map_retries_bounded() {
        use std::sync::atomic::AtomicU32;
        // A deterministic failure fails on every attempt; the budget
        // bounds the attempts.
        let calls = AtomicU32::new(0);
        let out = try_map_mode(
            Parallelism::Serial,
            2,
            vec![0u32],
            |_| "p".to_string(),
            |_| -> Result<u32, String> {
                calls.fetch_add(1, Ordering::Relaxed);
                Err("always fails".to_string())
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 3, "1 try + 2 retries");
        let e = out[0].result.as_ref().unwrap_err();
        assert_eq!(e.attempts, 3);
        assert_eq!(e.payload, "always fails");
    }

    #[test]
    fn try_map_counts_successful_retry() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let out = try_map_mode(
            Parallelism::Serial,
            3,
            vec![0u32],
            |_| "p".to_string(),
            |_| {
                // Transient: fails the first two attempts, then succeeds.
                if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err("transient".to_string())
                } else {
                    Ok(7u32)
                }
            },
        );
        assert_eq!(*out[0].result.as_ref().unwrap(), 7);
        assert_eq!(out[0].attempts, 3);
        assert!(out[0].retried_ok());
    }
}
