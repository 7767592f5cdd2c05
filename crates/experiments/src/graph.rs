//! The ref-gated unit graph: Eq. 1's recipe as one pure state machine.
//!
//! Every experiment is the same dependency shape — single-thread
//! **references** (`Ts`) gate the multi-threaded **points** measured
//! against them. [`UnitGraph`] is that gate and nothing else: it spawns
//! no thread, does no I/O and reads no clock. Its two drivers — the
//! scoped single-job [`crate::par::run_units`] and the study service's
//! persistent multi-job scheduler — own everything else. Grids are a few
//! hundred units at most, so every question is answered by a scan of the
//! per-unit states: there is no second structure to keep in step.
//!
//! Units pop in one deterministic order: queued references by index,
//! then ready points by ascending grid index. A point is ready when
//! **all** its references have landed; if any failed it is cascaded
//! instead — once every reference of it has settled, with the
//! lowest-index failure's reason and attempts — so the outcome does not
//! depend on completion order.
//!
//! # Examples
//!
//! ```
//! use experiments::graph::{Unit, UnitGraph};
//!
//! // Two references, two points each.
//! let mut g = UnitGraph::grid(2, 2);
//! for i in 0..4 {
//!     g.add_point(i);
//! }
//! assert_eq!(g.pop(), Some(Unit::Ref(0)));
//! assert_eq!(g.pop(), Some(Unit::Ref(1)));
//! assert_eq!(g.pop(), None, "every point is parked behind a reference");
//! assert!(g.ref_ok(1, (100, 50)).is_empty(), "nothing cascades");
//! assert_eq!(g.pop(), Some(Unit::Point(2)));
//! assert_eq!(g.inputs(Unit::Point(2)), &[(100, 50)]);
//! let cascaded = g.ref_failed(0, "boom", 3);
//! assert_eq!(cascaded.len(), 2);
//! assert_eq!(cascaded[0].reason, "single-thread reference failed: boom");
//! ```

use std::ops::Range;

/// What a single-thread reference resolves to: `(Ts cycles,
/// instructions)`.
pub type RefValue = (u64, u64);

/// One schedulable unit of a [`UnitGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// The reference with this index.
    Ref(usize),
    /// The point with this grid index; its references have all landed
    /// (see [`UnitGraph::inputs`]).
    Point(usize),
}

/// A point resolved by a failed reference instead of being run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cascade {
    /// Grid index of the point.
    pub point: usize,
    /// [`reference_failed`] of the reference's own reason.
    pub reason: String,
    /// The attempts the reference spent.
    pub attempts: u32,
}

/// The reason every point of a reference fails with when that reference
/// failed with `reason`.
#[must_use]
pub fn reference_failed(reason: &str) -> String {
    format!("single-thread reference failed: {reason}")
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RefStatus {
    /// No point of this graph needs it.
    Idle,
    Queued,
    Running,
    /// Resolved by someone else (a coalesced subscribe): never popped
    /// here, its outcome still arrives through `ref_ok`/`ref_failed`.
    External,
    /// Landed; the value is in `values`.
    Ok,
    Failed {
        reason: String,
        attempts: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PointStatus {
    /// Not part of this run (never added, or dropped by a cancel).
    Absent,
    /// Waiting for its references.
    Parked,
    Ready,
    Running,
    /// Done, failed or cascaded — exactly once.
    Resolved,
}

/// References and points by index, and the gate between them. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct UnitGraph {
    refs: Vec<RefStatus>,
    values: Vec<RefValue>,
    /// The references each point needs, as an index range.
    deps: Vec<Range<usize>>,
    points: Vec<PointStatus>,
    budget: usize,
}

impl UnitGraph {
    /// A graph of `n_refs` references and `n_points` points, point `i`
    /// needing the references `deps(i)` (non-empty, in range). Nothing is
    /// scheduled until [`UnitGraph::add_point`] names the points this run
    /// must resolve.
    #[must_use]
    pub fn new(n_refs: usize, n_points: usize, deps: impl Fn(usize) -> Range<usize>) -> UnitGraph {
        let deps: Vec<Range<usize>> = (0..n_points).map(deps).collect();
        assert!(
            deps.iter().all(|d| d.start < d.end && d.end <= n_refs),
            "every point needs at least one in-range reference"
        );
        UnitGraph {
            refs: vec![RefStatus::Idle; n_refs],
            values: vec![(0, 0); n_refs],
            deps,
            points: vec![PointStatus::Absent; n_points],
            budget: usize::MAX,
        }
    }

    /// A `rows` × `cols` benchmark grid: reference `r` gates the points
    /// `r * cols..(r + 1) * cols` (row-major, the sweep's order).
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> UnitGraph {
        UnitGraph::new(rows, rows * cols, |i| i / cols..i / cols + 1)
    }

    /// Reference `r`'s value is known up front (a resumed journal, a
    /// cache): it is never popped, and points added behind it are ready.
    /// Only a reference no point needs yet can be provided.
    pub fn ref_known(&mut self, r: usize, value: RefValue) {
        self.values[r] = value;
        self.provide(r, RefStatus::Ok);
    }

    /// Reference `r` will be resolved by someone else: it is never
    /// popped here, and points added behind it park until its outcome
    /// is reported.
    pub fn ref_external(&mut self, r: usize) {
        self.provide(r, RefStatus::External);
    }

    fn provide(&mut self, r: usize, status: RefStatus) {
        assert_eq!(
            self.refs[r],
            RefStatus::Idle,
            "reference {r} already in use"
        );
        self.refs[r] = status;
    }

    /// This run must resolve point `p`: it is ready if its references
    /// are already known, parked otherwise — and every reference of it
    /// that nobody provides yet is queued. A point is added once.
    pub fn add_point(&mut self, p: usize) {
        assert_eq!(self.points[p], PointStatus::Absent, "point {p} added twice");
        self.points[p] = PointStatus::Ready;
        for r in self.deps[p].clone() {
            match self.refs[r] {
                RefStatus::Ok => continue,
                RefStatus::Idle => self.refs[r] = RefStatus::Queued,
                RefStatus::Failed { .. } => panic!("point {p} added behind failed reference {r}"),
                _ => {}
            }
            self.points[p] = PointStatus::Parked;
        }
    }

    /// At most `units` more units pop from now on (a checkpointing
    /// sweep's budget); the rest stay queued.
    pub fn set_budget(&mut self, units: usize) {
        self.budget = units;
    }

    /// The lowest queued reference, else the lowest ready point.
    fn next(&self) -> Option<Unit> {
        let queued = self.refs.iter().position(|s| *s == RefStatus::Queued);
        let ready = || self.points.iter().position(|s| *s == PointStatus::Ready);
        queued.map(Unit::Ref).or_else(|| ready().map(Unit::Point))
    }

    /// The next unit to run: the lowest queued reference, else the
    /// lowest ready point; `None` when nothing is ready or the budget is
    /// spent.
    pub fn pop(&mut self) -> Option<Unit> {
        let unit = self.next().filter(|_| self.budget > 0)?;
        match unit {
            Unit::Ref(r) => self.refs[r] = RefStatus::Running,
            Unit::Point(p) => self.points[p] = PointStatus::Running,
        }
        self.budget -= 1;
        Some(unit)
    }

    /// What running `unit` takes in: the values of a point's references,
    /// in reference order (meaningful once the point has popped); nothing
    /// for a reference.
    #[must_use]
    pub fn inputs(&self, unit: Unit) -> &[RefValue] {
        match unit {
            Unit::Ref(_) => &[],
            Unit::Point(p) => &self.values[self.deps[p].clone()],
        }
    }

    /// Reference `r` landed with `value` — computed by a popped unit, or
    /// reported for an external one. Its parked points are released; the
    /// returned cascades are the points whose last reference this was
    /// while an earlier one of theirs had failed. `r` must be popped
    /// and unresolved, or external.
    #[must_use = "cascaded points must be resolved"]
    pub fn ref_ok(&mut self, r: usize, value: RefValue) -> Vec<Cascade> {
        self.values[r] = value;
        self.settle(r, RefStatus::Ok)
    }

    /// Reference `r` failed every one of its `attempts` with `reason`:
    /// its parked points are returned as cascades (a point with further
    /// references still pending waits for those first).
    #[must_use = "cascaded points must be resolved"]
    pub fn ref_failed(&mut self, r: usize, reason: &str, attempts: u32) -> Vec<Cascade> {
        let reason = reason.to_string();
        self.settle(r, RefStatus::Failed { reason, attempts })
    }

    fn settle(&mut self, r: usize, outcome: RefStatus) -> Vec<Cascade> {
        assert!(
            matches!(self.refs[r], RefStatus::Running | RefStatus::External),
            "reference {r} is neither running nor external"
        );
        self.refs[r] = outcome;
        let mut cascades = Vec::new();
        for p in 0..self.points.len() {
            if self.points[p] != PointStatus::Parked || !self.deps[p].contains(&r) {
                continue;
            }
            let mut failed = None;
            let settled = self.deps[p].clone().all(|d| match &self.refs[d] {
                RefStatus::Ok => true,
                RefStatus::Failed { reason, attempts } => {
                    failed = failed.or(Some((reason, *attempts)));
                    true
                }
                _ => false,
            });
            if !settled {
                continue;
            }
            self.points[p] = match failed {
                Some((reason, attempts)) => {
                    cascades.push(Cascade {
                        point: p,
                        reason: reference_failed(reason),
                        attempts,
                    });
                    PointStatus::Resolved
                }
                None => PointStatus::Ready,
            };
        }
        cascades
    }

    /// The popped point `p` finished (completed or failed — the graph
    /// does not care which).
    pub fn point_done(&mut self, p: usize) {
        assert_eq!(
            self.points[p],
            PointStatus::Running,
            "point {p} not running"
        );
        self.points[p] = PointStatus::Resolved;
    }

    /// A cancel: asks `keep` about every not-yet-popped point (parked or
    /// ready), then about every reference that has not started (queued or
    /// external) and is left gating no parked point, and forgets what it
    /// rejects. Running and resolved units are not asked.
    pub fn retain(&mut self, mut keep: impl FnMut(Unit) -> bool) {
        for p in 0..self.points.len() {
            let waiting = matches!(self.points[p], PointStatus::Parked | PointStatus::Ready);
            if waiting && !keep(Unit::Point(p)) {
                self.points[p] = PointStatus::Absent;
            }
        }
        for r in 0..self.refs.len() {
            let unstarted = matches!(self.refs[r], RefStatus::Queued | RefStatus::External);
            let gates =
                |p: usize| self.points[p] == PointStatus::Parked && self.deps[p].contains(&r);
            if unstarted && !(0..self.points.len()).any(gates) && !keep(Unit::Ref(r)) {
                self.refs[r] = RefStatus::Idle;
            }
        }
    }

    /// Whether [`UnitGraph::pop`] would return a unit.
    #[must_use]
    pub fn has_ready(&self) -> bool {
        self.budget > 0 && self.next().is_some()
    }

    /// Units not yet popped: queued references, ready and parked points.
    #[must_use]
    pub fn queued(&self) -> usize {
        let refs = self.refs.iter().filter(|s| **s == RefStatus::Queued);
        let points = self
            .points
            .iter()
            .filter(|s| matches!(s, PointStatus::Parked | PointStatus::Ready));
        refs.count() + points.count()
    }

    /// Units popped whose outcome has not landed.
    #[must_use]
    pub fn running(&self) -> usize {
        let refs = self.refs.iter().filter(|s| **s == RefStatus::Running);
        let points = self.points.iter().filter(|s| **s == PointStatus::Running);
        refs.count() + points.count()
    }

    /// Every added point has resolved (none queued, parked or running).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.points
            .iter()
            .all(|s| matches!(s, PointStatus::Absent | PointStatus::Resolved))
    }

    /// Reference `r`'s value, once it landed.
    #[must_use]
    pub fn ref_value(&self, r: usize) -> Option<RefValue> {
        (self.refs[r] == RefStatus::Ok).then(|| self.values[r])
    }
}
