//! A seeded property loop over [`UnitGraph`], the pure ref-gated state
//! machine under every sweep driver (in-repo deterministic-RNG style,
//! like `workloads/tests/trace_fuzz.rs`).
//!
//! Every case draws a graph shape (references, points, which references
//! each point needs), a subset of points to resolve, references known up
//! front or owned by someone else, a plan of which references and points
//! fail, and a schedule: pops, completions in random order, external
//! outcomes arriving whenever, and optionally a budget or a mid-run
//! cancel. A naive model is stepped beside the graph and must agree with
//! it on every pop (references by index, then ready points by index;
//! never a point before its references landed), on every cascade (the
//! lowest failed reference's reason and attempts) and on every gauge;
//! at the end every point resolved exactly once. A budgeted run
//! continued the way a resumed journal continues it must end where the
//! unbudgeted run ends.
//!
//! A failing case prints its seed; replay it with `run_case(seed)`.

// Units are indices into several parallel per-unit tables here.
#![allow(clippy::needless_range_loop)]

use std::ops::Range;

use experiments::graph::{reference_failed, Cascade, Unit, UnitGraph};
use workloads::rng::SmallRng;

const CASES: u64 = 3_000;

/// How one point ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    /// Popped and run: `true` = completed, `false` = failed on its own.
    Ran(bool),
    /// Cascaded from a failed reference: reason and attempts.
    Cascaded(String, u32),
}

/// Everything random about a case except its schedule.
#[derive(Debug, Clone)]
struct Plan {
    n_refs: usize,
    deps: Vec<Range<usize>>,
    wanted: Vec<bool>,
    known: Vec<bool>,
    external: Vec<bool>,
    /// `Some((reason, attempts))` when the reference fails.
    ref_fails: Vec<Option<(String, u32)>>,
    point_fails: Vec<bool>,
}

impl Plan {
    fn draw(rng: &mut SmallRng) -> Plan {
        let n_refs = rng.gen_range(1usize..6);
        let deps: Vec<Range<usize>> = if rng.gen_bool(0.5) {
            // A benchmark grid: one reference per row.
            let cols = rng.gen_range(1usize..5);
            (0..n_refs * cols).map(|i| i / cols..i / cols + 1).collect()
        } else {
            (0..rng.gen_range(0usize..12))
                .map(|_| {
                    let start = rng.gen_range(0..n_refs);
                    start..start + rng.gen_range(1..(n_refs - start).min(3) + 1)
                })
                .collect()
        };
        let known: Vec<bool> = (0..n_refs).map(|_| rng.gen_bool(0.2)).collect();
        let external: Vec<bool> = known.iter().map(|&k| !k && rng.gen_bool(0.2)).collect();
        Plan {
            n_refs,
            wanted: deps.iter().map(|_| rng.gen_bool(0.75)).collect(),
            ref_fails: known
                .iter()
                .enumerate()
                .map(|(r, &k)| {
                    (!k && rng.gen_bool(0.25))
                        .then(|| (format!("r{r} broke"), rng.gen_range(1u32..5)))
                })
                .collect(),
            point_fails: deps.iter().map(|_| rng.gen_bool(0.2)).collect(),
            deps,
            known,
            external,
        }
    }

    /// The graph of this plan with `extra_known` references known on top
    /// of the plan's own and every wanted point but `skip` added.
    fn graph(&self, extra_known: &[bool], skip: &[bool]) -> (UnitGraph, Model) {
        let mut graph = UnitGraph::new(self.n_refs, self.deps.len(), |i| self.deps[i].clone());
        let mut model = Model {
            refs: vec![R::Idle; self.n_refs],
            points: vec![P::Absent; self.deps.len()],
            budget: usize::MAX,
        };
        for r in 0..self.n_refs {
            if self.known[r] || extra_known[r] {
                graph.ref_known(r, value(r));
                model.refs[r] = R::Ok;
            } else if self.external[r] {
                graph.ref_external(r);
                model.refs[r] = R::External;
            }
        }
        for p in 0..self.deps.len() {
            if self.wanted[p] && !skip[p] {
                graph.add_point(p);
                model.points[p] = P::Waiting;
                for r in self.deps[p].clone() {
                    if model.refs[r] == R::Idle {
                        model.refs[r] = R::Queued;
                    }
                }
            }
        }
        (graph, model)
    }
}

fn value(r: usize) -> (u64, u64) {
    (1000 + r as u64, 7 * r as u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum R {
    Idle,
    Queued,
    Running,
    External,
    Ok,
    Failed,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum P {
    Absent,
    Waiting,
    Running,
    Resolved(Outcome),
}

/// The naive model: plain per-unit states, every question answered by a
/// scan.
#[derive(Debug)]
struct Model {
    refs: Vec<R>,
    points: Vec<P>,
    budget: usize,
}

impl Model {
    fn ready(&self, plan: &Plan, p: usize) -> bool {
        self.points[p] == P::Waiting && plan.deps[p].clone().all(|r| self.refs[r] == R::Ok)
    }

    fn next(&self, plan: &Plan) -> Option<Unit> {
        if self.budget == 0 {
            return None;
        }
        let queued = self.refs.iter().position(|&s| s == R::Queued);
        let ready = (0..self.points.len()).find(|&p| self.ready(plan, p));
        queued.map(Unit::Ref).or(ready.map(Unit::Point))
    }

    fn queued(&self) -> usize {
        self.refs.iter().filter(|&&s| s == R::Queued).count()
            + self.points.iter().filter(|s| **s == P::Waiting).count()
    }

    fn running(&self) -> usize {
        self.refs.iter().filter(|&&s| s == R::Running).count()
            + self.points.iter().filter(|s| **s == P::Running).count()
    }

    /// Reference `r` settled: the cascades the graph must report.
    fn settle(&mut self, plan: &Plan, r: usize) -> Vec<Cascade> {
        self.refs[r] = if plan.ref_fails[r].is_some() {
            R::Failed
        } else {
            R::Ok
        };
        let mut cascades = Vec::new();
        for p in 0..self.points.len() {
            let deps = plan.deps[p].clone();
            if self.points[p] != P::Waiting
                || !deps.contains(&r)
                || !deps
                    .clone()
                    .all(|d| matches!(self.refs[d], R::Ok | R::Failed))
            {
                continue;
            }
            if let Some(d) = deps.clone().find(|&d| self.refs[d] == R::Failed) {
                let (reason, attempts) = plan.ref_fails[d].clone().expect("planned to fail");
                let reason = reference_failed(&reason);
                self.points[p] = P::Resolved(Outcome::Cascaded(reason.clone(), attempts));
                cascades.push(Cascade {
                    point: p,
                    reason,
                    attempts,
                });
            }
        }
        cascades
    }
}

/// Drives `graph` and `model` side by side under a random schedule until
/// neither can move; with `cancel` set, one random cancel happens on the
/// way. Returns how every point ended.
fn drive(
    plan: &Plan,
    graph: &mut UnitGraph,
    model: &mut Model,
    rng: &mut SmallRng,
    mut cancel: bool,
) -> Vec<P> {
    let workers = rng.gen_range(1usize..5);
    let mut in_flight: Vec<Unit> = Vec::new();
    loop {
        assert_eq!(graph.queued(), model.queued(), "queued");
        assert_eq!(graph.running(), model.running(), "running");
        assert_eq!(graph.has_ready(), model.next(plan).is_some(), "has_ready");
        let pending_external: Vec<usize> = (0..plan.n_refs)
            .filter(|&r| model.refs[r] == R::External)
            .collect();
        let can_pop = in_flight.len() < workers && model.next(plan).is_some();
        if cancel && rng.gen_bool(0.15) {
            cancel = false;
            // Someone else may still want an orphaned reference: keep
            // some.
            let keep: Vec<bool> = plan.deps.iter().map(|_| rng.gen_bool(0.5)).collect();
            let keep_ref: Vec<bool> = (0..plan.n_refs).map(|_| rng.gen_bool(0.3)).collect();
            let mut asked = Vec::new();
            graph.retain(|unit| match unit {
                Unit::Point(p) => keep[p],
                Unit::Ref(r) => {
                    asked.push(r);
                    keep_ref[r]
                }
            });
            for p in 0..model.points.len() {
                if model.points[p] == P::Waiting && !keep[p] {
                    model.points[p] = P::Absent;
                }
            }
            let orphans: Vec<usize> = (0..plan.n_refs)
                .filter(|&r| {
                    matches!(model.refs[r], R::Queued | R::External)
                        && !(0..model.points.len()).any(|p| {
                            model.points[p] == P::Waiting
                                && !model.ready(plan, p)
                                && plan.deps[p].contains(&r)
                        })
                })
                .collect();
            assert_eq!(asked, orphans, "orphaned references");
            for r in orphans {
                if !keep_ref[r] {
                    model.refs[r] = R::Idle;
                }
            }
            continue;
        }
        // One step: pop, finish an in-flight unit, or deliver an
        // external reference — whichever the schedule draws.
        let choices = usize::from(can_pop) + in_flight.len() + pending_external.len();
        if choices == 0 {
            assert_eq!(graph.pop(), None, "nothing left to pop");
            break;
        }
        let mut pick = rng.gen_range(0..choices);
        if can_pop {
            if pick == 0 {
                let unit = graph.pop().expect("the model has a unit ready");
                assert_eq!(Some(unit), model.next(plan), "pop order");
                model.budget -= 1;
                match unit {
                    Unit::Ref(r) => model.refs[r] = R::Running,
                    Unit::Point(p) => {
                        let inputs: Vec<_> = plan.deps[p].clone().map(value).collect();
                        assert_eq!(graph.inputs(unit), inputs, "a point sees its references");
                        model.points[p] = P::Running;
                    }
                }
                in_flight.push(unit);
                continue;
            }
            pick -= 1;
        }
        let unit = if pick < in_flight.len() {
            in_flight.swap_remove(pick)
        } else {
            Unit::Ref(pending_external[pick - in_flight.len()])
        };
        match unit {
            Unit::Ref(r) => {
                let cascades = match &plan.ref_fails[r] {
                    None => graph.ref_ok(r, value(r)),
                    Some((reason, attempts)) => graph.ref_failed(r, reason, *attempts),
                };
                assert_eq!(cascades, model.settle(plan, r), "cascades of reference {r}");
            }
            Unit::Point(p) => {
                graph.point_done(p);
                model.points[p] = P::Resolved(Outcome::Ran(!plan.point_fails[p]));
            }
        }
    }
    assert_eq!(
        graph.is_complete(),
        model
            .points
            .iter()
            .all(|s| matches!(s, P::Absent | P::Resolved(_))),
        "is_complete"
    );
    for r in 0..plan.n_refs {
        assert_eq!(
            graph.ref_value(r),
            (model.refs[r] == R::Ok).then(|| value(r)),
            "value of reference {r}"
        );
    }
    model.points.clone()
}

fn run_case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plan = Plan::draw(&mut rng);
    let none = vec![false; plan.n_refs.max(plan.deps.len())];

    // The unbudgeted run: every wanted point resolves exactly once (the
    // model holds one slot per point, and the graph panics on a second
    // resolution).
    let (mut graph, mut model) = plan.graph(&none, &none);
    let full = drive(&plan, &mut graph, &mut model, &mut rng, false);
    assert!(graph.is_complete(), "an unbudgeted run completes");
    for (p, state) in full.iter().enumerate() {
        assert_eq!(
            matches!(state, P::Resolved(_)),
            plan.wanted[p],
            "point {p} resolved iff wanted"
        );
    }

    // A budgeted run and its continuation: what landed is known up
    // front (a journal's entries), the rest re-runs.
    let units = model.refs.iter().filter(|&&s| s != R::Idle).count() + plan.deps.len();
    let (mut graph, mut model) = plan.graph(&none, &none);
    let budget = rng.gen_range(0..units + 1);
    graph.set_budget(budget);
    model.budget = budget;
    let first = drive(&plan, &mut graph, &mut model, &mut rng, false);
    let landed: Vec<bool> = (0..plan.n_refs).map(|r| model.refs[r] == R::Ok).collect();
    let journaled: Vec<bool> = first
        .iter()
        .map(|s| *s == P::Resolved(Outcome::Ran(true)))
        .collect();
    let (mut graph, mut model) = plan.graph(&landed, &journaled);
    let rest = drive(&plan, &mut graph, &mut model, &mut rng, false);
    for p in 0..plan.deps.len() {
        let merged = if journaled[p] { &first[p] } else { &rest[p] };
        assert_eq!(
            merged, &full[p],
            "point {p} after budget {budget} + continuation"
        );
    }

    // A run with a cancel on the way: the survivors still resolve
    // exactly once, the dropped points never do.
    let (mut graph, mut model) = plan.graph(&none, &none);
    drive(&plan, &mut graph, &mut model, &mut rng, true);
    assert!(graph.is_complete(), "a cancelled run still drains");
}

#[test]
fn graph_agrees_with_the_naive_model_on_every_schedule() {
    let started = std::time::Instant::now();
    for seed in 0..CASES {
        if let Err(panic) = std::panic::catch_unwind(|| run_case(seed)) {
            eprintln!("graph property failed: replay with run_case({seed})");
            std::panic::resume_unwind(panic);
        }
    }
    eprintln!("{CASES} graph cases in {:?}", started.elapsed());
}
