//! # experiments — the paper's evaluation, regenerated
//!
//! One module per figure/table of *"Speedup Stacks: Identifying Scaling
//! Bottlenecks in Multi-Threaded Applications"* (ISPASS 2012), plus the
//! shared [`runner`] and the beyond-the-paper many-core [`scaling`]
//! study (speedup stacks from 1 to 128 cores). Every experiment is a
//! [`study::Study`]: enumerable through [`registry`], parameterized by
//! typed [`study::StudyParams`] and returning a structured
//! [`speedup_stacks::report::Report`] that renders as text, JSON or CSV.
//! `find_study(name).run(params)` is the one way to run a study. The
//! `repro` binary drives them uniformly: `repro --list`,
//! `cargo run -p service --bin repro -- fig4 --format json`, or
//! `repro scaling` for the many-core study. Inside each module, one
//! crate-private function builds the study's report straight from its
//! unit outcomes.
//!
//! Every experiment reduces to the [`runner`] recipe: run a workload
//! multi-threaded (that run drives the accounting and yields the
//! *estimated* speedup), run it single-threaded for Eq. 1's `Ts`, and
//! attach the *actual* speedup for validation. The (benchmark ×
//! thread-count) figures — fig1–fig6 and fig8 — are
//! [`decompose::GridStudy`]s, and each runs its own local sweep: the
//! independent points fan out through [`par::run_units`] as one
//! ref-gated [`graph::UnitGraph`], each unit in [`par::fault_domain`],
//! and fold through [`decompose::GridFold`] — the same graph, unit bodies
//! and fold the study service and the federation use. fig7, fig9 and the
//! many-core study sweep machine axes a grid cannot key through the same
//! executor and fold; `regions` runs its one simulation in
//! [`par::fault_domain`].
//!
//! ## Example
//!
//! ```
//! use experiments::{run_profile, scaled_profile, RunOptions};
//! use workloads::{find, Suite};
//!
//! // One validated point of the Figure 4 grid, scaled down for speed.
//! let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.05);
//! let out = run_profile(&p, &RunOptions::symmetric(2), None).unwrap();
//! assert_eq!(out.threads, 2);
//! assert!(out.actual > 1.0 && out.estimated > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod decompose;
pub mod fig1;
pub mod fig23;
pub mod fig45;
pub mod fig6;
pub mod fig7;
pub mod fig89;
pub mod graph;
pub mod hwcost;
pub mod input;
pub mod journal;
pub mod par;
pub mod regions_demo;
pub mod runner;
pub mod scaling;
pub mod study;

pub use cmpsim::MachineConfig;
pub use journal::JournalSpec;
pub use memsim::MemConfig;
pub use par::{fault_domain, Parallelism};
pub use runner::{
    run_profile, run_profile_streams, scaled_profile, single_thread_reference,
    single_thread_reference_streams, FaultPolicy, PointSummary, RunOptions, RunOutcome,
};
pub use study::{find_study, registry, Study, StudyParams};
pub use workloads::trace::TraceSpec;
