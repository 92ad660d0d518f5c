//! Execution engine for the distributed autonomous routing algorithm.
//!
//! Implements Definition 2.3 of the paper over any [`routelab_spp::SppInstance`]:
//! FIFO channels carrying route announcements, per-channel known routes ρ,
//! path assignments π, and step execution driven by activation steps from
//! [`routelab_core`].
//!
//! * [`channel`] — FIFO channels with the `(f, g)` processing rule,
//! * [`index`] — dense channel indexing for a graph,
//! * [`state`] — the complete network state (π, ρ, last announcements,
//!   channel contents), hashable for cycle detection,
//! * [`exec`] — one activation step, exactly as in Definition 2.3,
//! * [`interned`] — the allocation-free hot path: the same step semantics
//!   over dense [`routelab_spp::RouteId`]s, dense channel ids
//!   ([`IdStep`]) and precomputed extension tables,
//! * [`runner`] — stateful driver over the interned engine, recording
//!   path-assignment traces and decoding routes at the output boundary,
//! * [`trace`] — traces and the relations of Definition 3.2 (exact /
//!   repetition / subsequence),
//! * [`schedule`] — scripted, round-robin and random fair schedulers,
//! * [`fairness`] — finite-window fairness checking (Definition 2.4),
//! * [`outcome`] — convergence / oscillation detection for concrete runs,
//! * [`paper_runs`] — the scripted executions printed in Examples A.1–A.6.
//!
//! # Example
//!
//! ```
//! use routelab_engine::{runner::Runner, schedule::RoundRobin};
//! use routelab_engine::outcome::{drive, RunOutcome};
//! use routelab_spp::gadgets;
//!
//! let inst = gadgets::good_gadget();
//! let mut runner = Runner::new(&inst);
//! let mut sched = RoundRobin::new(&inst, "REA".parse().unwrap());
//! match drive(&mut runner, &mut sched, 1_000) {
//!     RunOutcome::Converged { steps, .. } => assert!(steps < 100),
//!     other => panic!("GOOD-GADGET must converge, got {other:?}"),
//! }
//! ```

pub mod channel;
pub mod exec;
pub mod fairness;
pub mod index;
pub mod interned;
pub mod outcome;
pub mod paper_runs;
pub mod runner;
pub mod schedule;
pub mod state;
pub mod trace;

pub use exec::StepEffect;
pub use index::ChannelIndex;
pub use interned::{IdStep, InternedEffect, InternedState};
pub use runner::{QueueView, Runner, StateView};
pub use schedule::SchedState;
pub use state::NetworkState;
pub use trace::{PathTrace, TraceRelation};
