//! Bounded exhaustive model checking for routing executions.
//!
//! The paper's negative results assert that certain networks *cannot*
//! oscillate in certain models (Examples A.1, A.2) or that certain traces
//! cannot be realized (Examples A.3–A.5). This crate decides such claims
//! mechanically, within explicit bounds:
//!
//! * [`effects`] — canonical enumeration of all distinct step effects a
//!   model admits in a state (the `(f, g)` space collapses to "how many
//!   messages deleted, which one kept"),
//! * [`graph`] — reachable-state-graph construction with channel caps,
//! * [`oscillation`] — Tarjan SCC decomposition and the fair-oscillation
//!   condition of Definition 2.4 expressed on SCCs, yielding
//!   [`oscillation::Verdict`]s,
//! * [`trace_search`] — exhaustive search for an activation sequence of a
//!   model realizing a given path-assignment trace exactly, with
//!   repetition, or as a subsequence,
//! * [`witness`] — extraction of replayable oscillation lassos (prefix +
//!   π-changing cycle) from a fair SCC.
//!
//! Each operation has one entry point. Those that explore (build a state
//! graph or search) return `Result<_, ExploreError>`: a failure (a route
//! table past the packed id width, a worker panic) is an [`ExploreError`]
//! naming its gadget × model cell, never a panic. [`oscillation::analyze`]
//! takes an [`effects::Spec`], so uniform models and the heterogeneous
//! (mixed) models of [`routelab_core::hetero`] — the paper's Sec. 5 open
//! question — go through the same call.
//!
//! # Example: DISAGREE oscillates in R1O but never in RMA (Example A.1)
//!
//! ```
//! use routelab_explore::effects::Spec;
//! use routelab_explore::oscillation::{analyze, Verdict};
//! use routelab_explore::graph::ExploreConfig;
//! use routelab_spp::gadgets;
//!
//! let inst = gadgets::disagree();
//! let cfg = ExploreConfig::default();
//! assert!(matches!(
//!     analyze(&inst, Spec::Uniform("R1O".parse()?), &cfg)?,
//!     Verdict::CanOscillate { .. }
//! ));
//! assert!(matches!(
//!     analyze(&inst, Spec::Uniform("RMA".parse()?), &cfg)?,
//!     Verdict::AlwaysConverges { .. }
//! ));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod arena;
#[cfg(test)]
mod differential;
pub mod effects;
pub mod error;
pub mod exec_packed;
pub mod frontier;
pub mod graph;
pub mod oscillation;
pub mod pack;
pub mod reduce;
pub mod trace_search;
pub mod witness;

pub use effects::Spec;
pub use error::{ExploreError, ExploreErrorKind};
pub use frontier::FrontierStats;
pub use graph::{ExploreConfig, StateGraph};
pub use oscillation::{analyze, Verdict};
pub use pack::StateCodec;
pub use reduce::ReductionStats;
pub use trace_search::{search, SearchGoal, SearchResult};
pub use witness::{oscillation_witness, OscillationWitness};
