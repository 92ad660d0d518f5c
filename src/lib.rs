//! # routelab
//!
//! A library for studying how **communication models** affect the
//! convergence of distributed autonomous routing algorithms (BGP-style
//! path-vector protocols), reproducing Jaggard, Ramachandran & Wright,
//! *The Impact of Communication Models on Routing-Algorithm Convergence*
//! (DIMACS TR 2008-06 / ICDCS 2009).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`spp`] — the Stable Paths Problem substrate (instances, gadgets,
//!   generators, stable-assignment solver, dispute wheels),
//! * [`core`] — the taxonomy of 24 communication models, activation steps,
//!   realization strengths, the Sec. 3.4 closure, and the published
//!   Figure 3/4 tables,
//! * [`engine`] — the Definition 2.3 execution engine (channels, state,
//!   schedulers, traces, the Appendix A scripted runs),
//! * [`realize`] — the constructive realization transformations of the
//!   positive theorems, with end-to-end verification,
//! * [`explore`] — bounded exhaustive model checking (fair-oscillation
//!   analysis, trace-realization search),
//! * [`sim`] — the experiment harness (oscillation survey, Monte-Carlo
//!   statistics, report tables),
//! * [`obs`] — zero-dependency observability (spans, counters, log-scale
//!   histograms, NDJSON telemetry, and offline summarization).
//!
//! # Quickstart
//!
//! ```
//! use routelab::spp::gadgets;
//! use routelab::explore::{analyze, ExploreConfig, Spec, Verdict};
//!
//! // DISAGREE (Fig. 5) oscillates under event-driven message passing…
//! let disagree = gadgets::disagree();
//! let cfg = ExploreConfig::default();
//! assert!(matches!(
//!     analyze(&disagree, Spec::Uniform("R1O".parse()?), &cfg)?,
//!     Verdict::CanOscillate { .. }
//! ));
//! // …but always converges when nodes poll their neighbors' current state.
//! assert!(matches!(
//!     analyze(&disagree, Spec::Uniform("REA".parse()?), &cfg)?,
//!     Verdict::AlwaysConverges { .. }
//! ));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use routelab_core as core;
pub use routelab_engine as engine;
pub use routelab_explore as explore;
pub use routelab_obs as obs;
pub use routelab_realize as realize;
pub use routelab_sim as sim;
pub use routelab_spp as spp;
