//! Experiment harness: Monte-Carlo simulation, the oscillation survey, and
//! the binaries that regenerate every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index).
//!
//! * [`table`] — plain-text table rendering for experiment reports,
//! * [`survey`] — which models admit fair oscillations on which instances
//!   (exhaustive model checking combined with realization transfer, exactly
//!   the paper's Sec. 3.5 reasoning),
//! * [`montecarlo`] — randomized-schedule convergence statistics across
//!   models and instance families (the E11 extension experiment),
//! * [`pool`] — the deterministic run-level worker pool executing those
//!   statistics (bit-identical results for every worker count),
//! * [`pipeline`] — byte-stable rendering for the registry-backed CLI
//!   surface (`routelab transforms list` / `pipeline` / `plan`),
//! * [`report`] — machine-readable JSON reports (`results/*.json`) layered
//!   over the text tables,
//! * [`cli`] — the shared `--threads`/`--quiet`/`--obs`/`--trace` flag
//!   plumbing of the experiment binaries, wiring the `routelab-obs`
//!   telemetry layer,
//! * [`flight`] — flight-recorder trace analysis: NDJSON trace parsing,
//!   oscillation-cycle reconstruction (`routelab trace explain`), and Chrome
//!   `trace_event` export (`routelab trace export-chrome`).
//!
//! # Example
//!
//! ```
//! use routelab_sim::montecarlo::{run_cell, CellConfig};
//! use routelab_spp::gadgets;
//!
//! let cell = run_cell(&gadgets::good_gadget(), "RMS".parse().unwrap(), &CellConfig {
//!     runs: 10,
//!     max_steps: 5_000,
//!     seed: 1,
//!     drop_prob: 0.2,
//! });
//! assert_eq!(cell.converged, 10); // no dispute wheel: always converges
//! ```

pub mod beyond;
pub mod cli;
pub mod examples;
pub mod flight;
pub mod montecarlo;
pub mod pipeline;
pub mod pool;
pub mod report;
pub mod survey;
pub mod table;

pub use montecarlo::{run_cell, CellConfig, CellStats};
pub use pool::PoolConfig;
pub use report::{Json, RunReport};
pub use survey::{survey_instance, SurveyEntry, SurveyOutcome};
pub use table::Table;
