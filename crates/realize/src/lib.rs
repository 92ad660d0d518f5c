//! Constructive realization transformations between communication models.
//!
//! The paper's positive results (Sec. 3.2) are proved by exhibiting, for an
//! activation sequence in model `A`, an activation sequence in model `B`
//! whose path-assignment trace realizes the original exactly, with
//! repetition, or as a subsequence. This crate implements those proofs as
//! executable algorithms:
//!
//! * [`transform::pad_m_to_e`] — Prop 3.4 (`wMS` inside `wES`),
//! * [`transform::split_m_to_1`] — Thm 3.5 (`wMy` inside `w1y`, with
//!   repetition, using the c-first/d-last channel ordering),
//! * [`transform::flag_r1s_to_r1o`] — Prop 3.6 reliable case (`R1S` inside
//!   `R1O` as a subsequence, via message flagging),
//! * [`transform::elide_u1s_to_u1o`] — Prop 3.6 unreliable case (`U1S`
//!   inside `U1O` with repetition, dropping all but the used message),
//! * [`transform::coalesce_u1o_to_r1s`] — Thm 3.7 (`U1O` inside `R1S`
//!   exactly, coalescing dropped backlogs),
//! * identity embeddings for Prop 3.3 (weaker models are syntactic subsets).
//!
//! [`plan::apply_chain`] chains these along a path of foundational edges,
//! and [`verify`] checks end to end that the produced sequence is legal in
//! the target model and that the claimed trace relation (Definition 3.2)
//! actually holds.
//!
//! [`registry`] names every transform, gadget generator, and check under a
//! stable, versioned string identity, and [`plan`] builds two façades on
//! top: a realization-lattice planner ([`plan::plan_route`] /
//! [`plan::verify_route`]) and the composable `|`-separated pipeline
//! language behind `routelab pipeline`.
//!
//! # Example
//!
//! ```
//! use routelab_engine::paper_runs;
//! use routelab_realize::verify::verify_edge;
//! use routelab_realize::TransformKind;
//!
//! // Run Example A.2's REO script, then realize it inside RMO (Prop 3.3).
//! let (run, _) = paper_runs::a2_reo();
//! let report = verify_edge(
//!     &run.instance,
//!     &run.seq,
//!     TransformKind::Identity,
//!     "REO".parse().unwrap(),
//!     "RMO".parse().unwrap(),
//! ).unwrap();
//! assert!(report.holds());
//! ```

pub mod plan;
pub mod registry;
pub mod transform;
pub mod verify;

pub use plan::{
    apply_chain, plan_route, run_pipeline, Edge, NoRoute, PipelineError, Route, TransformKind,
};
pub use registry::{Registry, RegistryError};
pub use transform::{Tables, TransformError, TransformOutput};
pub use verify::{verify_edge, Report};
