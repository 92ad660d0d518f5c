//! The realization-lattice planner and the composable pipeline language.
//!
//! Two façades over the [`crate::registry`]:
//!
//! * **Planner** — [`plan_route`] searches the realization lattice (24
//!   models, arcs from every registered transform) for a composite transform
//!   route between any two models, maximizing the bottleneck realization
//!   strength and then minimizing the number of stages. The result is a
//!   [`Route`] of named stages; [`verify_route`] executes it and checks the
//!   Definition 3.2 relation end to end, so planner output is *validated*,
//!   never trusted. Unreachable pairs get a typed [`NoRoute`].
//!
//! * **Pipelines** — [`parse`], [`typecheck`], and [`execute`] implement the
//!   `routelab pipeline "fig6 | split | pad | verify"` language: stages are
//!   `|`-separated registry names (a generator first, then transforms,
//!   model pins, and checks), resolved against the registry and type-checked
//!   for model compatibility *at plan time* with typed errors naming the
//!   offending stage. The initial communication model is inferred as the
//!   first model (in [`CommModel::all`] order) under which every stage
//!   type-checks, or pinned explicitly by naming a model as the second
//!   stage.
//!
//! Both run on the foundational edges (the positive half of Sec. 3.4): each
//! positive fact of [`foundational_facts`] paired with the construction that
//! proves it ([`foundational_edges`]), applied one at a time by
//! [`apply_edge`] and along a path by [`apply_chain`].

use std::borrow::Cow;
use std::fmt;

use routelab_core::dims::Reliability;
use routelab_core::edges::foundational_facts;
use routelab_core::lattice::Strength;
use routelab_core::model::CommModel;
use routelab_core::step::{ActivationSeq, ActivationStep};
use routelab_engine::schedule::RoundRobin;
use routelab_spp::SppInstance;

use crate::registry::{Registry, RegistryError, Resolved};
use crate::transform::{self, Tables, TransformError, TransformOutput};
use crate::verify::{report_for, Report};

/// A deterministic fair prefix: `steps` activations of `model`'s round-robin
/// schedule. The standard source run for planner validation and pipelines.
/// Round robin ignores the network state, so nothing is executed.
pub fn fair_prefix(inst: &SppInstance, model: CommModel, steps: usize) -> ActivationSeq {
    let mut sched = RoundRobin::new(inst, model);
    let mut seq = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut step = ActivationStep::simultaneous(Vec::new());
        sched.next_into(&mut step);
        seq.push(step);
    }
    seq
}

// ---------------------------------------------------------------------------
// Foundational edges
// ---------------------------------------------------------------------------

/// Which constructive algorithm realizes a foundational edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// Prop 3.3: the sequence is already legal in the stronger model.
    Identity,
    /// Prop 3.4: pad `wMS` updates with `f = 0` reads to scope `E`.
    Pad,
    /// Thm 3.5: split `wMy` updates into ordered single-channel updates.
    Split,
    /// Prop 3.6 (reliable): the R1S→R1O flagging construction.
    Flag,
    /// Prop 3.6 (unreliable): drop all but the used message.
    Elide,
    /// Thm 3.7: coalesce U1O drops into R1S batch reads.
    Coalesce,
}

impl TransformKind {
    /// Every constructive algorithm, in paper order.
    pub const ALL: [TransformKind; 6] = [
        TransformKind::Identity,
        TransformKind::Pad,
        TransformKind::Split,
        TransformKind::Flag,
        TransformKind::Elide,
        TransformKind::Coalesce,
    ];
}

/// A foundational positive edge with its transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The realized (source) model.
    pub realized: CommModel,
    /// The realizing (target) model.
    pub realizer: CommModel,
    /// The strength the construction guarantees.
    pub strength: Strength,
    /// The algorithm.
    pub kind: TransformKind,
}

/// All foundational edges: each positive fact of [`foundational_facts`],
/// in order, with the construction its source proves it by.
pub fn foundational_edges() -> Vec<Edge> {
    let kind = |source: &str, realized: CommModel| match source {
        "Prop 3.4" => TransformKind::Pad,
        "Thm 3.5" => TransformKind::Split,
        "Prop 3.6" if realized.reliability == Reliability::Reliable => TransformKind::Flag,
        "Prop 3.6" => TransformKind::Elide,
        "Thm 3.7" => TransformKind::Coalesce,
        s if s.starts_with("Prop 3.3") => TransformKind::Identity,
        s => unreachable!("no construction proves {s}"),
    };
    foundational_facts()
        .positives
        .iter()
        .map(|f| Edge {
            realized: f.realized,
            realizer: f.realizer,
            strength: f.strength,
            kind: kind(f.source, f.realized),
        })
        .collect()
}

/// Applies one edge's transformation.
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithm.
pub fn apply_edge<'s>(
    edge: &Edge,
    tables: &Tables<'_>,
    seq: &'s ActivationSeq,
) -> Result<TransformOutput<'s>, TransformError> {
    match edge.kind {
        TransformKind::Identity => transform::identity(tables, seq),
        TransformKind::Pad => transform::pad_m_to_e(tables, seq),
        TransformKind::Split => transform::split_m_to_1(tables, seq, edge.realizer.messages),
        TransformKind::Flag => transform::flag_r1s_to_r1o(tables, seq),
        TransformKind::Elide => transform::elide_u1s_to_u1o(tables, seq),
        TransformKind::Coalesce => transform::coalesce_u1o_to_r1s(tables, seq),
    }
}

/// Applies a chain of edges in order, accumulating the weakest claimed
/// strength and the conjunction of losslessness. The output borrows `seq`
/// until some stage rewrites it, so identity stages copy nothing.
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithms.
pub fn apply_chain<'s>(
    tables: &Tables<'_>,
    seq: &'s ActivationSeq,
    edges: &[Edge],
) -> Result<TransformOutput<'s>, TransformError> {
    let mut cur =
        TransformOutput { seq: Cow::Borrowed(seq), claimed: Strength::Exact, lossless: true };
    for edge in edges {
        let next = apply_edge(edge, tables, &cur.seq)?;
        cur.claimed = cur.claimed.min(next.claimed);
        cur.lossless &= next.lossless;
        if let Cow::Owned(rewritten) = next.seq {
            cur.seq = Cow::Owned(rewritten);
        }
    }
    Ok(cur)
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

/// One stage of a planned composite transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStep {
    /// The registry name of the transform.
    pub name: &'static str,
    /// The concrete lattice edge it applies.
    pub edge: Edge,
}

/// A composite transform route through the realization lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source model.
    pub from: CommModel,
    /// Target model.
    pub to: CommModel,
    /// The stages, in application order (empty when `from == to`).
    pub steps: Vec<RouteStep>,
}

impl Route {
    /// The weakest strength along the route (what the composite claims).
    pub fn bottleneck(&self) -> Strength {
        self.steps.iter().map(|s| s.edge.strength).min().unwrap_or(Strength::Exact)
    }

    /// The model sequence visited, `from` first and `to` last.
    pub fn models(&self) -> Vec<CommModel> {
        let mut out = vec![self.from];
        out.extend(self.steps.iter().map(|s| s.edge.realizer));
        out
    }

    /// The edges, in application order.
    pub fn edges(&self) -> Vec<Edge> {
        self.steps.iter().map(|s| s.edge).collect()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.from)?;
        for s in &self.steps {
            write!(f, " -[{}]-> {}", s.name, s.edge.realizer)?;
        }
        Ok(())
    }
}

/// Typed planner failure: the lattice has no positive chain between the
/// models (e.g. `R1O` into the polling models, Thm 3.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoRoute {
    /// Source model.
    pub from: CommModel,
    /// Target model.
    pub to: CommModel,
}

impl fmt::Display for NoRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NoRoute: no composite of registered transforms realizes {} inside {} \
             (the realization lattice has no positive chain)",
            self.from, self.to
        )
    }
}

impl std::error::Error for NoRoute {}

/// Finds the strongest composite transform route from `from` to `to`:
/// maximum bottleneck strength first, fewest stages second, registry listing
/// order as the deterministic tie-break.
///
/// # Errors
///
/// Returns [`NoRoute`] when the lattice has no positive chain.
pub fn plan_route(reg: &Registry, from: CommModel, to: CommModel) -> Result<Route, NoRoute> {
    let mut sp = routelab_obs::span("pipeline.plan");
    sp.field("from", from.to_string());
    sp.field("to", to.to_string());
    if from == to {
        return Ok(Route { from, to, steps: Vec::new() });
    }
    let arcs = reg.transform_arcs();
    // Relax (bottleneck strength desc, stage count asc) to a fixpoint; the
    // lattice has 24 nodes, so 24 rounds suffice.
    let n = 24;
    let mut best: Vec<Option<(u8, usize)>> = vec![None; n];
    let mut pred: Vec<Option<RouteStep>> = vec![None; n];
    best[from.index()] = Some((Strength::Exact.level(), 0));
    for _ in 0..n {
        let mut changed = false;
        for (name, e) in &arcs {
            let Some((b, l)) = best[e.realized.index()] else { continue };
            let cand = (b.min(e.strength.level()), l + 1);
            let better = match best[e.realizer.index()] {
                None => true,
                Some((ob, ol)) => cand.0 > ob || (cand.0 == ob && cand.1 < ol),
            };
            if better {
                best[e.realizer.index()] = Some(cand);
                pred[e.realizer.index()] = Some(RouteStep { name, edge: *e });
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if best[to.index()].is_none() {
        return Err(NoRoute { from, to });
    }
    let mut steps = Vec::new();
    let mut cur = to;
    while cur != from {
        let s = pred[cur.index()].expect("predecessor exists on reachable node");
        steps.push(s);
        cur = s.edge.realized;
    }
    steps.reverse();
    sp.field("stages", steps.len());
    Ok(Route { from, to, steps })
}

/// Applies a planned route to `seq` (legal in `route.from`).
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithms.
pub fn apply_route<'s>(
    inst: &SppInstance,
    seq: &'s ActivationSeq,
    route: &Route,
) -> Result<TransformOutput<'s>, TransformError> {
    apply_chain(&Tables::new(inst), seq, &route.edges())
}

/// Applies a planned route and verifies it end to end: target-model
/// legality plus the Definition 3.2 trace relation. This is how planner
/// output must be consumed — validated, never trusted. The route and the
/// check share one set of [`Tables`].
///
/// # Errors
///
/// Propagates [`TransformError`] from the underlying algorithms.
pub fn verify_route(
    inst: &SppInstance,
    seq: &ActivationSeq,
    route: &Route,
) -> Result<Report, TransformError> {
    let tables = Tables::new(inst);
    let out = apply_chain(&tables, seq, &route.edges())?;
    Ok(report_for(&tables, seq, &out.seq, route.from, route.to, out.claimed, out.lossless))
}

// ---------------------------------------------------------------------------
// Pipeline language
// ---------------------------------------------------------------------------

/// A parsed (name-resolved, but not yet model-checked) pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageSpec {
    /// A generator stage: builds the instance. Must be the first stage.
    Source {
        /// Registry name.
        name: &'static str,
        /// Numeric arguments (e.g. `wheel 5`).
        args: Vec<usize>,
    },
    /// A bare model name: pins (asserts) the current model.
    Pin(CommModel),
    /// A transform stage, optionally with an explicit target model to
    /// disambiguate (`embed UMS`).
    Transform {
        /// Registry name.
        name: &'static str,
        /// Explicit target model, when given.
        target: Option<CommModel>,
    },
    /// A check stage (`verify`).
    Check {
        /// Registry name.
        name: &'static str,
    },
}

/// A stage with its position and original text (for error messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedStage {
    /// 0-based position in the pipeline.
    pub index: usize,
    /// The stage as written (trimmed).
    pub text: String,
    /// What it resolved to.
    pub spec: StageSpec,
}

/// Typed pipeline failures. Every variant names the offending stage
/// (`stage` is 0-based; [`fmt::Display`] prints it 1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The pipeline has no stages.
    Empty,
    /// A `|`-separated segment is blank.
    EmptyStage {
        /// Offending position.
        stage: usize,
    },
    /// A stage name matches no registry entry (and is not a model).
    Unknown {
        /// Offending position.
        stage: usize,
        /// The name as written.
        name: String,
    },
    /// A stage's arguments do not fit the entry.
    BadArgs {
        /// Offending position.
        stage: usize,
        /// Entry name.
        name: String,
        /// What was wrong.
        reason: String,
    },
    /// The first stage is not a generator.
    MissingSource {
        /// What the first stage was instead.
        found: String,
    },
    /// A generator appears after the first stage.
    SourceNotFirst {
        /// Offending position.
        stage: usize,
        /// Generator name.
        name: String,
    },
    /// A model pin contradicts the model the preceding stages produce.
    PinMismatch {
        /// Offending position.
        stage: usize,
        /// The pinned model.
        pinned: CommModel,
        /// The model actually produced.
        actual: CommModel,
    },
    /// No registered edge of the named transform applies to the current
    /// model (under every admissible start model).
    Incompatible {
        /// Offending position.
        stage: usize,
        /// Transform name.
        name: String,
        /// The model the preceding stages produce.
        from: CommModel,
    },
    /// The transform applies to several target models; an explicit target
    /// argument is required.
    Ambiguous {
        /// Offending position.
        stage: usize,
        /// Transform name.
        name: String,
        /// The current model.
        from: CommModel,
        /// The admissible target models.
        options: Vec<CommModel>,
    },
    /// A generator failed to build its instance.
    Generator {
        /// Offending position.
        stage: usize,
        /// The underlying registry error.
        error: RegistryError,
    },
    /// A transform algorithm failed during execution.
    Transform {
        /// Offending position.
        stage: usize,
        /// Transform name.
        name: String,
        /// The underlying error.
        error: TransformError,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Empty => write!(f, "empty pipeline: expected `source | stage | …`"),
            PipelineError::EmptyStage { stage } => write!(f, "stage {}: empty stage", stage + 1),
            PipelineError::Unknown { stage, name } => write!(
                f,
                "stage {} ({name:?}): not a registered transform, generator, check, or model \
                 (see `routelab transforms list`)",
                stage + 1
            ),
            PipelineError::BadArgs { stage, name, reason } => {
                write!(f, "stage {} ({name}): {reason}", stage + 1)
            }
            PipelineError::MissingSource { found } => write!(
                f,
                "stage 1 ({found:?}): a pipeline must start with a generator (e.g. `fig6 | …`)"
            ),
            PipelineError::SourceNotFirst { stage, name } => write!(
                f,
                "stage {} ({name}): generators may only appear as the first stage",
                stage + 1
            ),
            PipelineError::PinMismatch { stage, pinned, actual } => write!(
                f,
                "stage {} ({pinned}): the preceding stages produce {actual}, not {pinned}",
                stage + 1
            ),
            PipelineError::Incompatible { stage, name, from } => write!(
                f,
                "stage {} ({name}): no registered {name} edge applies to model {from}",
                stage + 1
            ),
            PipelineError::Ambiguous { stage, name, from, options } => {
                let opts: Vec<String> = options.iter().map(CommModel::to_string).collect();
                write!(
                    f,
                    "stage {} ({name}): ambiguous from {from} — give a target, one of: {name} {}",
                    stage + 1,
                    opts.join(&format!(" | {name} "))
                )
            }
            PipelineError::Generator { stage, error } => {
                write!(f, "stage {}: {error}", stage + 1)
            }
            PipelineError::Transform { stage, name, error } => {
                write!(f, "stage {} ({name}): {error}", stage + 1)
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Parses a `|`-separated pipeline and resolves every stage name against
/// the registry. Model compatibility is *not* checked here — see
/// [`typecheck`].
///
/// # Errors
///
/// Returns a typed [`PipelineError`] naming the offending stage.
pub fn parse(reg: &Registry, spec: &str) -> Result<Vec<ParsedStage>, PipelineError> {
    let segments: Vec<&str> = spec.split('|').collect();
    if segments.iter().all(|s| s.trim().is_empty()) {
        return Err(PipelineError::Empty);
    }
    let mut out = Vec::with_capacity(segments.len());
    for (index, segment) in segments.iter().enumerate() {
        let text = segment.trim().to_string();
        let mut tokens = text.split_whitespace();
        let Some(head) = tokens.next() else {
            return Err(PipelineError::EmptyStage { stage: index });
        };
        let rest: Vec<&str> = tokens.collect();
        // A bare model name pins the current model.
        if let Ok(model) = head.parse::<CommModel>() {
            if !rest.is_empty() {
                return Err(PipelineError::BadArgs {
                    stage: index,
                    name: head.to_string(),
                    reason: "a model pin takes no arguments".into(),
                });
            }
            out.push(ParsedStage { index, text, spec: StageSpec::Pin(model) });
            continue;
        }
        let spec = match reg.lookup(head) {
            Some(Resolved::Generator(g)) => {
                let mut args = Vec::with_capacity(rest.len());
                for a in &rest {
                    let n = a.parse::<usize>().map_err(|_| PipelineError::BadArgs {
                        stage: index,
                        name: g.meta.name.to_string(),
                        reason: format!("argument {a:?} is not a number"),
                    })?;
                    args.push(n);
                }
                StageSpec::Source { name: g.meta.name, args }
            }
            Some(Resolved::Transform(t)) => {
                let target = match rest.as_slice() {
                    [] => None,
                    [m] => Some(m.parse::<CommModel>().map_err(|e| PipelineError::BadArgs {
                        stage: index,
                        name: t.meta.name.to_string(),
                        reason: e.to_string(),
                    })?),
                    _ => {
                        return Err(PipelineError::BadArgs {
                            stage: index,
                            name: t.meta.name.to_string(),
                            reason: "a transform takes at most one target model".into(),
                        })
                    }
                };
                StageSpec::Transform { name: t.meta.name, target }
            }
            Some(Resolved::Check(c)) => {
                if !rest.is_empty() {
                    return Err(PipelineError::BadArgs {
                        stage: index,
                        name: c.meta.name.to_string(),
                        reason: "a check takes no arguments".into(),
                    });
                }
                StageSpec::Check { name: c.meta.name }
            }
            None => return Err(PipelineError::Unknown { stage: index, name: head.to_string() }),
        };
        out.push(ParsedStage { index, text, spec });
    }
    Ok(out)
}

/// One type-checked stage: the operation with its resolved models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypedOp {
    /// Build the instance.
    Source {
        /// Generator name.
        name: &'static str,
        /// Generator arguments.
        args: Vec<usize>,
    },
    /// Assert the current model (a no-op at execution time).
    Pin(CommModel),
    /// Apply one resolved lattice edge.
    Transform {
        /// Transform name.
        name: &'static str,
        /// The concrete edge chosen for the current model.
        edge: Edge,
    },
    /// Verify the accumulated realization against the source run.
    Check {
        /// Check name.
        name: &'static str,
    },
}

/// A fully type-checked pipeline, ready to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypedPipeline {
    /// The stages with resolved edges.
    pub stages: Vec<(ParsedStage, TypedOp)>,
    /// The initial communication model of the source run.
    pub start: CommModel,
    /// `true` when `start` was inferred rather than pinned.
    pub inferred: bool,
}

impl TypedPipeline {
    /// The model the final stage produces.
    pub fn end(&self) -> CommModel {
        let mut cur = self.start;
        for (_, op) in &self.stages {
            if let TypedOp::Transform { edge, .. } = op {
                cur = edge.realizer;
            }
        }
        cur
    }
}

/// Simulates the model flow of `stages` from candidate start model `start`.
fn simulate(
    reg: &Registry,
    stages: &[ParsedStage],
    start: CommModel,
) -> Result<Vec<(ParsedStage, TypedOp)>, (usize, PipelineError)> {
    let mut cur = start;
    let mut out = Vec::with_capacity(stages.len());
    for st in stages {
        let op = match &st.spec {
            StageSpec::Source { name, args } => TypedOp::Source { name, args: args.clone() },
            StageSpec::Pin(m) => {
                if *m != cur {
                    let e = PipelineError::PinMismatch { stage: st.index, pinned: *m, actual: cur };
                    return Err((st.index, e));
                }
                TypedOp::Pin(*m)
            }
            StageSpec::Transform { name, target } => {
                let Some(Resolved::Transform(t)) = reg.lookup(name) else {
                    unreachable!("parse resolved the name")
                };
                let mut edges = t.edges_from(cur);
                if let Some(want) = target {
                    edges.retain(|e| e.realizer == *want);
                }
                match edges.as_slice() {
                    [] => {
                        let e = PipelineError::Incompatible {
                            stage: st.index,
                            name: name.to_string(),
                            from: cur,
                        };
                        return Err((st.index, e));
                    }
                    [edge] => {
                        cur = edge.realizer;
                        TypedOp::Transform { name, edge: *edge }
                    }
                    many => {
                        let e = PipelineError::Ambiguous {
                            stage: st.index,
                            name: name.to_string(),
                            from: cur,
                            options: many.iter().map(|e| e.realizer).collect(),
                        };
                        return Err((st.index, e));
                    }
                }
            }
            StageSpec::Check { name } => TypedOp::Check { name },
        };
        out.push((st.clone(), op));
    }
    Ok(out)
}

/// Type-checks a parsed pipeline: the first stage must be a generator, every
/// transform must have a unique applicable edge, and model pins must hold.
/// The start model is taken from a pin in second position, or otherwise
/// inferred as the first model in [`CommModel::all`] order under which the
/// whole chain type-checks.
///
/// # Errors
///
/// Returns a typed [`PipelineError`] naming the offending stage; when no
/// start model works, the error is the one from the candidate that got
/// furthest through the chain.
pub fn typecheck(reg: &Registry, stages: &[ParsedStage]) -> Result<TypedPipeline, PipelineError> {
    let Some(first) = stages.first() else { return Err(PipelineError::Empty) };
    if !matches!(first.spec, StageSpec::Source { .. }) {
        return Err(PipelineError::MissingSource { found: first.text.clone() });
    }
    for st in &stages[1..] {
        if let StageSpec::Source { name, .. } = &st.spec {
            return Err(PipelineError::SourceNotFirst { stage: st.index, name: name.to_string() });
        }
    }
    let pinned = match stages.get(1).map(|s| &s.spec) {
        Some(StageSpec::Pin(m)) => Some(*m),
        _ => None,
    };
    let candidates = match pinned {
        Some(m) => vec![m],
        None => CommModel::all(),
    };
    let mut best_err: Option<(usize, PipelineError)> = None;
    for cand in candidates {
        match simulate(reg, stages, cand) {
            Ok(ops) => {
                return Ok(TypedPipeline { stages: ops, start: cand, inferred: pinned.is_none() })
            }
            Err((idx, e)) => {
                if best_err.as_ref().is_none_or(|(bi, _)| idx > *bi) {
                    best_err = Some((idx, e));
                }
            }
        }
    }
    Err(best_err.expect("at least one candidate was simulated").1)
}

/// What one executed stage did, for per-stage summaries.
#[derive(Debug, Clone)]
pub enum StageOutcome {
    /// The instance was built and the source run generated.
    Source {
        /// Generator name (with arguments rendered).
        label: String,
        /// Node count of the instance.
        nodes: usize,
        /// The source model.
        model: CommModel,
        /// `true` when the model was inferred.
        inferred: bool,
        /// Length of the generated round-robin run.
        steps: usize,
    },
    /// The pin held.
    Pin {
        /// The pinned model.
        model: CommModel,
    },
    /// A transform stage ran.
    Transform {
        /// Transform name.
        name: &'static str,
        /// The edge applied.
        edge: Edge,
        /// Sequence length before.
        steps_in: usize,
        /// Sequence length after.
        steps_out: usize,
        /// Accumulated claimed strength after this stage.
        claimed: Strength,
        /// Accumulated losslessness after this stage.
        lossless: bool,
    },
    /// A check stage ran.
    Check {
        /// Check name.
        name: &'static str,
        /// The verification report.
        report: Report,
    },
}

/// The result of executing a type-checked pipeline.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// Per-stage outcomes, in stage order.
    pub outcomes: Vec<StageOutcome>,
    /// `false` when any check failed to hold.
    pub ok: bool,
    /// The source run (legal in [`TypedPipeline::start`]).
    pub source: ActivationSeq,
    /// The final transformed sequence.
    pub seq: ActivationSeq,
    /// The start model.
    pub start: CommModel,
    /// The final model.
    pub end: CommModel,
}

/// Executes a type-checked pipeline: builds the instance, generates a
/// `4 · nodes` round-robin source run in the start model, applies each
/// transform edge, and runs the checks. Every stage shares one set of
/// [`Tables`] and is wrapped in a `pipeline.stage` telemetry span.
///
/// # Errors
///
/// Returns [`PipelineError::Generator`] when instance construction fails and
/// [`PipelineError::Transform`] when a transform algorithm fails.
pub fn execute(reg: &Registry, pipe: &TypedPipeline) -> Result<PipelineRun, PipelineError> {
    let stage_span = |st: &ParsedStage| {
        let mut sp = routelab_obs::span("pipeline.stage");
        sp.field("stage", st.index);
        sp.field("op", st.text.clone());
        sp
    };
    let Some(((st, TypedOp::Source { name, args }), rest)) = pipe.stages.split_first() else {
        unreachable!("typecheck put the source first")
    };
    let mut sp = stage_span(st);
    let Some(Resolved::Generator(g)) = reg.lookup(name) else {
        unreachable!("typecheck resolved the name")
    };
    let inst =
        g.build(args).map_err(|error| PipelineError::Generator { stage: st.index, error })?;
    let steps = 4 * inst.node_count();
    let source = fair_prefix(&inst, pipe.start, steps);
    let mut outcomes = Vec::with_capacity(pipe.stages.len());
    outcomes.push(StageOutcome::Source {
        label: st.text.clone(),
        nodes: inst.node_count(),
        model: pipe.start,
        inferred: pipe.inferred,
        steps,
    });
    sp.field("steps", steps);
    let tables = Tables::new(&inst);
    drop(sp);

    let mut cur = Cow::Borrowed(&source);
    let mut model = pipe.start;
    let mut claimed = Strength::Exact;
    let mut lossless = true;
    let mut ok = true;
    for (st, op) in rest {
        let mut sp = stage_span(st);
        match op {
            TypedOp::Source { .. } => unreachable!("typecheck allows only a leading source"),
            TypedOp::Pin(m) => outcomes.push(StageOutcome::Pin { model: *m }),
            TypedOp::Transform { name, edge } => {
                let steps_in = cur.len();
                let out = apply_edge(edge, &tables, &cur).map_err(|error| {
                    PipelineError::Transform { stage: st.index, name: name.to_string(), error }
                })?;
                claimed = claimed.min(out.claimed);
                lossless = lossless && out.lossless;
                if let Cow::Owned(rewritten) = out.seq {
                    cur = Cow::Owned(rewritten);
                }
                model = edge.realizer;
                outcomes.push(StageOutcome::Transform {
                    name,
                    edge: *edge,
                    steps_in,
                    steps_out: cur.len(),
                    claimed,
                    lossless,
                });
                sp.field("steps", cur.len());
            }
            TypedOp::Check { name } => {
                let report =
                    report_for(&tables, &source, &cur, pipe.start, model, claimed, lossless);
                ok &= report.holds();
                sp.field("holds", u64::from(report.holds()));
                outcomes.push(StageOutcome::Check { name, report });
            }
        }
    }
    let seq = cur.into_owned();
    Ok(PipelineRun { outcomes, ok, source, seq, start: pipe.start, end: model })
}

/// Parse + typecheck + execute in one call.
///
/// # Errors
///
/// Returns the first typed [`PipelineError`].
pub fn run_pipeline(reg: &Registry, spec: &str) -> Result<PipelineRun, PipelineError> {
    let stages = parse(reg, spec)?;
    let typed = typecheck(reg, &stages)?;
    execute(reg, &typed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn m(s: &str) -> CommModel {
        s.parse().unwrap()
    }

    #[test]
    fn plan_route_finds_named_chains() {
        let reg = Registry::global();
        let r = plan_route(reg, m("REA"), m("UMS")).unwrap();
        assert_eq!(r.models().first(), Some(&m("REA")));
        assert_eq!(r.models().last(), Some(&m("UMS")));
        assert_eq!(r.bottleneck(), Strength::Exact);
        for s in &r.steps {
            assert_eq!(s.name, "embed", "{r}");
        }
        // Display names every stage.
        let shown = r.to_string();
        assert!(shown.starts_with("REA -[embed]-> "), "{shown}");
        assert!(shown.ends_with("UMS"), "{shown}");
    }

    #[test]
    fn plan_route_is_typed_on_unreachable_pairs() {
        let reg = Registry::global();
        let err = plan_route(reg, m("R1O"), m("REA")).unwrap_err();
        assert_eq!(err, NoRoute { from: m("R1O"), to: m("REA") });
        assert!(err.to_string().contains("NoRoute"), "{err}");
        assert!(err.to_string().contains("R1O"), "{err}");
    }

    #[test]
    fn trivial_route_is_empty_and_exact() {
        let r = plan_route(Registry::global(), m("RMS"), m("RMS")).unwrap();
        assert!(r.steps.is_empty());
        assert_eq!(r.bottleneck(), Strength::Exact);
        assert_eq!(r.to_string(), "RMS");
    }

    #[test]
    fn parse_resolves_all_stage_forms() {
        let reg = Registry::global();
        let stages = parse(reg, "wheel 4 | RMS | embed UMS | verify").unwrap();
        assert_eq!(stages.len(), 4);
        assert_eq!(stages[0].spec, StageSpec::Source { name: "wheel", args: vec![4] });
        assert_eq!(stages[1].spec, StageSpec::Pin(m("RMS")));
        assert_eq!(stages[2].spec, StageSpec::Transform { name: "embed", target: Some(m("UMS")) });
        assert_eq!(stages[3].spec, StageSpec::Check { name: "verify" });
    }

    #[test]
    fn parse_rejects_unknown_names_with_stage_position() {
        let err = parse(Registry::global(), "fig6 | bogus | verify").unwrap_err();
        assert_eq!(err, PipelineError::Unknown { stage: 1, name: "bogus".into() });
        assert!(err.to_string().contains("stage 2"), "{err}");
    }

    #[test]
    fn typecheck_infers_the_first_admissible_start_model() {
        let reg = Registry::global();
        let stages = parse(reg, "fig6 | split | pad | verify").unwrap();
        let typed = typecheck(reg, &stages).unwrap();
        // RMS is the first model in all() order for which split (needs
        // scope M) then pad (needs policy S) both apply.
        assert_eq!(typed.start, m("RMS"));
        assert!(typed.inferred);
        assert_eq!(typed.end(), m("RES"));
    }

    #[test]
    fn typecheck_honors_pins() {
        let reg = Registry::global();
        let stages = parse(reg, "fig6 | UMS | split | verify").unwrap();
        let typed = typecheck(reg, &stages).unwrap();
        assert_eq!(typed.start, m("UMS"));
        assert!(!typed.inferred);
        assert_eq!(typed.end(), m("U1S"));
        let stages = parse(reg, "fig6 | split | R1S").unwrap();
        let typed = typecheck(reg, &stages).unwrap();
        assert_eq!(typed.start, m("RMS"), "mid-chain pin constrains inference");
    }

    #[test]
    fn typecheck_incompatible_stage_is_typed() {
        let reg = Registry::global();
        // coalesce: U1O -> R1S; a second coalesce cannot apply from R1S.
        let stages = parse(reg, "fig6 | coalesce | coalesce").unwrap();
        let err = typecheck(reg, &stages).unwrap_err();
        assert_eq!(
            err,
            PipelineError::Incompatible { stage: 2, name: "coalesce".into(), from: m("R1S") }
        );
        assert!(err.to_string().contains("stage 3"), "{err}");
    }

    #[test]
    fn typecheck_ambiguous_embed_lists_options() {
        let reg = Registry::global();
        let stages = parse(reg, "fig6 | R1O | embed").unwrap();
        let err = typecheck(reg, &stages).unwrap_err();
        let PipelineError::Ambiguous { stage: 2, name, from, options } = err else {
            panic!("{err:?}")
        };
        assert_eq!(name, "embed");
        assert_eq!(from, m("R1O"));
        assert_eq!(options, vec![m("U1O"), m("R1F"), m("RMO")]);
    }

    #[test]
    fn typecheck_requires_a_leading_source() {
        let reg = Registry::global();
        let stages = parse(reg, "split | pad").unwrap();
        assert!(matches!(
            typecheck(reg, &stages),
            Err(PipelineError::MissingSource { found }) if found == "split"
        ));
        let stages = parse(reg, "fig6 | split | fig7").unwrap();
        assert!(matches!(
            typecheck(reg, &stages),
            Err(PipelineError::SourceNotFirst { stage: 2, .. })
        ));
    }

    #[test]
    fn typecheck_pin_mismatch_is_typed() {
        let reg = Registry::global();
        let stages = parse(reg, "fig6 | RMS | split | RES").unwrap();
        let err = typecheck(reg, &stages).unwrap_err();
        assert_eq!(
            err,
            PipelineError::PinMismatch { stage: 3, pinned: m("RES"), actual: m("R1S") }
        );
    }

    #[test]
    fn execute_runs_the_issue_example_and_checks_hold() {
        let reg = Registry::global();
        let run = run_pipeline(reg, "fig6 | split | pad | verify").unwrap();
        assert!(run.ok);
        assert_eq!(run.start, m("RMS"));
        assert_eq!(run.end, m("RES"));
        assert_eq!(run.outcomes.len(), 4);
        let StageOutcome::Check { report, .. } = run.outcomes.last().unwrap() else {
            panic!("last stage is the check")
        };
        assert!(report.holds(), "{report}");
        assert_eq!(report.claimed, Strength::Repetition);
    }

    #[test]
    fn execute_reports_generator_failures_with_stage() {
        let reg = Registry::global();
        let stages = parse(reg, "wheel 99 | verify").unwrap();
        let typed = typecheck(reg, &stages).unwrap();
        let err = execute(reg, &typed).unwrap_err();
        assert!(matches!(err, PipelineError::Generator { stage: 0, .. }), "{err:?}");
    }

    #[test]
    fn verified_routes_hold_for_a_sample_of_pairs() {
        let reg = Registry::global();
        let inst = routelab_spp::gadgets::fig6();
        for (from, to) in [("REA", "UMS"), ("RMO", "R1O"), ("U1O", "RMS"), ("R1S", "RES")] {
            let route = plan_route(reg, m(from), m(to)).unwrap();
            let seq = fair_prefix(&inst, route.from, 3 * inst.node_count());
            let report = verify_route(&inst, &seq, &route).unwrap();
            assert!(report.holds(), "{from} -> {to}: {report}");
        }
    }

    #[test]
    fn plan_matches_closure_lower_bounds() {
        // The bottleneck strength of the best plan must equal the positive
        // closure's lower bound for every pair with a plan; pairs without a
        // plan must have lower bound 0 (only negatives/unknowns there).
        let bounds = routelab_core::closure::derive_bounds(&foundational_facts());
        for a in CommModel::all() {
            for b in CommModel::all() {
                if a == b {
                    continue;
                }
                let lower = bounds.get(a, b).lower;
                match plan_route(Registry::global(), a, b) {
                    Ok(route) => {
                        let bottleneck = route.bottleneck().level();
                        assert_eq!(
                            bottleneck, lower,
                            "plan {a} -> {b}: bottleneck {bottleneck} vs closure {lower}"
                        );
                    }
                    Err(_) => {
                        assert_eq!(lower, 0, "{a} -> {b}: closure says {lower} but no plan");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_is_empty_for_same_model() {
        let m: CommModel = "RMS".parse().unwrap();
        assert_eq!(plan_route(Registry::global(), m, m).unwrap().steps.len(), 0);
    }

    #[test]
    fn no_plan_into_weak_models() {
        // R1O cannot be realized in the polling models (Thm 3.8): there must
        // be no positive chain.
        let r1o: CommModel = "R1O".parse().unwrap();
        for weak in ["REO", "REF", "R1A", "RMA", "REA"] {
            assert!(plan_route(Registry::global(), r1o, weak.parse().unwrap()).is_err(), "{weak}");
        }
    }

    #[test]
    fn ums_realizes_everything_exactly() {
        let ums: CommModel = "UMS".parse().unwrap();
        for a in CommModel::all() {
            if a == ums {
                continue;
            }
            let route = plan_route(Registry::global(), a, ums)
                .unwrap_or_else(|e| panic!("no plan {a} -> UMS: {e}"));
            assert_eq!(route.bottleneck().level(), 4, "{a} -> UMS should be exact");
        }
    }

    #[test]
    fn paths_are_well_formed_chains() {
        for a in CommModel::all() {
            for b in CommModel::all() {
                if let Ok(route) = plan_route(Registry::global(), a, b) {
                    let mut cur = a;
                    for e in route.edges() {
                        assert_eq!(e.realized, cur);
                        cur = e.realizer;
                    }
                    assert_eq!(cur, b);
                }
            }
        }
    }
}
