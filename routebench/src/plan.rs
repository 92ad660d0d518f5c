//! The realization workload: plan a composite transform route for every
//! ordered model pair, then verify every route on every corpus gadget, as
//! `routelab plan` and the planner's differential suite do.

use std::collections::BTreeMap;

use routelab_core::lattice::Strength;
use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_core::validate::check_sequence;
use routelab_engine::runner::Runner;
use routelab_engine::trace::{strongest_relation, TraceRelation};
use routelab_realize::plan::{apply_route, fair_prefix, plan_route, verify_route};
use routelab_realize::{Registry, Report, Route, TransformError};
use routelab_spp::{gadgets, SppInstance};

use crate::trace::Tracer;
use crate::{measure, shuffled, Args, Checks, Outcome, Paired, Units};

/// The source run of every verification is a round-robin fair prefix of
/// this many steps per node. `routelab plan` uses 3; the longer prefix
/// gives the transforms, whose cost grows faster than the prefix, and the
/// quadratic trace relation a larger share of the time.
const PREFIX_PER_NODE: usize = 10;

/// The published split of the 576 ordered pairs.
const ROUTES: usize = 369;
const NO_ROUTES: usize = 207;

type Corpus = Vec<(&'static str, SppInstance)>;
type Pairs = Vec<(CommModel, CommModel)>;

fn setup() -> Corpus {
    let corpus = gadgets::corpus();
    Registry::global();
    corpus
}

fn pairs(seed: u64) -> Pairs {
    let all = CommModel::all();
    shuffled(all.iter().flat_map(|&a| all.iter().map(move |&b| (a, b))).collect(), seed)
}

fn prefix(inst: &SppInstance, model: CommModel) -> ActivationSeq {
    fair_prefix(inst, model, PREFIX_PER_NODE * inst.node_count())
}

/// Plans every pair: the routes found, and how many pairs had none.
fn plan_all(pairs: &Pairs) -> (Vec<Route>, usize) {
    let reg = Registry::global();
    let mut routes = Vec::new();
    for &(from, to) in pairs {
        if let Ok(route) = plan_route(reg, from, to) {
            routes.push(route);
        }
    }
    let no_routes = pairs.len() - routes.len();
    (routes, no_routes)
}

/// The checks of a plan: the published split of the 576 pairs.
fn check_split(routes: usize, no_routes: usize, checks: &mut Checks) {
    checks.record(routes == ROUTES && no_routes == NO_ROUTES, || {
        format!("{routes} routes and {no_routes} NoRoute, expected {ROUTES} and {NO_ROUTES}")
    });
}

/// The checks of a verification: the report holds, and it claims the
/// route's bottleneck strength.
fn check_report(
    name: &str,
    route: &Route,
    report: &Result<Report, TransformError>,
    checks: &mut Checks,
) {
    let ok = matches!(report, Ok(r) if r.holds() && r.claimed == route.bottleneck());
    checks.record(ok, || format!("{name}: {route}: {report:?}"));
}

/// `fair_prefix` and `verify_route` for a route on every gadget.
fn verify_all(corpus: &Corpus, route: &Route) -> Vec<Result<Report, TransformError>> {
    corpus.iter().map(|(_, inst)| verify_route(inst, &prefix(inst, route.from), route)).collect()
}

/// One pass: planning all pairs is the first unit, and verifying one route
/// on every gadget is one unit each.
fn pass(corpus: &Corpus, pairs: &Pairs, units: &mut Units, checks: &mut Checks) {
    let (routes, no_routes) = units.time(|| plan_all(pairs));
    check_split(routes.len(), no_routes, checks);
    for route in &routes {
        let reports = units.time(|| verify_all(corpus, route));
        for ((name, _), report) in corpus.iter().zip(&reports) {
            check_report(name, route, report, checks);
        }
    }
}

/// Everything a report states.
type Facts = (CommModel, CommModel, Strength, TraceRelation, bool, bool, bool, (usize, usize));

fn facts(r: &Report) -> Facts {
    (r.from, r.to, r.claimed, r.achieved, r.source_legal, r.target_legal, r.lossless, r.steps)
}

pub fn untraced(args: &Args) -> Outcome {
    let pairs = pairs(args.seed);
    measure(args.seconds, setup, |corpus, units, checks| pass(corpus, &pairs, units, checks))
}

/// The traced run: planning every pair, and then verifying each route on
/// every gadget, runs untraced and then traced, back to back. The traced
/// side takes `verify_route` apart into its public calls (`apply_route`,
/// two `Runner::trace_of`, `strongest_relation`, two `check_sequence`)
/// with a span around each, and must reproduce every report.
pub fn traced(args: &Args, tr: &mut Tracer) -> Outcome {
    let pairs = pairs(args.seed);
    let corpus = tr.span("spp.generate", |_| gadgets::corpus());
    let reg = Registry::global();
    let mut checks = Checks::default();
    let mut paired = Paired::default();
    let (want, no_routes) = paired.untraced(|| plan_all(&pairs));
    let routes: Vec<Route> = paired.traced(tr, |tr| {
        let plans =
            pairs.iter().map(|&(from, to)| tr.span("realize.plan", |_| plan_route(reg, from, to)));
        plans.filter_map(Result::ok).collect::<Vec<_>>()
    });
    check_split(want.len(), no_routes, &mut checks);
    checks.record(routes == want, || "the traced pass planned other routes".into());
    let mut verifications = 0usize;
    for route in &routes {
        let reports = paired.untraced(|| verify_all(&corpus, route));
        let ours: Vec<_> = paired.traced(tr, |tr| {
            corpus.iter().map(|(_, inst)| verify_traced(inst, route, tr)).collect()
        });
        for (((name, _), want), ours) in corpus.iter().zip(&reports).zip(&ours) {
            check_report(name, route, want, &mut checks);
            let same = matches!((ours, want), (Ok(a), Ok(b)) if facts(a) == facts(b));
            checks.record(same, || format!("{name}: {route}: traced {ours:?}, untraced {want:?}"));
            verifications += 1;
        }
    }

    let mut m = BTreeMap::new();
    paired.metrics(&mut m);
    m.insert("spp.generate_s", tr.seconds("spp.generate"));
    for name in [
        "realize.plan",
        "realize.prefix",
        "realize.apply",
        "engine.trace_of",
        "engine.relation",
        "core.check_sequence",
    ] {
        let metric = crate::PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_suffix("_s") == Some(name))
            .expect("every span has a per-layer metric");
        m.insert(metric, tr.seconds(name));
    }
    m.insert("realize.routes", routes.len() as f64);
    m.insert("realize.no_routes", (pairs.len() - routes.len()) as f64);
    m.insert("realize.verifications", verifications as f64);
    Outcome { checks, metrics: m }
}

/// `fair_prefix` and `verify_route` for one gadget, with a span around
/// every public call `verify_route` makes.
fn verify_traced(
    inst: &SppInstance,
    route: &Route,
    tr: &mut Tracer,
) -> Result<Report, TransformError> {
    let seq = tr.span("realize.prefix", |_| prefix(inst, route.from));
    let out = tr.span("realize.apply", |_| apply_route(inst, &seq, route))?;
    let base = tr.span("engine.trace_of", |_| Runner::trace_of(inst, &seq));
    let cand = tr.span("engine.trace_of", |_| Runner::trace_of(inst, &out.seq));
    let achieved = tr.span("engine.relation", |_| strongest_relation(&base, &cand));
    let graph = inst.graph();
    let source_legal =
        tr.span("core.check_sequence", |_| check_sequence(route.from, graph, &seq).is_ok());
    let target_legal =
        tr.span("core.check_sequence", |_| check_sequence(route.to, graph, &out.seq).is_ok());
    Ok(Report {
        from: route.from,
        to: route.to,
        claimed: out.claimed,
        achieved,
        source_legal,
        target_legal,
        lossless: out.lossless,
        steps: (seq.len(), out.seq.len()),
    })
}
