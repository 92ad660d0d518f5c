//! Concrete oscillation witnesses: a replayable prefix + cycle extracted
//! from a fair oscillating SCC.
//!
//! The [`crate::oscillation`] verdicts prove *that* a fair oscillation
//! exists; this module produces one you can hand to the execution engine: a
//! finite prefix from the initial state into the witnessing SCC, and a
//! closed walk inside the SCC that changes π. Driving the prefix and then
//! cycling the walk forever reproduces the divergence (the cycle alone need
//! not attend every channel — fairness is certified by the SCC condition,
//! which also accounts for the state-preserving attendance steps that can
//! be interleaved freely).

use std::collections::VecDeque;

use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_spp::SppInstance;

use crate::effects::Spec;
use crate::graph::{build_spec, ExploreConfig, StateGraph};
use crate::oscillation::find_fair_scc;

/// A replayable divergence witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OscillationWitness {
    /// Steps leading from the initial state into the SCC.
    pub prefix: ActivationSeq,
    /// A closed walk within the SCC changing at least one π.
    pub cycle: ActivationSeq,
}

/// Shortest edge path `from → to` (BFS); `within` restricts intermediate
/// states (pass `None` for the whole graph). Returns edge indices per hop.
fn bfs_path(
    g: &StateGraph,
    from: usize,
    to: usize,
    within: Option<&[bool]>,
) -> Option<Vec<(usize, usize)>> {
    if from == to {
        return Some(Vec::new());
    }
    // Per state: (predecessor, edge index), predecessor u32::MAX until seen.
    let mut prev = vec![(u32::MAX, 0u32); g.len()];
    let mut queue = VecDeque::from([from]);
    while let Some(s) = queue.pop_front() {
        for (ei, e) in g.edges[s].iter().enumerate() {
            if let Some(mask) = within {
                if !mask[e.to] {
                    continue;
                }
            }
            if e.to != from && prev[e.to].0 == u32::MAX {
                prev[e.to] = (s as u32, ei as u32);
                if e.to == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, ei) = prev[cur];
                        path.push((p as usize, ei as usize));
                        cur = p as usize;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(e.to);
            }
        }
    }
    None
}

/// Extracts an oscillation witness for `inst` under `model`, or `None` when
/// the analysis finds no fair oscillating SCC within the bounds.
pub fn oscillation_witness(
    inst: &SppInstance,
    model: CommModel,
    cfg: &ExploreConfig,
) -> Option<OscillationWitness> {
    oscillation_witness_spec(inst, Spec::Uniform(model), cfg)
}

/// Extracts an oscillation witness for any model view (uniform or mixed).
///
/// The graph is always built *unreduced* (overriding `cfg.reduce`): witness
/// steps are replayed literally against the execution engine, and edges of a
/// reduced graph denote normalized/canonicalized transitions whose raw
/// successors differ from the recorded targets.
pub fn oscillation_witness_spec(
    inst: &SppInstance,
    spec: Spec<'_>,
    cfg: &ExploreConfig,
) -> Option<OscillationWitness> {
    let cfg = ExploreConfig { reduce: false, ..cfg.clone() };
    let g = build_spec(inst, spec, &cfg);
    witness_from_graph(spec, &g)
}

/// Extracts an oscillation witness from a prebuilt graph (used by the
/// differential tests to compare parallel- and reference-built graphs).
pub fn witness_from_graph(spec: Spec<'_>, g: &StateGraph) -> Option<OscillationWitness> {
    let comp = find_fair_scc(spec, g).0?;
    let index = &g.index;
    let mut member = vec![false; g.len()];
    for &s in &comp {
        member[s] = true;
    }

    // A π-changing internal edge must exist (π differs across the SCC).
    let (ca, cei) = comp.iter().find_map(|&s| {
        g.edges[s]
            .iter()
            .enumerate()
            .find(|(_, e)| member[e.to] && e.changes_pi)
            .map(|(ei, _)| (s, ei))
    })?;
    let cb = g.edges[ca][cei].to;

    // Prefix: initial state -> ca (unrestricted).
    let prefix_edges = bfs_path(g, 0, ca, None)?;
    // Cycle: the changing edge plus a return path cb -> ca inside the SCC.
    let back = bfs_path(g, cb, ca, Some(&member))?;

    let to_steps = |edges: &[(usize, usize)]| -> ActivationSeq {
        edges.iter().map(|&(s, ei)| g.edges[s][ei].step().to_activation(spec, index)).collect()
    };
    let mut cycle = vec![g.edges[ca][cei].step().to_activation(spec, index)];
    cycle.extend(to_steps(&back));
    Some(OscillationWitness { prefix: to_steps(&prefix_edges), cycle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::validate::check_sequence;
    use routelab_engine::outcome::{drive, RunOutcome};
    use routelab_engine::runner::Runner;
    use routelab_engine::schedule::Cyclic;
    use routelab_spp::gadgets;

    fn replay(inst: &SppInstance, model: &str, witness: &OscillationWitness) {
        let model: CommModel = model.parse().unwrap();
        check_sequence(model, inst.graph(), &witness.prefix)
            .unwrap_or_else(|(t, e)| panic!("prefix step {t}: {e}"));
        check_sequence(model, inst.graph(), &witness.cycle)
            .unwrap_or_else(|(t, e)| panic!("cycle step {t}: {e}"));
        let mut runner = Runner::new(inst);
        runner.run(&witness.prefix);
        let mut sched = Cyclic::new(witness.cycle.clone());
        match drive(&mut runner, &mut sched, 10_000) {
            RunOutcome::CycleDetected { oscillating, .. } => {
                assert!(oscillating, "witness cycle must change π")
            }
            other => panic!("witness did not oscillate: {other:?}"),
        }
    }

    #[test]
    fn disagree_r1o_witness_replays() {
        let inst = gadgets::disagree();
        let w = oscillation_witness(&inst, "R1O".parse().unwrap(), &ExploreConfig::default())
            .expect("R1O oscillates on DISAGREE");
        assert!(!w.cycle.is_empty());
        replay(&inst, "R1O", &w);
    }

    #[test]
    fn bad_gadget_rea_witness_replays() {
        let inst = gadgets::bad_gadget();
        let w = oscillation_witness(&inst, "REA".parse().unwrap(), &ExploreConfig::default())
            .expect("REA oscillates on BAD-GADGET");
        replay(&inst, "REA", &w);
    }

    #[test]
    fn fig6_reo_witness_replays() {
        let inst = gadgets::fig6();
        let cfg = ExploreConfig { channel_cap: 3, ..ExploreConfig::default() };
        let w = oscillation_witness(&inst, "REO".parse().unwrap(), &cfg)
            .expect("REO oscillates on Fig. 6");
        replay(&inst, "REO", &w);
    }

    #[test]
    fn no_witness_for_converging_models() {
        let inst = gadgets::disagree();
        assert!(
            oscillation_witness(&inst, "RMA".parse().unwrap(), &ExploreConfig::default()).is_none()
        );
        let good = gadgets::good_gadget();
        assert!(
            oscillation_witness(&good, "R1O".parse().unwrap(), &ExploreConfig::default()).is_none()
        );
    }

    #[test]
    fn unreliable_witness_respects_drop_fairness() {
        let inst = gadgets::disagree();
        let w = oscillation_witness(&inst, "U1O".parse().unwrap(), &ExploreConfig::default())
            .expect("U1O oscillates on DISAGREE");
        replay(&inst, "U1O", &w);
    }
}
