//! The oscillation survey: for an instance, decide per communication model
//! whether some fair activation sequence fails to converge.
//!
//! Exhaustive model checking (from `routelab-explore`) is run on a set of
//! *probe* models; verdicts then transfer along the realization lattice
//! exactly as in the paper's Sec. 3.5: if model `B` realizes model `A` at
//! subsequence strength or better, every oscillation of `A` also exists in
//! `B`; dually, convergence-in-`B` rules out oscillation in every model `B`
//! realizes.

use routelab_core::closure::derive_bounds;
use routelab_core::edges::foundational_facts;
use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::error::ExploreError;
use routelab_explore::graph::ExploreConfig;
use routelab_explore::oscillation::{analyze, Verdict};
use routelab_spp::SppInstance;

/// How a survey answer was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SurveyOutcome {
    /// Exhaustively verified: a fair oscillation exists.
    Oscillates {
        /// `None` when checked directly; `Some(probe)` when transferred from
        /// an oscillating probe model this model realizes.
        via: Option<CommModel>,
    },
    /// Exhaustively verified: every fair sequence converges.
    Converges {
        /// `None` when checked directly; `Some(probe)` when transferred from
        /// a converging probe model that realizes this model.
        via: Option<CommModel>,
    },
    /// Neither a witness nor an exhaustive refutation within bounds.
    Unknown,
}

/// One (model, outcome) pair.
#[derive(Debug, Clone)]
pub struct SurveyEntry {
    /// The communication model.
    pub model: CommModel,
    /// The verdict.
    pub outcome: SurveyOutcome,
}

/// The probe models checked exhaustively: the reliable models with small
/// state spaces, which between them dominate (realize or are realized by)
/// the whole taxonomy — every unreliable model realizes its reliable
/// counterpart, and `R1O` is realized by all the strong unreliable models.
pub fn probe_models() -> Vec<CommModel> {
    ["R1O", "REO", "REF", "R1A", "RMA", "REA"]
        .iter()
        .map(|s| s.parse().expect("static model"))
        .collect()
}

/// Survey configuration: exploration bounds, which models to probe
/// exhaustively, and whether still-undecided models get a (cheaper) direct
/// check of their own.
#[derive(Debug, Clone)]
pub struct SurveyConfig {
    /// Bounds for the probe explorations.
    pub explore: ExploreConfig,
    /// The models checked exhaustively in phase 1.
    pub probes: Vec<CommModel>,
    /// Phase 2: directly analyze models the transfers left undecided.
    pub direct_fallback: bool,
    /// State budget for the phase-2 direct checks; `None` defaults to an
    /// eighth of the probe budget. The undecided models are the unreliable
    /// `M`/`E`-scope ones whose drop branching blows the state space up by
    /// orders of magnitude, so callers that survey wheel-carrying gadgets
    /// should pin this low — a truncated check honestly stays `Unknown`.
    pub direct_budget: Option<usize>,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            explore: ExploreConfig::default(),
            probes: probe_models(),
            direct_fallback: true,
            direct_budget: None,
        }
    }
}

/// Surveys all 24 models on one instance.
///
/// Phase 1 checks the probe models exhaustively and transfers their verdicts
/// along the realization lattice. Phase 2 (optional) directly checks any
/// model still undecided, with a reduced state budget (those are the
/// heavyweight `M`/`E` scope unreliable models; a truncated answer stays
/// `Unknown`).
///
/// # Errors
///
/// Returns the first [`ExploreError`] any probe or direct check hits; the
/// error names the offending gadget × model cell.
pub fn survey_instance(
    inst: &SppInstance,
    cfg: &SurveyConfig,
) -> Result<Vec<SurveyEntry>, ExploreError> {
    let bounds = derive_bounds(&foundational_facts());
    let verdicts: Vec<(CommModel, Verdict)> = cfg
        .probes
        .iter()
        .map(|&m| {
            let mut probe_span = routelab_obs::span("survey.probe");
            let v = analyze(inst, Spec::Uniform(m), &cfg.explore)?;
            probe_span.field("model", m.to_string());
            Ok((m, v))
        })
        .collect::<Result<_, ExploreError>>()?;

    let transfer = |model: CommModel| -> Option<SurveyOutcome> {
        // Direct verdict if this model is itself a probe; an inconclusive
        // probe falls through to the lattice transfers below.
        if let Some((_, v)) = verdicts.iter().find(|(m, _)| *m == model) {
            match v {
                Verdict::CanOscillate { .. } => {
                    return Some(SurveyOutcome::Oscillates { via: None })
                }
                Verdict::AlwaysConverges { .. } => {
                    return Some(SurveyOutcome::Converges { via: None })
                }
                Verdict::NoOscillationWithinBound { .. } => {}
            }
        }
        // Oscillation transfers A -> B when B realizes A (any positive
        // realization level preserves oscillations).
        for (probe, v) in &verdicts {
            if matches!(v, Verdict::CanOscillate { .. }) && bounds.get(*probe, model).lower >= 1 {
                return Some(SurveyOutcome::Oscillates { via: Some(*probe) });
            }
        }
        // Convergence transfers B -> A when B realizes A: if A could
        // oscillate, so could B.
        for (probe, v) in &verdicts {
            if matches!(v, Verdict::AlwaysConverges { .. }) && bounds.get(model, *probe).lower >= 1
            {
                return Some(SurveyOutcome::Converges { via: Some(*probe) });
            }
        }
        None
    };

    let phase2_cfg = ExploreConfig {
        max_states: cfg.direct_budget.unwrap_or(cfg.explore.max_states / 8).max(1_000),
        ..cfg.explore.clone()
    };
    CommModel::all()
        .into_iter()
        .map(|model| {
            let outcome = match transfer(model) {
                Some(o) => o,
                None if !cfg.direct_fallback => SurveyOutcome::Unknown,
                None => {
                    let mut direct_span = routelab_obs::span("survey.direct");
                    direct_span.field("model", model.to_string());
                    match analyze(inst, Spec::Uniform(model), &phase2_cfg)? {
                        Verdict::CanOscillate { .. } => SurveyOutcome::Oscillates { via: None },
                        Verdict::AlwaysConverges { .. } => SurveyOutcome::Converges { via: None },
                        Verdict::NoOscillationWithinBound { .. } => SurveyOutcome::Unknown,
                    }
                }
            };
            Ok(SurveyEntry { model, outcome })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::gadgets;

    fn outcome_of(entries: &[SurveyEntry], model: &str) -> SurveyOutcome {
        let m: CommModel = model.parse().unwrap();
        entries.iter().find(|e| e.model == m).expect("model surveyed").outcome.clone()
    }

    #[test]
    fn disagree_survey_matches_example_a1() {
        let inst = gadgets::disagree();
        let entries = survey_instance(&inst, &SurveyConfig::default()).unwrap();
        assert_eq!(entries.len(), 24);
        // The five weak models converge (Thm 3.8)…
        for m in ["REO", "REF", "R1A", "RMA", "REA"] {
            assert!(
                matches!(outcome_of(&entries, m), SurveyOutcome::Converges { .. }),
                "{m}: {:?}",
                outcome_of(&entries, m)
            );
        }
        // …and every model that provably realizes R1O oscillates. (For
        // UEO, UEF, U1A, UMA, UEA the paper's tables are blank on realizing
        // R1O; phase 2 decides them directly, whatever the answer.)
        let open = ["UEO", "UEF", "U1A", "UMA", "UEA"];
        for m in CommModel::all() {
            let name = m.to_string();
            if ["REO", "REF", "R1A", "RMA", "REA"].contains(&name.as_str())
                || open.contains(&name.as_str())
            {
                continue;
            }
            assert!(
                matches!(outcome_of(&entries, &name), SurveyOutcome::Oscillates { .. }),
                "{name}: {:?}",
                outcome_of(&entries, &name)
            );
        }
    }

    #[test]
    fn fig6_survey_quick_claims() {
        // Debug-friendly subset of Example A.2: the REO oscillation, REA
        // convergence, and the transfer of the oscillation into the queueing
        // models. Breadth-first order needs REO's full ≈89k-state reduced
        // space (141,847 raw) before its fair SCC closes; REF (≈128k
        // reduced) and R1A/RMA (a few hundred reduced states, ≈654k raw)
        // are covered by the release-only test below.
        let inst = gadgets::fig6();
        let cfg = SurveyConfig {
            explore: ExploreConfig {
                channel_cap: 3,
                max_states: 150_000,
                ..ExploreConfig::default()
            },
            probes: ["REO", "REA"].iter().map(|s| s.parse().expect("model")).collect(),
            direct_fallback: false,
            direct_budget: None,
        };
        let entries = survey_instance(&inst, &cfg).unwrap();
        assert!(matches!(outcome_of(&entries, "REO"), SurveyOutcome::Oscillates { via: None }));
        assert!(matches!(outcome_of(&entries, "REA"), SurveyOutcome::Converges { via: None }));
        // The queueing models inherit the oscillation (REO is realized
        // exactly by RMS and UMS — Fig. 3/4 row REO).
        for m in ["RMS", "UMS"] {
            assert!(
                matches!(outcome_of(&entries, m), SurveyOutcome::Oscillates { via: Some(_) }),
                "{m}"
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "≈220k reduced states across the probes; run with `cargo test --release`"
    )]
    fn fig6_survey_matches_example_a2() {
        let inst = gadgets::fig6();
        let cfg = SurveyConfig {
            explore: ExploreConfig {
                channel_cap: 3,
                max_states: 1_500_000,
                max_steps_per_state: 20_000,
                ..ExploreConfig::default()
            },
            ..SurveyConfig::default()
        };
        let entries = survey_instance(&inst, &cfg).unwrap();
        for m in ["REO", "REF"] {
            assert!(matches!(outcome_of(&entries, m), SurveyOutcome::Oscillates { .. }), "{m}");
        }
        for m in ["R1A", "RMA", "REA"] {
            assert!(
                matches!(outcome_of(&entries, m), SurveyOutcome::Converges { .. }),
                "{m}: {:?}",
                outcome_of(&entries, m)
            );
        }
    }

    #[test]
    fn good_gadget_converges_everywhere() {
        let inst = gadgets::good_gadget();
        let entries = survey_instance(&inst, &SurveyConfig::default()).unwrap();
        for e in &entries {
            assert!(
                matches!(e.outcome, SurveyOutcome::Converges { .. }),
                "{}: {:?}",
                e.model,
                e.outcome
            );
        }
    }

    #[test]
    fn bad_gadget_oscillates_everywhere() {
        let inst = gadgets::bad_gadget();
        // Small budget: every probe's oscillating SCC appears within the
        // first 20k states.
        let cfg = SurveyConfig {
            explore: ExploreConfig { max_states: 20_000, ..ExploreConfig::default() },
            ..SurveyConfig::default()
        };
        let entries = survey_instance(&inst, &cfg).unwrap();
        for e in &entries {
            assert!(
                matches!(e.outcome, SurveyOutcome::Oscillates { .. }),
                "{}: {:?}",
                e.model,
                e.outcome
            );
        }
    }
}
