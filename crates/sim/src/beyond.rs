//! Beyond the paper: resolving blank Figure 3/4 cells empirically.
//!
//! The published tables leave many cells blank (unknown). Exhaustive model
//! checking produces new *facts*: whenever some instance oscillates under
//! model `A` but provably always converges under model `C`, model `C` does
//! not preserve `A`'s oscillations — the cell `(A, C)` is `-1`. Feeding
//! these empirical negatives through the Sec. 3.4 closure then resolves
//! further cells by transitivity.
//!
//! The headline finding (from DISAGREE alone): the unreliable analogues of
//! the paper's five weak models — `UEO`, `UEF`, `U1A`, `UMA`, `UEA` — force
//! DISAGREE to converge, so none of them preserves the oscillations of
//! `R1O` (or of any model realizing `R1O`). This answers blanks the paper
//! left open in Figure 4.
//!
//! Caveat (documented also on the checker): for `O`/`F`-policy unreliable
//! models the absence verdicts use the strict reading of Definition 2.4's
//! drop fairness (every channel that is dropped on infinitely often must
//! also deliver infinitely often); for `A`-policy models the two readings
//! coincide because every read consumes the whole channel.

use routelab_core::closure::{derive_bounds, BoundsMatrix};
use routelab_core::edges::{foundational_facts, Facts, NegativeFact};
use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::error::ExploreError;
use routelab_explore::graph::ExploreConfig;
use routelab_explore::oscillation::{analyze, Verdict};
use routelab_spp::SppInstance;

/// An empirical separation: `instance` oscillates in `oscillates_in` but
/// always converges in `converges_in`.
#[derive(Debug, Clone)]
pub struct Separation {
    /// Gadget name.
    pub instance: &'static str,
    /// Model admitting a fair oscillation.
    pub oscillates_in: CommModel,
    /// Model in which every fair execution converges (exhaustively).
    pub converges_in: CommModel,
}

/// Harvests separations from one instance by checking the given models
/// exhaustively (only unconditional verdicts contribute).
///
/// # Errors
///
/// Returns the first [`ExploreError`] any check hits; the error names the
/// offending gadget × model cell.
pub fn harvest(
    name: &'static str,
    inst: &SppInstance,
    models: &[CommModel],
    cfg: &ExploreConfig,
) -> Result<Vec<Separation>, ExploreError> {
    let mut oscillating = Vec::new();
    let mut converging = Vec::new();
    for &m in models {
        match analyze(inst, Spec::Uniform(m), cfg)? {
            Verdict::CanOscillate { .. } => oscillating.push(m),
            Verdict::AlwaysConverges { .. } => converging.push(m),
            Verdict::NoOscillationWithinBound { .. } => {}
        }
    }
    let mut out = Vec::new();
    for &a in &oscillating {
        for &c in &converging {
            out.push(Separation { instance: name, oscillates_in: a, converges_in: c });
        }
    }
    Ok(out)
}

/// The default harvesting run: every model on DISAGREE (all 24 state spaces
/// are small there).
///
/// # Errors
///
/// Returns the first [`ExploreError`] any check hits.
pub fn disagree_separations(cfg: &ExploreConfig) -> Result<Vec<Separation>, ExploreError> {
    let inst = routelab_spp::gadgets::disagree();
    harvest("DISAGREE", &inst, &CommModel::all(), cfg)
}

/// Extends the foundational facts with empirical negatives and re-derives
/// the bounds matrix.
pub fn extended_bounds(separations: &[Separation]) -> (Facts, BoundsMatrix) {
    let mut facts = foundational_facts();
    for s in separations {
        facts.negatives.push(NegativeFact {
            realized: s.oscillates_in,
            realizer: s.converges_in,
            max_level: 0,
            source: "routelab exhaustive check",
        });
    }
    let bounds = derive_bounds(&facts);
    (facts, bounds)
}

/// Counts cells of `new` strictly tighter than in `old`.
pub fn newly_determined(old: &BoundsMatrix, new: &BoundsMatrix) -> usize {
    let mut n = 0;
    for a in CommModel::all() {
        for b in CommModel::all() {
            if a == b {
                continue;
            }
            let (o, w) = (old.get(a, b), new.get(a, b));
            if w.refines(o) && w != o {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::lattice::CellBound;
    use routelab_core::paper::{compare, figure3, figure4, CellVerdict};

    fn cfg() -> ExploreConfig {
        ExploreConfig::default()
    }

    #[test]
    fn disagree_resolves_the_unreliable_weak_columns() {
        let seps = disagree_separations(&cfg()).unwrap();
        assert!(!seps.is_empty());
        let (_, bounds) = extended_bounds(&seps);
        // The headline: R1O's oscillations are not preserved by the five
        // unreliable weak models — formerly blank Figure 4 cells.
        let r1o: CommModel = "R1O".parse().unwrap();
        for weak in ["UEO", "UEF", "U1A", "UMA", "UEA"] {
            let cell = bounds.get(r1o, weak.parse().unwrap());
            assert_eq!(cell, CellBound::exactly(0), "(R1O, {weak}) should be -1, got {cell}");
        }
        // …and by transitivity neither are the oscillations of any model
        // realizing R1O, e.g. the queueing models.
        for strong in ["RMS", "UMS", "R1S", "U1O"] {
            let cell = bounds.get(strong.parse().unwrap(), "UEA".parse().unwrap());
            assert_eq!(cell, CellBound::exactly(0), "({strong}, UEA) should be -1, got {cell}");
        }
    }

    #[test]
    fn extension_is_consistent_with_the_published_tables() {
        // The extension must only tighten: zero conflicts against Figures
        // 3 and 4, and strictly more determined cells than the base.
        let seps = disagree_separations(&cfg()).unwrap();
        let (_, extended) = extended_bounds(&seps);
        for table in [figure3(), figure4()] {
            let cmp = compare(&extended, &table);
            assert_eq!(cmp.count(CellVerdict::Conflict), 0, "{}:\n{cmp}", table.name);
            assert_eq!(cmp.count(CellVerdict::Looser), 0, "{}", table.name);
        }
        let base = derive_bounds(&foundational_facts());
        let gained = newly_determined(&base, &extended);
        assert!(gained >= 50, "expected a large batch of resolved cells, got {gained}");
    }

    #[test]
    fn harvest_is_symmetric_free() {
        // A model never separates from itself, and separations never point
        // from a converging model.
        let seps = disagree_separations(&cfg()).unwrap();
        for s in &seps {
            assert_ne!(s.oscillates_in, s.converges_in);
        }
        // DISAGREE's weak five must be on the converging side only.
        for weak in ["REO", "REF", "R1A", "RMA", "REA", "UEA"] {
            let weak: CommModel = weak.parse().unwrap();
            assert!(seps.iter().all(|s| s.oscillates_in != weak), "{weak}");
        }
    }
}
