//! The named-transformation registry: every realization transform, gadget
//! generator, and check in the workspace registered under a stable string
//! name with a one-line description, model constraints, and a version tag.
//!
//! The registry is the single source of truth that the pipeline language
//! ([`crate::plan`]), the lattice planner, the `routelab` CLI, and the
//! experiment binaries all resolve names against — there is no second,
//! hardcoded transform table anywhere else. Each entry carries a
//! [`Entry::cache_key`] (`name@vN`, the identity-plus-version idiom of
//! memoized dataflow caches) so a future memoizing service can key cached
//! stage outputs by entry identity and invalidate them when an algorithm's
//! semantics change.
//!
//! ```
//! use routelab_realize::registry::{Registry, Resolved};
//!
//! let reg = Registry::global();
//! let Some(Resolved::Transform(split)) = reg.lookup("split") else { panic!() };
//! assert_eq!(split.meta.cache_key(), "split@v1");
//! // `split` realizes every wMy model inside w1y.
//! assert_eq!(split.edges().len(), 8);
//! ```

use std::fmt;
use std::sync::OnceLock;

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_core::lattice::Strength;
use routelab_core::model::CommModel;
use routelab_spp::{gadgets, SppInstance};

use crate::plan::{foundational_edges, Edge, TransformKind};

/// What kind of pipeline stage an entry provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A realization transformation between communication models.
    Transform,
    /// A source of SPP instances (the gadget library and scaling families).
    Generator,
    /// A terminal validation stage.
    Check,
}

impl fmt::Display for EntryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EntryKind::Transform => "transform",
            EntryKind::Generator => "generator",
            EntryKind::Check => "check",
        };
        write!(f, "{s}")
    }
}

/// Metadata shared by every registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Stable string name used in pipelines and plans.
    pub name: &'static str,
    /// The entry's stage kind.
    pub kind: EntryKind,
    /// One-line human description.
    pub description: &'static str,
    /// Version tag: bump whenever the algorithm's observable behavior
    /// changes, so memoized results keyed by [`Entry::cache_key`] are
    /// invalidated rather than silently reused.
    pub version: u32,
    /// Human-readable input constraint (model pattern or argument shape).
    pub input: &'static str,
    /// Human-readable output description.
    pub output: &'static str,
    /// The `crate::module::function` the entry dispatches to (consumed by
    /// `scripts/check_registry.py`, the drift gate).
    pub impl_path: &'static str,
}

impl Entry {
    /// The memoization identity of this entry: `name@vN`.
    pub fn cache_key(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }
}

/// A registered realization transformation and the lattice edges it covers.
#[derive(Debug, Clone)]
pub struct TransformEntry {
    /// Shared metadata.
    pub meta: Entry,
    /// The constructive algorithm behind every edge of this entry.
    pub kind: TransformKind,
    edges: Vec<Edge>,
}

impl TransformEntry {
    /// Every `(realized, realizer, strength)` lattice edge this transform
    /// covers.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edges applicable when the current model is `from`.
    pub fn edges_from(&self, from: CommModel) -> Vec<Edge> {
        self.edges.iter().filter(|e| e.realized == from).copied().collect()
    }

    /// The weakest strength over this entry's edges (what a pipeline stage
    /// may claim without knowing the concrete edge yet).
    pub fn strength(&self) -> Strength {
        self.edges.iter().map(|e| e.strength).min().unwrap_or(Strength::Exact)
    }
}

/// How a generator entry builds instances.
#[derive(Debug, Clone, Copy)]
enum GenImpl {
    /// A fixed gadget from the library; takes no arguments.
    Fixed(fn() -> SppInstance),
    /// A one-parameter scaling family with an inclusive argument range.
    Param1 { make: fn(usize) -> SppInstance, min: usize, max: usize },
}

/// A registered instance source.
#[derive(Debug, Clone)]
pub struct GeneratorEntry {
    /// Shared metadata.
    pub meta: Entry,
    imp: GenImpl,
}

impl GeneratorEntry {
    /// Builds the instance, validating argument count and range.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::BadArgs`] when `args` does not match the
    /// generator's arity or range.
    pub fn build(&self, args: &[usize]) -> Result<SppInstance, RegistryError> {
        match self.imp {
            GenImpl::Fixed(make) => {
                if args.is_empty() {
                    Ok(make())
                } else {
                    Err(RegistryError::BadArgs {
                        name: self.meta.name,
                        reason: format!("takes no arguments, got {}", args.len()),
                    })
                }
            }
            GenImpl::Param1 { make, min, max } => match args {
                [n] if (min..=max).contains(n) => Ok(make(*n)),
                [n] => Err(RegistryError::BadArgs {
                    name: self.meta.name,
                    reason: format!("argument {n} outside {min}..={max}"),
                }),
                _ => Err(RegistryError::BadArgs {
                    name: self.meta.name,
                    reason: format!("takes exactly one argument, got {}", args.len()),
                }),
            },
        }
    }
}

/// A registered terminal check.
#[derive(Debug, Clone)]
pub struct CheckEntry {
    /// Shared metadata.
    pub meta: Entry,
}

/// A name-resolution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No entry answers to the name.
    UnknownName {
        /// The offending name as written.
        name: String,
    },
    /// A generator was invoked with the wrong arguments.
    BadArgs {
        /// The entry name.
        name: &'static str,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownName { name } => {
                write!(f, "no registered transform, generator, or check named {name:?}")
            }
            RegistryError::BadArgs { name, reason } => write!(f, "{name}: {reason}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A successful name lookup.
#[derive(Debug, Clone, Copy)]
pub enum Resolved<'a> {
    /// The name is a transform.
    Transform(&'a TransformEntry),
    /// The name is a generator.
    Generator(&'a GeneratorEntry),
    /// The name is a check.
    Check(&'a CheckEntry),
}

impl Resolved<'_> {
    /// The entry's shared metadata.
    pub fn meta(&self) -> &Entry {
        match self {
            Resolved::Transform(t) => &t.meta,
            Resolved::Generator(g) => &g.meta,
            Resolved::Check(c) => &c.meta,
        }
    }
}

/// The registry: ordered entry lists per kind (listing order is stable and
/// part of the `routelab transforms list` golden snapshot).
#[derive(Debug, Clone)]
pub struct Registry {
    transforms: Vec<TransformEntry>,
    generators: Vec<GeneratorEntry>,
    checks: Vec<CheckEntry>,
}

impl Registry {
    /// The process-wide shared registry.
    pub fn global() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(Registry::build)
    }

    /// All registered transforms, in listing order.
    pub fn transforms(&self) -> &[TransformEntry] {
        &self.transforms
    }

    /// All registered generators, in listing order.
    pub fn generators(&self) -> &[GeneratorEntry] {
        &self.generators
    }

    /// All registered checks, in listing order.
    pub fn checks(&self) -> &[CheckEntry] {
        &self.checks
    }

    /// Every entry's metadata, transforms first.
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.transforms
            .iter()
            .map(|t| &t.meta)
            .chain(self.generators.iter().map(|g| &g.meta))
            .chain(self.checks.iter().map(|c| &c.meta))
    }

    /// Case-insensitive name lookup across all kinds.
    pub fn lookup(&self, name: &str) -> Option<Resolved<'_>> {
        let hit = |n: &str| n.eq_ignore_ascii_case(name);
        if let Some(t) = self.transforms.iter().find(|t| hit(t.meta.name)) {
            return Some(Resolved::Transform(t));
        }
        if let Some(g) = self.generators.iter().find(|g| hit(g.meta.name)) {
            return Some(Resolved::Generator(g));
        }
        self.checks.iter().find(|c| hit(c.meta.name)).map(Resolved::Check)
    }

    /// The transform entry implementing `kind`, if registered.
    pub fn transform_for(&self, kind: TransformKind) -> Option<&TransformEntry> {
        self.transforms.iter().find(|t| t.kind == kind)
    }

    /// Every transform edge with its owning entry name, in listing order —
    /// the arc set of the realization lattice the planner searches.
    pub fn transform_arcs(&self) -> Vec<(&'static str, Edge)> {
        self.transforms.iter().flat_map(|t| t.edges.iter().map(|e| (t.meta.name, *e))).collect()
    }

    fn build() -> Registry {
        let by_kind = |kind: TransformKind| -> Vec<Edge> {
            foundational_edges().into_iter().filter(|e| e.kind == kind).collect()
        };
        // Prop 3.4 generalizes beyond its wMS statement: a w1S update is a
        // one-channel wMS update, so padding with `f = 0` reads realizes
        // w1S inside wES exactly as well. The planner gets those edges
        // directly instead of composing `embed | pad`.
        let mut pad_edges = by_kind(TransformKind::Pad);
        for w in Reliability::ALL {
            pad_edges.push(Edge {
                realized: CommModel::new(w, NeighborScope::One, MessagePolicy::Some),
                realizer: CommModel::new(w, NeighborScope::Every, MessagePolicy::Some),
                strength: Strength::Exact,
                kind: TransformKind::Pad,
            });
        }

        let transforms = vec![
            TransformEntry {
                meta: Entry {
                    name: "embed",
                    kind: EntryKind::Transform,
                    description: "Prop 3.3 identity embedding into a stronger model",
                    version: 1,
                    input: "wxy",
                    output: "one dimension relaxed (needs a target argument when ambiguous)",
                    impl_path: "transform::identity",
                },
                kind: TransformKind::Identity,
                edges: by_kind(TransformKind::Identity),
            },
            TransformEntry {
                meta: Entry {
                    name: "pad",
                    kind: EntryKind::Transform,
                    description: "Prop 3.4 padding with f=0 reads up to scope E",
                    version: 1,
                    input: "wxS (x in 1,M)",
                    output: "wES",
                    impl_path: "transform::pad_m_to_e",
                },
                kind: TransformKind::Pad,
                edges: pad_edges,
            },
            TransformEntry {
                meta: Entry {
                    name: "split",
                    kind: EntryKind::Transform,
                    description: "Thm 3.5 splitting into ordered single-channel updates",
                    version: 1,
                    input: "wMy",
                    output: "w1y",
                    impl_path: "transform::split_m_to_1",
                },
                kind: TransformKind::Split,
                edges: by_kind(TransformKind::Split),
            },
            TransformEntry {
                meta: Entry {
                    name: "flag",
                    kind: EntryKind::Transform,
                    description: "Prop 3.6 (reliable) message flagging",
                    version: 1,
                    input: "R1S",
                    output: "R1O",
                    impl_path: "transform::flag_r1s_to_r1o",
                },
                kind: TransformKind::Flag,
                edges: by_kind(TransformKind::Flag),
            },
            TransformEntry {
                meta: Entry {
                    name: "elide",
                    kind: EntryKind::Transform,
                    description: "Prop 3.6 (unreliable) dropping all but the used message",
                    version: 1,
                    input: "U1S",
                    output: "U1O",
                    impl_path: "transform::elide_u1s_to_u1o",
                },
                kind: TransformKind::Elide,
                edges: by_kind(TransformKind::Elide),
            },
            TransformEntry {
                meta: Entry {
                    name: "coalesce",
                    kind: EntryKind::Transform,
                    description: "Thm 3.7 coalescing dropped backlogs into batch reads",
                    version: 1,
                    input: "U1O",
                    output: "R1S",
                    impl_path: "transform::coalesce_u1o_to_r1s",
                },
                kind: TransformKind::Coalesce,
                edges: by_kind(TransformKind::Coalesce),
            },
        ];

        let fixed = |name: &'static str,
                     description: &'static str,
                     impl_path: &'static str,
                     make: fn() -> SppInstance| GeneratorEntry {
            meta: Entry {
                name,
                kind: EntryKind::Generator,
                description,
                version: 1,
                input: "(no arguments)",
                output: "SPP instance",
                impl_path,
            },
            imp: GenImpl::Fixed(make),
        };
        let generators = vec![
            fixed(
                "disagree",
                "Fig. 5 DISAGREE: two stable assignments",
                "gadgets::disagree",
                gadgets::disagree,
            ),
            fixed("fig6", "Fig. 6 oscillator with a dispute wheel", "gadgets::fig6", gadgets::fig6),
            fixed(
                "fig7",
                "Fig. 7 gadget (converges yet transfers FIG6)",
                "gadgets::fig7",
                gadgets::fig7,
            ),
            fixed(
                "fig8",
                "Fig. 8 gadget for Example A.4's extra state",
                "gadgets::fig8",
                gadgets::fig8,
            ),
            fixed(
                "fig9",
                "Fig. 9 gadget of the beyond-the-paper survey",
                "gadgets::fig9",
                gadgets::fig9,
            ),
            fixed(
                "bad-gadget",
                "BAD GADGET: no stable assignment at all",
                "gadgets::bad_gadget",
                gadgets::bad_gadget,
            ),
            fixed(
                "good-gadget",
                "GOOD GADGET: safe under every model",
                "gadgets::good_gadget",
                gadgets::good_gadget,
            ),
            fixed(
                "line2",
                "two-node line, the smallest instance",
                "gadgets::line2",
                gadgets::line2,
            ),
            GeneratorEntry {
                meta: Entry {
                    name: "wheel",
                    kind: EntryKind::Generator,
                    description: "n-rim dispute wheel (odd n has no stable assignment)",
                    version: 1,
                    input: "n in 3..=64",
                    output: "SPP instance",
                    impl_path: "gadgets::wheel",
                },
                imp: GenImpl::Param1 { make: gadgets::wheel, min: 3, max: 64 },
            },
            GeneratorEntry {
                meta: Entry {
                    name: "disagree-chain",
                    kind: EntryKind::Generator,
                    description: "k independent DISAGREE pairs (2^k stable assignments)",
                    version: 1,
                    input: "k in 1..=64",
                    output: "SPP instance",
                    impl_path: "gadgets::disagree_chain",
                },
                imp: GenImpl::Param1 { make: gadgets::disagree_chain, min: 1, max: 64 },
            },
        ];

        let checks = vec![CheckEntry {
            meta: Entry {
                name: "verify",
                kind: EntryKind::Check,
                description: "Definition 3.2 trace relation + target-model legality",
                version: 1,
                input: "transformed run",
                output: "verification report (fails the pipeline unless it holds)",
                impl_path: "verify::report_for",
            },
        }];

        Registry { transforms, generators, checks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let reg = Registry::global();
        let names: Vec<&str> = reg.entries().map(|e| e.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                !names[i + 1..].iter().any(|m| m.eq_ignore_ascii_case(n)),
                "duplicate registry name {n}"
            );
            assert!(reg.lookup(n).is_some(), "{n} does not resolve");
            assert!(reg.lookup(&n.to_uppercase()).is_some(), "{n} is not case-insensitive");
        }
        assert!(reg.lookup("no-such-entry").is_none());
    }

    #[test]
    fn every_transform_kind_has_exactly_one_entry() {
        let reg = Registry::global();
        for kind in TransformKind::ALL {
            let hits: Vec<_> = reg.transforms.iter().filter(|t| t.kind == kind).collect();
            assert_eq!(hits.len(), 1, "{kind:?} must be registered exactly once");
        }
        assert_eq!(reg.transforms.len(), TransformKind::ALL.len());
    }

    #[test]
    fn registry_covers_every_foundational_edge() {
        // Closure soundness at the edge level: the registry's arc set must
        // contain every foundational positive edge (it may add generalized
        // edges, but may never lose one).
        let reg = Registry::global();
        let arcs = reg.transform_arcs();
        for e in foundational_edges() {
            assert!(
                arcs.iter().any(|(_, a)| a.realized == e.realized
                    && a.realizer == e.realizer
                    && a.strength == e.strength
                    && a.kind == e.kind),
                "foundational edge {} -> {} ({:?}) missing from the registry",
                e.realized,
                e.realizer,
                e.kind
            );
        }
    }

    #[test]
    fn extra_registry_edges_are_closure_sound() {
        // Any edge beyond the foundational set must already be derivable:
        // its strength may not exceed the closure's lower bound.
        let bounds =
            routelab_core::closure::derive_bounds(&routelab_core::edges::foundational_facts());
        for (name, e) in Registry::global().transform_arcs() {
            assert!(
                e.strength.level() <= bounds.get(e.realized, e.realizer).lower,
                "{name} edge {} -> {} claims {} above the closure bound",
                e.realized,
                e.realizer,
                e.strength
            );
        }
    }

    #[test]
    fn every_corpus_gadget_has_a_generator_entry() {
        let reg = Registry::global();
        for (name, inst) in gadgets::corpus() {
            let found = reg
                .lookup(name)
                .unwrap_or_else(|| panic!("corpus gadget {name} has no registry entry"));
            let Resolved::Generator(g) = found else { panic!("{name} is not a generator") };
            assert_eq!(g.build(&[]).unwrap(), inst, "{name} builds a different instance");
        }
    }

    #[test]
    fn parameterized_generators_validate_arguments() {
        let reg = Registry::global();
        let Some(Resolved::Generator(wheel)) = reg.lookup("wheel") else { panic!() };
        assert_eq!(wheel.build(&[3]).unwrap(), gadgets::wheel(3));
        assert!(matches!(wheel.build(&[]), Err(RegistryError::BadArgs { .. })));
        assert!(matches!(wheel.build(&[2]), Err(RegistryError::BadArgs { .. })));
        assert!(matches!(wheel.build(&[65]), Err(RegistryError::BadArgs { .. })));
        let Some(Resolved::Generator(fig6)) = reg.lookup("fig6") else { panic!() };
        assert!(matches!(fig6.build(&[4]), Err(RegistryError::BadArgs { .. })));
    }

    #[test]
    fn cache_keys_carry_versions() {
        for e in Registry::global().entries() {
            assert_eq!(e.cache_key(), format!("{}@v{}", e.name, e.version));
            assert!(e.version >= 1);
            assert!(!e.description.is_empty());
            assert!(!e.impl_path.is_empty());
        }
    }
}
