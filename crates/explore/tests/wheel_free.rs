//! Instances without a dispute wheel never oscillate.
//!
//! Griffin, Shepherd and Wilfong showed that an SPP instance without a
//! dispute wheel converges under every fair activation sequence, and
//! Daggitt & Griffin carry that condition over to algebraic routing. So no
//! wheel-free instance may be reported oscillating in any of the 24 models.
//!
//! Inputs: every corpus gadget and small seeded random instances, kept when
//! `dispute::is_wheel_free` accepts them. A reduced build in each model
//! must not reach `Verdict::CanOscillate`; a budget-truncated
//! `NoOscillationWithinBound` is allowed. Instances with a wheel get no
//! assertion: a wheel is necessary for divergence, not sufficient.

use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::ExploreConfig;
use routelab_explore::oscillation::{analyze, Verdict};
use routelab_spp::dispute::is_wheel_free;
use routelab_spp::generator::{random_instance, RandomSppConfig};
use routelab_spp::{gadgets, SppInstance};

/// Random-instance seeds per node count.
const SEEDS: u64 = 20;

/// The wheel-free corpus gadgets and seeded 4- and 5-node random instances.
fn wheel_free_instances() -> Vec<(String, SppInstance)> {
    let corpus = gadgets::corpus().into_iter().map(|(name, inst)| (name.to_string(), inst));
    let random = [4, 5].into_iter().flat_map(|nodes| {
        (0..SEEDS).map(move |seed| {
            let cfg = RandomSppConfig {
                nodes,
                extra_edges: 2,
                max_paths_per_node: 3,
                max_path_len: 4,
                seed,
            };
            let inst = random_instance(&cfg).expect("generated instances validate");
            (format!("random n={nodes} seed={seed}"), inst)
        })
    });
    corpus.chain(random).filter(|(_, inst)| is_wheel_free(inst)).collect()
}

#[test]
fn wheel_free_instances_never_oscillate() {
    let cfg = ExploreConfig {
        channel_cap: 2,
        max_states: 1_000,
        threads: Some(1),
        ..ExploreConfig::default()
    };
    let mut converges = 0;
    for (name, inst) in wheel_free_instances() {
        for model in CommModel::all() {
            let cell = format!("{name} × {model}");
            let verdict = analyze(&inst, Spec::Uniform(model), &cfg)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(!matches!(verdict, Verdict::CanOscillate { .. }), "{cell}: {verdict:?}");
            converges += usize::from(matches!(verdict, Verdict::AlwaysConverges { .. }));
        }
    }
    assert!(converges > 0, "no cell was decided AlwaysConverges");
}
