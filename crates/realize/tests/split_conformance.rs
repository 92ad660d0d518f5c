//! Theorem 3.5's splitting construction holds on random inputs: random
//! instances × random fair lossy UMF schedules, each split into U1F, must
//! realize the source trace with repetition whenever the split is lossless.

use routelab_core::MessagePolicy;
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{RandomFair, Scheduler};
use routelab_engine::trace::{strongest_relation, TraceRelation};
use routelab_realize::transform::{split_m_to_1, Tables};
use routelab_spp::generator::{random_instance, RandomSppConfig};

#[test]
fn split_realizes_random_lossy_umf_runs_with_repetition() {
    let mut lossless = 0;
    for nodes in 3..6 {
        for iseed in 0..100u64 {
            let inst = random_instance(&RandomSppConfig {
                nodes,
                extra_edges: 2,
                max_paths_per_node: 3,
                max_path_len: 5,
                seed: iseed,
            })
            .unwrap();
            let tables = Tables::new(&inst);
            for sseed in 0..30u64 {
                let mut sched =
                    RandomFair::new(&inst, "UMF".parse().unwrap(), sseed).with_drop_prob(0.3);
                let mut runner = Runner::new(&inst);
                let mut seq = Vec::new();
                for _ in 0..3 * inst.node_count() {
                    let s = sched.next_step(&runner.state()).unwrap();
                    runner.step(&s);
                    seq.push(s);
                }
                let out = split_m_to_1(&tables, &seq, MessagePolicy::Forced).unwrap();
                if !out.lossless {
                    continue;
                }
                lossless += 1;
                let base = Runner::trace_of(&inst, &seq);
                let cand = Runner::trace_of(&inst, &out.seq);
                let rel = strongest_relation(&base, &cand);
                assert!(
                    rel >= TraceRelation::Repetition,
                    "nodes={nodes} iseed={iseed} sseed={sseed}: {rel:?}\n{inst}\nbase:\n{}\ncand:\n{}",
                    base.render(&inst),
                    cand.render(&inst)
                );
            }
        }
    }
    // A floor, so that the scan cannot pass vacuously.
    assert!(lossless >= 1_000, "{lossless} lossless splits");
}
