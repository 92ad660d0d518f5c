//! Randomized conformance scan for the Theorem 3.5 splitting construction:
//! random instances × random fair lossy UMF schedules, each transformed into
//! U1F and checked for the claimed repetition relation. Prints the first
//! counterexample in full, or `scan done`.

use routelab_core::MessagePolicy;
use routelab_engine::runner::Runner;
use routelab_engine::schedule::{RandomFair, Scheduler};
use routelab_engine::trace::{strongest_relation, TraceRelation};
use routelab_realize::transform::{split_m_to_1, Tables};
use routelab_spp::generator::{random_instance, RandomSppConfig};

fn main() {
    'outer: for nodes in 3..6 {
        for iseed in 0..100u64 {
            let inst = random_instance(&RandomSppConfig {
                nodes,
                extra_edges: 2,
                max_paths_per_node: 3,
                max_path_len: 5,
                seed: iseed,
            })
            .unwrap();
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
                let out = split_m_to_1(&Tables::new(&inst), &seq, MessagePolicy::Forced).unwrap();
                if !out.lossless {
                    continue;
                }
                let base = Runner::trace_of(&inst, &seq);
                let cand = Runner::trace_of(&inst, &out.seq);
                let rel = strongest_relation(&base, &cand);
                if rel < TraceRelation::Repetition {
                    println!("FAIL nodes={nodes} iseed={iseed} sseed={sseed} rel={rel:?}");
                    println!("{inst}");
                    for (t, s) in seq.iter().enumerate() {
                        println!("M step {t}: {s}");
                    }
                    println!("base:\n{}", base.render(&inst));
                    for (t, s) in out.seq.iter().enumerate() {
                        println!("1 step {t}: {s}");
                    }
                    println!("cand:\n{}", cand.render(&inst));
                    break 'outer;
                }
            }
        }
    }
    println!("scan done");
}
