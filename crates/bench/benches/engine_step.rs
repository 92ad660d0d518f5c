//! Execution-engine throughput: steps per second of the Definition 2.3
//! semantics under different models and instance sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use routelab_engine::runner::Runner;
use routelab_realize::plan::fair_prefix;
use routelab_spp::gadgets;
use routelab_spp::generator::{random_instance, RandomSppConfig};

fn bench_gadget_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step/gadgets");
    for (name, inst) in [("disagree", gadgets::disagree()), ("fig6", gadgets::fig6())] {
        for model in ["R1O", "REA", "RMS"] {
            let seq = fair_prefix(&inst, model.parse().unwrap(), 64);
            group.bench_with_input(
                BenchmarkId::new(name, model),
                &(&inst, &seq),
                |b, (inst, seq)| {
                    b.iter(|| {
                        let mut runner = Runner::new(inst);
                        runner.run(seq);
                        runner.stats().sent
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_random_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step/random_n");
    for n in [8usize, 16, 32, 64] {
        let inst = random_instance(&RandomSppConfig {
            nodes: n,
            extra_edges: n,
            seed: 1,
            ..RandomSppConfig::default()
        })
        .expect("generator");
        let seq = fair_prefix(&inst, "RMS".parse().unwrap(), 4 * n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &(&inst, &seq), |b, (inst, seq)| {
            b.iter(|| {
                let mut runner = Runner::new(inst);
                runner.run(seq);
                runner.stats().consumed
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gadget_steps, bench_random_sizes);
criterion_main!(benches);
