//! Cost of the constructive realization transformations (experiment E10).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use routelab_core::MessagePolicy;
use routelab_realize::compose::{plan, realize};
use routelab_realize::plan::fair_prefix;
use routelab_realize::transform::{self, Tables};
use routelab_spp::gadgets;

fn bench_transforms(c: &mut Criterion) {
    let inst = gadgets::fig6();
    let tables = Tables::new(&inst);
    let mut group = c.benchmark_group("transforms");

    let rma = fair_prefix(&inst, "RMA".parse().unwrap(), 56);
    group.bench_function("split_m_to_1/56", |b| {
        b.iter(|| transform::split_m_to_1(&tables, &rma, MessagePolicy::All).unwrap().seq.len())
    });

    let rms = fair_prefix(&inst, "RMS".parse().unwrap(), 56);
    group.bench_function("pad_m_to_e/56", |b| {
        b.iter(|| transform::pad_m_to_e(&tables, &rms).unwrap().seq.len())
    });

    let r1s = fair_prefix(&inst, "R1S".parse().unwrap(), 56);
    group.bench_function("flag_r1s_to_r1o/56", |b| {
        b.iter(|| transform::flag_r1s_to_r1o(&tables, &r1s).unwrap().seq.len())
    });

    let u1o = fair_prefix(&inst, "U1O".parse().unwrap(), 56);
    group.bench_function("coalesce_u1o_to_r1s/56", |b| {
        b.iter(|| transform::coalesce_u1o_to_r1s(&tables, &u1o).unwrap().seq.len())
    });
    group.finish();

    let mut group = c.benchmark_group("compose");
    for (from, to) in [("REA", "UMS"), ("REA", "R1O"), ("U1O", "RMS")] {
        let fm = from.parse().unwrap();
        let tm = to.parse().unwrap();
        let seq = fair_prefix(&inst, fm, 28);
        group.bench_with_input(
            BenchmarkId::new("realize", format!("{from}->{to}")),
            &seq,
            |b, seq| b.iter(|| realize(&inst, seq, fm, tm).unwrap().map(|o| o.seq.len())),
        );
    }
    group.bench_function("plan_all_pairs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for a in routelab_core::model::CommModel::all() {
                for m in routelab_core::model::CommModel::all() {
                    total += plan(a, m).map_or(0, |p| p.len());
                }
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_transforms);
criterion_main!(benches);
