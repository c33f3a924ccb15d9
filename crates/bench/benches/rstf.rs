//! Criterion micro-benchmarks for the RSTF: transformation throughput for
//! both kernels and the cost of the σ cross-validation sweep.  The
//! logistic-vs-erf comparison is the kernel ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zerber_r::{cross_validate, Rstf, RstfKernel};

fn training_scores(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            u.powi(3) * 0.4 + 0.005
        })
        .collect()
}

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("rstf_transform");
    for &n in &[8usize, 64, 512] {
        let training = training_scores(n, 1);
        for kernel in [RstfKernel::Logistic, RstfKernel::Erf] {
            let rstf = Rstf::fit(&training, 200.0, kernel).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{kernel:?}"), n),
                &rstf,
                |b, rstf| {
                    let mut x = 0.001f64;
                    b.iter(|| {
                        x = (x + 0.00317) % 0.5;
                        std::hint::black_box(rstf.transform(x))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_sigma_selection(c: &mut Criterion) {
    let training = training_scores(300, 2);
    let control = training_scores(100, 3);
    let grid: Vec<f64> = vec![5.0, 20.0, 80.0, 320.0, 1280.0];
    let mut group = c.benchmark_group("sigma_cross_validation");
    group.sample_size(10);
    group.bench_function("300train_100control_5sigmas", |b| {
        b.iter(|| {
            cross_validate(
                std::hint::black_box(&training),
                std::hint::black_box(&control),
                &grid,
                RstfKernel::Logistic,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_transform, bench_sigma_selection
);
criterion_main!(benches);
