//! Criterion benches guarding the engine's hot paths.
//!
//! * `gemm/*` — the `Matrix` multiply kernels driving every SGD
//!   retraining step, in both the allocating and the `_into`
//!   (caller-owned output) forms: at a wide 32×256×64 layer, and at
//!   the 32×32×24 shape every head SGD step runs (batch 32 through the
//!   trunk's 32 → 24 layer).
//! * `end_to_end/tiny_run` — one complete 20 s, 2-application
//!   simulation through the public `run` entry point, so a regression
//!   anywhere in the stack shows up even if every micro-bench holds.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adainf_harness::sim::{run, RunConfig};
use adainf_nn::Matrix;
use adainf_simcore::{Prng, SimDuration};

fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
    Matrix::from_slice(rows, cols, &data)
}

/// Batch 32 through a 256→64 layer: the steady-state SGD shapes.
fn bench_gemm(c: &mut Criterion) {
    let mut rng = Prng::new(11);
    let a = random_matrix(32, 256, &mut rng);
    let b = random_matrix(256, 64, &mut rng);
    let at = random_matrix(32, 256, &mut rng); // for selfᵀ × other
    let bt = random_matrix(32, 64, &mut rng);
    let wt = random_matrix(64, 256, &mut rng); // for self × otherᵀ
    let mut out = Matrix::zeros(0, 0);

    let mut group = c.benchmark_group("gemm");
    group.bench_function("matmul_into_32x256x64", |bch| {
        bch.iter(|| black_box(&a).matmul_into(black_box(&b), &mut out))
    });
    group.bench_function("t_matmul_into_256x32x64", |bch| {
        bch.iter(|| black_box(&at).t_matmul_into(black_box(&bt), &mut out))
    });
    group.bench_function("matmul_t_into_32x256x64", |bch| {
        bch.iter(|| black_box(&a).matmul_t_into(black_box(&wt), &mut out))
    });

    // The forward, weight-gradient and input-gradient GEMMs of one SGD
    // step through the 32 → 24 trunk layer.
    let input = random_matrix(32, 32, &mut rng);
    let weights = random_matrix(32, 24, &mut rng);
    let grad_out = random_matrix(32, 24, &mut rng);
    group.bench_function("matmul_into_32x32x24", |bch| {
        bch.iter(|| black_box(&input).matmul_into(black_box(&weights), &mut out))
    });
    group.bench_function("t_matmul_into_32x32x24", |bch| {
        bch.iter(|| black_box(&input).t_matmul_into(black_box(&grad_out), &mut out))
    });
    group.bench_function("matmul_t_into_32x32x24", |bch| {
        bch.iter(|| black_box(&grad_out).matmul_t_into(black_box(&weights), &mut out))
    });
    group.finish();
}

fn bench_tiny_run(c: &mut Criterion) {
    let config = RunConfig {
        duration: SimDuration::from_secs(20),
        num_apps: 2,
        seed: 1,
        ..RunConfig::default()
    };
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("tiny_run_2apps_20s", |b| {
        b.iter(|| black_box(run(config.clone())))
    });
    group.finish();
}

criterion_group!(benches, bench_gemm, bench_tiny_run);
criterion_main!(benches);
