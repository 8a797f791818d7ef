//! Benchmarks of the analytic-model implementations (§5.1): the truncated
//! ODE integration, the stochastic jump process and the full validation
//! harness behind the `model` preset.

use criterion::{criterion_group, criterion_main, Criterion};

use psn::experiments::model::run_model_validation;
use psn_analytic::{HomogeneousModel, JumpProcessConfig, PathCountJumpProcess};

fn bench_ode_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_ode");
    group.sample_size(20);
    group.bench_function("homogeneous_ode_K120_t150", |b| {
        let model = HomogeneousModel::new(0.02, 120);
        b.iter(|| criterion::black_box(model.integrate(100, 150.0, 0.25)));
    });
    group.finish();
}

fn bench_jump_process(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_jump_process");
    group.sample_size(20);
    group.bench_function("jump_process_n200_20reps", |b| {
        let config = JumpProcessConfig::with_even_samples(200, 0.02, 150.0, 3, 20, 7);
        let process = PathCountJumpProcess::new(config);
        b.iter(|| criterion::black_box(process.run()));
    });
    group.finish();
}

fn bench_model_validation(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_validation");
    group.sample_size(10);
    group.bench_function("section5_model_validation", |b| {
        b.iter(|| criterion::black_box(run_model_validation(10)));
    });
    group.finish();
}

criterion_group!(benches, bench_ode_integration, bench_jump_process, bench_model_validation);
criterion_main!(benches);
