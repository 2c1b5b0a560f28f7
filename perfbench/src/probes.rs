//! Layer probes: the public kernels behind each layer, timed in
//! isolation at the shapes the workloads run them at.
//!
//! Every probe warms its buffers with one untimed batch of calls, then
//! times a fixed number of batches; each batch yields one per-call
//! sample. Operation counts and bytes are computed from the shapes, not
//! measured; the memory probe reports the transfers the memory model
//! simulates.

use crate::stats;
use crate::trace::Tracer;
use adainf_apps::{apps_for_count, AppRuntime};
use adainf_core::predict::{LatencyFeatures, LatencyPredictor};
use adainf_driftgen::workload::ArrivalConfig;
use adainf_gpusim::memory::AccessIntent;
use adainf_gpusim::{ContentKey, GpuMemory, GpuSpec, TaskContext};
use adainf_harness::RunConfig;
use adainf_modelzoo::TrainableModel;
use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::Matrix;
use adainf_simcore::walltime::WallTimer;
use adainf_simcore::{Prng, SimTime};
use std::hint::black_box;

/// Rows of one head SGD mini-batch ([`TrainableModel::SGD_BATCH`]).
const BATCH: usize = TrainableModel::SGD_BATCH;
/// Input and output width of the head's widest trunk GEMM (the
/// 32 → 24 layer of `TrainableModel`'s `[32, 24, 16]` trunk).
const GEMM_IN: usize = 32;
const GEMM_OUT: usize = 24;
/// Principal components the drift detector fits (`AdaInfConfig`'s
/// default `pca_components`).
const PCA_K: usize = 8;
/// Samples per timed `train_slice`: one staged flush (64 new samples
/// plus as many rehearsed from the replay reservoir).
const SLICE: usize = 128;
/// Capacity fraction of the chaos scenario's memory-pressure windows
/// (`FaultSpec::memory_pressure`).
const PRESSURE_FRAC: f64 = 5.0e-4;

/// One probe's timings and computed work.
pub struct Probe {
    /// Metric-style name, `layer.kernel`.
    pub name: &'static str,
    /// Per-call time of each timed batch, ns.
    pub per_call_ns: Vec<f64>,
    /// Timed calls in total.
    pub calls: u64,
    /// Unit the per-call time is reported in: `us` or `ns`.
    pub unit: &'static str,
    /// Operations per call, in `op_unit`.
    pub ops_per_call: f64,
    /// What one operation is.
    pub op_unit: &'static str,
    /// Bytes one call moves: computed from its shapes, or for the
    /// memory model the transfers it simulates.
    pub bytes_per_call: f64,
    /// How `bytes_per_call` was obtained.
    pub bytes_kind: &'static str,
}

impl Probe {
    /// Median per-call time, ns.
    pub fn median_ns(&self) -> f64 {
        stats::median(&self.per_call_ns).unwrap_or(f64::NAN)
    }

    /// Median per-call time in [`Self::unit`].
    pub fn median(&self) -> f64 {
        match self.unit {
            "us" => self.median_ns() / 1e3,
            _ => self.median_ns(),
        }
    }
}

/// Times `calls` calls of `f` per batch over `batches` batches, after
/// one untimed warm-up batch.
fn sample(batches: usize, calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..calls {
        f();
    }
    (0..batches)
        .map(|_| {
            let t = WallTimer::start();
            for _ in 0..calls {
                f();
            }
            t.elapsed_nanos() as f64 / calls as f64
        })
        .collect()
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
    Matrix::from_slice(rows, cols, &data)
}

/// Results of [`run_all`]: the probes plus the per-app pretraining
/// times of `AppRuntime::new`, s.
pub struct Probes {
    /// Kernel probes, in run order.
    pub kernels: Vec<Probe>,
    /// Host seconds of `AppRuntime::new` per application.
    pub pretrain_s: Vec<f64>,
}

/// Runs every probe under a span of its own. `base` supplies the
/// workload's traffic (app count, rate, pool size) and seed.
pub fn run_all(base: &RunConfig, tracer: &mut Tracer) -> Probes {
    let root = Prng::new(base.seed);
    let specs = apps_for_count(base.num_apps);
    let arrival = ArrivalConfig {
        base_rate: base.base_rate,
        ..ArrivalConfig::default()
    };

    // apps: the initial pretraining every `Simulation::new` pays.
    let mut pretrain_s = Vec::with_capacity(specs.len());
    let mut first: Option<AppRuntime> = None;
    for spec in &specs {
        let t = WallTimer::start();
        let rt = tracer.span("apps::AppRuntime::new", || {
            AppRuntime::new(spec.clone(), arrival.clone(), base.pool_size, &root)
        });
        pretrain_s.push(t.elapsed_secs());
        first.get_or_insert(rt);
    }
    let rt = first.expect("at least one application");

    let mut kernels = Vec::new();
    let mut rng = root.split(0xBE7C);

    // nn: the three GEMMs of one SGD step through the widest trunk
    // layer (forward, weight gradient, input gradient).
    let input = random_matrix(BATCH, GEMM_IN, &mut rng);
    let weights = random_matrix(GEMM_IN, GEMM_OUT, &mut rng);
    let grad_out = random_matrix(BATCH, GEMM_OUT, &mut rng);
    let mut out = Matrix::zeros(0, 0);
    let macs = (BATCH * GEMM_IN * GEMM_OUT) as f64;
    let gemm_bytes = (4 * (BATCH * GEMM_IN + GEMM_IN * GEMM_OUT + BATCH * GEMM_OUT)) as f64;
    type Gemm = fn(&Matrix, &Matrix, &mut Matrix);
    let gemms: [(&'static str, &Matrix, &Matrix, Gemm); 3] = [
        ("nn.matmul_into", &input, &weights, Matrix::matmul_into),
        ("nn.t_matmul_into", &input, &grad_out, Matrix::t_matmul_into),
        (
            "nn.matmul_t_into",
            &grad_out,
            &weights,
            Matrix::matmul_t_into,
        ),
    ];
    for (name, a, b, gemm) in gemms {
        let per_call_ns = tracer.span(name, || {
            sample(200, 200, || gemm(a, black_box(b), black_box(&mut out)))
        });
        kernels.push(Probe {
            name,
            per_call_ns,
            calls: 200 * 200,
            unit: "us",
            ops_per_call: macs,
            op_unit: "MAC",
            bytes_per_call: gemm_bytes,
            bytes_kind: "computed",
        });
    }

    // nn: the drift detector's warm-started PCA over the first model's
    // old-sample features, warm basis from its held-out reference set.
    let model = &rt.models[0];
    let feats = model.features(rt.old_samples(0));
    let warm =
        Pca::fit(&model.features(rt.ref_samples(0)), PCA_K, &mut rng.split(1)).into_components();
    let mut scratch = PcaScratch::default();
    let fit_rng = rng.split(2);
    let per_call_ns = tracer.span("nn.pca_fit_warm", || {
        sample(30, 4, || {
            let mut r = fit_rng.clone();
            black_box(Pca::fit_warm_with_scratch(
                black_box(&feats),
                PCA_K,
                &mut r,
                &mut scratch,
                Some(&warm),
            ));
        })
    });
    kernels.push(Probe {
        name: "nn.pca_fit_warm",
        per_call_ns,
        calls: 30 * 4,
        unit: "us",
        ops_per_call: (feats.rows() * feats.cols() * feats.cols()) as f64,
        op_unit: "covariance MAC",
        bytes_per_call: (4 * feats.rows() * feats.cols()) as f64,
        bytes_kind: "computed",
    });

    // modelzoo: one staged-flush-sized retraining slice.
    let mut trainee = model.clone();
    let n = SLICE.min(rt.old_samples(0).len());
    let slice = rt.old_samples(0).select(&(0..n).collect::<Vec<_>>());
    let per_call_ns = tracer.span("modelzoo.train_slice", || {
        sample(40, 10, || trainee.train_slice(black_box(&slice), 1))
    });
    kernels.push(Probe {
        name: "modelzoo.train_slice",
        per_call_ns,
        calls: 40 * 10,
        unit: "us",
        ops_per_call: n as f64,
        op_unit: "sample",
        bytes_per_call: (4 * slice.inputs.rows() * slice.inputs.cols()) as f64,
        bytes_kind: "computed",
    });

    // gpusim: parameter fetches into memory collapsed by a pressure
    // window, every block resident beforehand, as at a storm's onset.
    let mut mem = GpuMemory::new(GpuSpec::with_gpus(base.num_gpus).memory_config());
    let mut blocks = Vec::new();
    for spec in &specs {
        for (node, ns) in spec.nodes.iter().enumerate() {
            let key = ContentKey::param(spec.id, node as u32, 0);
            let bytes = ns.profile.full_cost().param_bytes as u64;
            let slo = spec.slo.as_millis_f64();
            mem.access(
                key,
                bytes,
                TaskContext::Inference,
                0,
                node as u32,
                slo,
                AccessIntent::Produce,
                SimTime::ZERO,
            );
            blocks.push((key, bytes, node as u32, slo));
        }
    }
    let mut now = SimTime::ZERO;
    mem.apply_pressure(PRESSURE_FRAC, now);
    let mut i = 0usize;
    let moved_before = mem.stats().bytes_moved;
    let per_call_ns = tracer.span("gpusim.memory_access", || {
        sample(50, 2000, || {
            let (key, bytes, node, slo) = blocks[i % blocks.len()];
            i += 1;
            now = SimTime::from_micros(i as u64);
            black_box(mem.access(
                key,
                bytes,
                TaskContext::Inference,
                i as u64,
                node,
                slo,
                AccessIntent::Fetch,
                now,
            ));
        })
    });
    kernels.push(Probe {
        name: "gpusim.memory_access",
        per_call_ns,
        calls: 50 * 2000,
        unit: "ns",
        ops_per_call: 1.0,
        op_unit: "access",
        bytes_per_call: (mem.stats().bytes_moved - moved_before) as f64 / i as f64,
        bytes_kind: "simulated",
    });

    // core: one RLS fold of a completed job into the latency predictor.
    let mut predictor = LatencyPredictor::new(specs.len(), 64);
    let jobs: Vec<(LatencyFeatures, f64, f64)> = (0..256)
        .map(|_| {
            let feats = LatencyFeatures::new(
                rng.range_f64(1.0, 64.0) as u32,
                rng.range_f64(1.0, 16.0) as u32,
                rng.range_f64(0.05, 1.0),
                rng.range_f64(1e8, 1e10),
                rng.range_f64(0.0, 256.0),
                rng.range_f64(0.0, 5e3),
                rng.range_f64(500.0, 5e3),
            );
            (feats, rng.range_f64(500.0, 5e3), rng.range_f64(100.0, 1e3))
        })
        .collect();
    let mut j = 0usize;
    let per_call_ns = tracer.span("core.predictor_observe", || {
        sample(50, 2000, || {
            let (feats, per_batch, fixed) = &jobs[j % jobs.len()];
            predictor.observe(j % specs.len(), black_box(feats), *per_batch, *fixed);
            j += 1;
        })
    });
    kernels.push(Probe {
        name: "core.predictor_observe",
        per_call_ns,
        calls: 50 * 2000,
        unit: "ns",
        ops_per_call: 1.0,
        op_unit: "observation",
        bytes_per_call: std::mem::size_of::<LatencyFeatures>() as f64,
        bytes_kind: "computed",
    });

    Probes {
        kernels,
        pretrain_s,
    }
}
