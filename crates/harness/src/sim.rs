//! The end-to-end simulation loop.
//!
//! A [`Simulation`] owns the application runtimes (streams + trainable
//! models), the edge-server description, a scheduler, and the metric
//! sinks. [`Simulation::run`] advances 5 ms session by session:
//!
//! 1. At every 50 s boundary the applications drift, their pools refresh,
//!    and the scheduler's period hook runs (drift detection / bulk
//!    retraining plans). Bulk retraining occupies edge GPUs until its
//!    completion and refreshes the affected model when it lands.
//! 2. Each session, actual arrivals are drawn per application while the
//!    scheduler sees only the *predicted* counts (an EWMA of past
//!    sessions) — the prediction error is why finish rates stay below
//!    100 % (§5.1).
//! 3. Each planned job executes: retraining slices consume pool samples
//!    and run real SGD on the model heads, then the inference tasks'
//!    latency is computed from the GPU latency model times the
//!    communication inflation of the job's memory strategies. Requests
//!    are scored against the golden labels through the current model
//!    state, batch by batch against the SLO.
//!
//! Capacity is enforced: allocations hold their GPU amount until job
//! completion, and the scheduler sees the remaining free amount.

use crate::metrics::RunMetrics;
use adainf_apps::{apps_for_count, AppRuntime, AppSpec};
use adainf_baselines::{EkyaScheduler, ScroogeScheduler};
use adainf_core::degrade::{
    admit_within_slo, should_shed_retraining, DegradePolicy, ReloadState,
};
use adainf_core::plan::{BulkRetrain, Scheduler, SessionCtx};
use adainf_core::predict::{LatencyFeatures, LatencyPredictor};
use adainf_core::profiler::{CommProfile, Profiler};
use adainf_core::{AdaInfConfig, AdaInfScheduler};
use adainf_driftgen::faultgen::FaultWindow;
use adainf_driftgen::workload::ArrivalConfig;
use adainf_driftgen::{FaultKind, FaultSpec, FaultTimeline, Impairments, LabeledSamples};
use adainf_gpusim::memory::AccessIntent;
use adainf_gpusim::{ContentKey, EdgeServer, GpuMemory, GpuSpec, LatencyModel, TaskContext};
use adainf_modelzoo::TrainSliceScratch;
use adainf_simcore::parallel;
use adainf_simcore::time::{PERIOD, SESSION};
use adainf_simcore::{Prng, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use adainf_simcore::walltime::WallTimer;

/// Which scheduling method a run uses.
#[derive(Clone, Debug)]
pub enum Method {
    /// AdaInf or one of its ablation variants / references.
    AdaInf(AdaInfConfig),
    /// Ekya \[3\].
    Ekya,
    /// Scrooge \[10\] (greedy capacity capping).
    Scrooge,
    /// Scrooge* (proportional capacity division).
    ScroogeStar,
}

impl Method {
    /// Display name of the method.
    pub fn name(&self) -> String {
        match self {
            Method::AdaInf(c) => c.variant_name().to_string(),
            Method::Ekya => "Ekya".to_string(),
            Method::Scrooge => "Scrooge".to_string(),
            Method::ScroogeStar => "Scrooge*".to_string(),
        }
    }
}

/// Fault-injection configuration of a run: the seeded fault scenario
/// plus the degradation policy the serving loop uses to absorb it.
/// `Copy` so it rides inside [`RunConfig::with_method`]'s functional
/// update like every other non-method field.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// The fault scenario (an empty spec injects nothing, and the run
    /// stays bit-identical to one with `chaos: None`).
    pub faults: FaultSpec,
    /// Graceful-degradation knobs.
    pub degrade: DegradePolicy,
}

impl ChaosConfig {
    /// A scenario with the default degradation policy.
    pub fn scenario(faults: FaultSpec) -> Self {
        ChaosConfig {
            faults,
            degrade: DegradePolicy::default(),
        }
    }
}

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Root RNG seed — the whole run is a deterministic function of it.
    pub seed: u64,
    /// Simulated horizon (the paper uses 1000 s = 20 periods).
    pub duration: SimDuration,
    /// Number of edge-server GPUs.
    pub num_gpus: u32,
    /// Number of applications (1–14, catalogue order).
    pub num_apps: usize,
    /// Mean request rate per application (req/s).
    pub base_rate: f64,
    /// Retraining-pool samples per model per period.
    pub pool_size: usize,
    /// The scheduling method.
    pub method: Method,
    /// Override of the communication-inflation profile (α sweeps re-run
    /// the offline memory profiling and feed the result in here).
    pub comm: Option<CommProfile>,
    /// §6 extension: heterogeneous fleet speed factors (empty = a
    /// homogeneous fleet of `num_gpus` reference GPUs). Shared so that
    /// cloning a config (sweeps build dozens) bumps a refcount instead
    /// of copying the list.
    pub device_factors: Arc<[f64]>,
    /// Fault injection + graceful degradation (`None` = pristine run;
    /// the fault machinery is then never touched and metrics stay
    /// bit-identical to builds without it).
    pub chaos: Option<ChaosConfig>,
    /// Worker threads for the period-boundary training fan-out
    /// (0 = the host's available parallelism). The staged SGD flushes
    /// of a boundary are independent per `(app, node)`, so the fan-out
    /// is bit-identical at any width — exposed only so determinism
    /// tests can pin exact counts.
    pub train_workers: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 42,
            duration: SimDuration::from_secs(1000),
            num_gpus: 4,
            num_apps: 8,
            base_rate: 6400.0,
            pool_size: 6000,
            method: Method::AdaInf(AdaInfConfig::default()),
            comm: None,
            device_factors: Arc::from([]),
            chaos: None,
            train_workers: 0,
        }
    }
}

impl RunConfig {
    /// Same run with a different method (for comparisons). Does not
    /// clone the replaced method; the remaining fields are `Copy` or
    /// refcounted.
    pub fn with_method(&self, method: Method) -> RunConfig {
        RunConfig {
            method,
            device_factors: Arc::clone(&self.device_factors),
            ..*self
        }
    }
}

/// A bulk retraining registered at a period boundary, with the pool
/// samples snapshotted at registration time (the data that was shipped /
/// handed to the trainer).
struct PendingBulk {
    plan: BulkRetrain,
    samples: LabeledSamples,
}

/// Per-session working buffers, reused across all ~200k sessions of a
/// run instead of being reallocated each time.
#[derive(Default)]
struct SessionScratch {
    actual: Vec<u32>,
    predicted: Vec<u32>,
    pool_remaining: Vec<Vec<usize>>,
    served: Vec<bool>,
}

/// Runtime state of fault injection, present only when the run was
/// configured with a non-empty [`ChaosConfig`].
struct ChaosRuntime {
    /// Pre-generated fault windows for the whole horizon.
    timeline: FaultTimeline,
    /// Degradation knobs (copied out of the config).
    degrade: DegradePolicy,
    /// A fault-facing model of the edge GPUs' memory, seeded with every
    /// application's parameters resident. Pressure windows collapse its
    /// capacity; the resulting eviction storms and parameter reloads
    /// charge real PCIe time to the affected jobs.
    mem: GpuMemory,
    /// Pool-starvation windows, in start order.
    starve: Vec<FaultWindow>,
    /// First starvation window not yet fired.
    starve_cursor: usize,
    /// A memory-pressure window is currently open.
    pressure_active: bool,
    /// Per-app bounded-retry state for parameter reloads.
    reload: Vec<ReloadState>,
    /// Per app: its nodes' parameter blocks `(key, bytes)` in node
    /// order, the working set the pressure storms fight over.
    param_keys: Vec<Vec<(ContentKey, u64)>>,
    /// Per app: the flat per-session latency penalty of serving with
    /// host-resident weights after reload give-up (streaming the full
    /// parameter set over the pageable link, without churning the
    /// shared memory model any further).
    degraded_penalty: Vec<SimDuration>,
}

/// One end-to-end simulation.
pub struct Simulation {
    config: RunConfig,
    specs: Arc<[AppSpec]>,
    apps: Vec<AppRuntime>,
    server: EdgeServer,
    scheduler: Box<dyn Scheduler>,
    metrics: RunMetrics,
    /// The "world" latency law and communication profile (identical to
    /// the scheduler's — offline profiling is accurate in the paper too),
    /// shared with the scheduler rather than cloned into it.
    profiler: Arc<Profiler>,
    /// (release time µs, milli-GPUs) of in-flight allocations.
    releases: BinaryHeap<Reverse<(u64, u64)>>,
    in_use_milli: u64,
    /// EWMA of job completion time.
    avg_job_time: SimDuration,
    /// EWMA of per-app arrivals per session.
    predicted_ewma: Vec<f64>,
    pending_bulk: Vec<PendingBulk>,
    /// Per (app, node): retrained at least once this period.
    updated_this_period: Vec<Vec<bool>>,
    /// Per (app, node): scheduled for retraining this period.
    scheduled_retrain: Vec<Vec<bool>>,
    /// Per (app, node): staged retraining samples. Tiny per-job slices
    /// are accumulated here and applied as one SGD step per full batch —
    /// matching how a training stream accumulates a batch before
    /// stepping, and keeping the head updates low-noise.
    stage: Vec<Vec<Vec<LabeledSamples>>>,
    /// Per (app, node): replay reservoir of samples already trained on
    /// this period. Each staged flush rehearses a draw from it, the
    /// standard continual-learning stabiliser (iCaRL \[8\]) — without it,
    /// sequentially consuming a deviation-ordered pool makes the head
    /// track whatever the most recent slices looked like.
    replay: Vec<Vec<LabeledSamples>>,
    /// Harness-side RNG (replay draws, shuffles).
    rng: Prng,
    /// Per-app completion time of the last serial job (queueing for
    /// `JobPlan::serial` schedulers).
    serial_free_at: Vec<SimTime>,
    /// Reusable per-session buffers.
    scratch: SessionScratch,
    /// Fault-injection state (`None` on pristine runs).
    chaos: Option<ChaosRuntime>,
    /// Online per-app latency predictor of the admission loop (see
    /// [`adainf_core::predict`]), present only for AdaInf runs with
    /// [`AdaInfConfig::predicted_latency`] on.
    predictor: Option<LatencyPredictor>,
    /// Wall-clock nanoseconds of session serving (each `step_session`
    /// minus the training time accrued inside it).
    serve_wall_ns: u128,
    /// Wall-clock nanoseconds of model training: staged SGD flushes
    /// (inline and boundary fan-outs) plus bulk retraining.
    train_wall_ns: u128,
    /// Largest resolved width of the drift stage and the boundary
    /// training fan-out.
    pool_width: usize,
}

/// Staged samples per (app, node) before an SGD step fires.
const STAGE_THRESHOLD: usize = 64;

/// Replay reservoir capacity per (app, node).
const REPLAY_CAP: usize = 1024;

impl Simulation {
    /// Builds a run from its configuration.
    pub fn new(config: RunConfig) -> Self {
        // simlint: allow(prng-stream-discipline) — the run's seed boundary: RunConfig.seed enters the system exactly here; everything below receives split children
        let root = Prng::new(config.seed);
        let specs: Arc<[AppSpec]> = apps_for_count(config.num_apps).into();
        let arrival = ArrivalConfig {
            base_rate: config.base_rate,
            ..ArrivalConfig::default()
        };
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| AppRuntime::new(s, arrival.clone(), config.pool_size, &root))
            .collect();
        let spec_hw = if config.device_factors.is_empty() {
            GpuSpec::with_gpus(config.num_gpus)
        } else {
            GpuSpec::heterogeneous(config.device_factors.to_vec())
        };
        let profiler: Arc<Profiler> = Arc::new(match config.comm {
            Some(comm) => Profiler::new(LatencyModel::default(), comm),
            None => Profiler::default(),
        });
        let scheduler: Box<dyn Scheduler> = match &config.method {
            Method::AdaInf(c) => Box::new(AdaInfScheduler::new(
                c.clone(),
                Arc::clone(&profiler),
                Arc::clone(&specs),
                config.seed,
            )),
            Method::Ekya => Box::new(EkyaScheduler::new(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            )),
            Method::Scrooge => Box::new(ScroogeScheduler::new(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            )),
            Method::ScroogeStar => Box::new(ScroogeScheduler::new_star(
                Arc::clone(&profiler),
                Arc::clone(&specs),
            )),
        };
        let predictor = match &config.method {
            Method::AdaInf(c) if c.predicted_latency => Some(LatencyPredictor::new(
                specs.len(),
                c.predictor_warmup as u64,
            )),
            _ => None,
        };
        let node_counts: Vec<usize> = specs.iter().map(|s| s.nodes.len()).collect();
        let n_apps_for_state = specs.len();
        let metrics = RunMetrics::new(config.method.name(), &node_counts);
        let updated: Vec<Vec<bool>> =
            node_counts.iter().map(|&n| vec![false; n]).collect();
        let stage: Vec<Vec<Vec<LabeledSamples>>> = node_counts
            .iter()
            .map(|&n| (0..n).map(|_| Vec::new()).collect())
            .collect();
        let replay: Vec<Vec<LabeledSamples>> = node_counts
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| LabeledSamples {
                        inputs: adainf_nn::Matrix::zeros(0, 1),
                        labels: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        let predicted_ewma =
            vec![config.base_rate * SESSION.as_secs_f64(); specs.len()];
        let server = EdgeServer::new(spec_hw);
        let chaos = config.chaos.and_then(|cc| {
            if cc.faults.is_empty() {
                return None;
            }
            let timeline =
                FaultTimeline::generate(&cc.faults, config.duration, &root);
            let mut mem = GpuMemory::new(server.spec().memory_config());
            let pageable = mem.config().pageable_bandwidth;
            let mut param_keys = Vec::with_capacity(specs.len());
            let mut degraded_penalty = Vec::with_capacity(specs.len());
            for spec in specs.iter() {
                let mut keys = Vec::with_capacity(spec.nodes.len());
                let mut total = 0u64;
                for (node, ns) in spec.nodes.iter().enumerate() {
                    let bytes = ns.profile.full_cost().param_bytes as u64;
                    let key = ContentKey::param(spec.id, node as u32, 0);
                    // Seed the block resident (Produce: no fetch cost) —
                    // steady state before the first pressure window.
                    mem.access(
                        key,
                        bytes,
                        TaskContext::Inference,
                        0,
                        node as u32,
                        spec.slo.as_millis_f64(),
                        AccessIntent::Produce,
                        SimTime::ZERO,
                    );
                    keys.push((key, bytes));
                    total += bytes;
                }
                param_keys.push(keys);
                degraded_penalty.push(SimDuration::from_millis_f64(
                    total as f64 / pageable * 1e3,
                ));
            }
            let starve = timeline.windows_of(FaultKind::PoolStarvation);
            Some(ChaosRuntime {
                timeline,
                degrade: cc.degrade,
                mem,
                starve,
                starve_cursor: 0,
                pressure_active: false,
                reload: vec![ReloadState::default(); specs.len()],
                param_keys,
                degraded_penalty,
            })
        });
        Simulation {
            specs,
            apps,
            server,
            scheduler,
            metrics,
            profiler,
            releases: BinaryHeap::new(),
            in_use_milli: 0,
            avg_job_time: SimDuration::from_millis(60),
            predicted_ewma,
            pending_bulk: Vec::new(),
            updated_this_period: updated.clone(),
            scheduled_retrain: updated,
            stage,
            replay,
            rng: root.split(0x0051_ACE5),
            serial_free_at: vec![SimTime::ZERO; n_apps_for_state],
            scratch: SessionScratch::default(),
            chaos,
            predictor,
            serve_wall_ns: 0,
            train_wall_ns: 0,
            pool_width: 0,
            config,
        }
    }

    /// Per-session fault bookkeeping: fires starvation windows, tracks
    /// memory-pressure edges (storm on entry, release + retry reset on
    /// exit), and returns the session's impairments. A pristine run
    /// (`chaos: None`) returns [`Impairments::NEUTRAL`] without touching
    /// anything.
    fn chaos_pre_session(&mut self, t: SimTime) -> Impairments {
        let Some(chaos) = self.chaos.as_mut() else {
            return Impairments::NEUTRAL;
        };
        let imp = chaos.timeline.impairments_at(t);

        // Pool starvation: at each window start, a fraction of every
        // pool's remaining samples is destroyed (the labelling pipeline
        // stalled / the golden model was unreachable).
        while chaos.starve_cursor < chaos.starve.len()
            && chaos.starve[chaos.starve_cursor].start <= t
        {
            let w = chaos.starve[chaos.starve_cursor];
            chaos.starve_cursor += 1;
            for rt in &mut self.apps {
                for pool in &mut rt.pools {
                    let drain =
                        (pool.remaining() as f64 * w.magnitude) as usize;
                    if drain > 0 {
                        let lost = pool.take(drain);
                        self.metrics.starved_samples += lost.len() as u64;
                    }
                }
            }
        }

        // Memory pressure: collapse capacity while a window is open
        // (re-applied every session so overlapping windows deepen the
        // collapse; once evicted down, re-application is free), restore
        // it on the falling edge.
        let pressure_now = imp.capacity_frac < 1.0;
        if pressure_now {
            if !chaos.pressure_active {
                chaos.pressure_active = true;
                self.metrics.eviction_storms += 1;
            }
            let comm = chaos.mem.apply_pressure(imp.capacity_frac, t);
            if comm > SimDuration::ZERO {
                self.metrics.fault_comm.add(comm.as_millis_f64());
            }
        } else if chaos.pressure_active {
            chaos.pressure_active = false;
            chaos.mem.release_pressure();
            for r in chaos.reload.iter_mut() {
                r.reset();
            }
        }

        if imp.impaired {
            self.metrics.fault_sessions += 1;
        }
        imp
    }

    /// Runs to the horizon and returns the collected metrics.
    pub fn run(mut self) -> RunMetrics {
        let sessions = self.config.duration.as_micros() / SESSION.as_micros();
        for si in 0..sessions {
            let t = SimTime::from_micros(si * SESSION.as_micros());
            if t.as_micros().is_multiple_of(PERIOD.as_micros()) {
                self.on_period_boundary(t);
            }
            self.apply_due_bulk(t);
            // Serving wall = the session step minus whatever training
            // it triggered inline (threshold-crossing staged flushes) —
            // the train timer is nested inside the session timer on the
            // same clock, so the subtraction cannot underflow; the
            // saturation only guards clock pathologies.
            let w = WallTimer::start();
            let train_before = self.train_wall_ns;
            self.step_session(t);
            let train_delta = self.train_wall_ns - train_before;
            self.serve_wall_ns += w.elapsed_nanos().saturating_sub(train_delta);
        }
        self.finalize();
        self.metrics
    }

    fn on_period_boundary(&mut self, t: SimTime) {
        // Close out the previous period's pool accounting before pools
        // refresh.
        if t > SimTime::ZERO {
            // Unapplied bulk retrainings whose data would vanish with the
            // pool refresh are applied late (their completion slipped
            // past the period end).
            let mut pending = std::mem::take(&mut self.pending_bulk);
            for p in &mut pending {
                self.apply_bulk(p);
            }
            // Boundary flush of every staged (app, node), batched: the
            // RNG-ordered preparation runs sequentially in (app, node)
            // order — consuming the harness RNG exactly as the fused
            // sequential loop did — and the pure SGD slices fan out
            // with one training scratch per worker. Each job owns its
            // sample set and a disjoint `&mut` model, so results are
            // bit-identical at any worker count.
            let mut staged: Vec<(usize, usize, LabeledSamples)> = Vec::new();
            for a in 0..self.apps.len() {
                for node in 0..self.apps[a].spec.nodes.len() {
                    if let Some(shuffled) = self.prepare_flush(a, node) {
                        staged.push((a, node, shuffled));
                    }
                    self.replay[a][node] = LabeledSamples {
                        inputs: adainf_nn::Matrix::zeros(0, 1),
                        labels: Vec::new(),
                    };
                }
            }
            if !staged.is_empty() {
                let w = WallTimer::start();
                self.pool_width = self.pool_width.max(
                    parallel::resolved_threads(staged.len(), self.config.train_workers),
                );
                // Pair each job with its model: `staged` is already in
                // ascending (app, node) order, matching the nested
                // iteration, so a single peekable cursor suffices.
                let mut cursor = staged.into_iter().peekable();
                let mut jobs: Vec<(&mut adainf_modelzoo::TrainableModel, LabeledSamples)> =
                    Vec::new();
                for (a, rt) in self.apps.iter_mut().enumerate() {
                    for (node, model) in rt.models.iter_mut().enumerate() {
                        if cursor.peek().is_some_and(|j| j.0 == a && j.1 == node) {
                            // simlint: allow(no-unwrap-in-lib) — guarded by the peek above.
                            let (_, _, shuffled) = cursor.next().expect("peeked job");
                            jobs.push((model, shuffled));
                        }
                    }
                }
                parallel::fan_out_collect(
                    jobs,
                    self.config.train_workers,
                    TrainSliceScratch::default,
                    |_, (model, shuffled), scratch: &mut TrainSliceScratch| {
                        model.train_slice_with(&shuffled, 1, scratch);
                    },
                );
                self.train_wall_ns += w.elapsed_nanos();
            }
            let mut used = 0.0;
            let mut total = 0.0;
            for rt in &self.apps {
                for pool in &rt.pools {
                    used += pool.used() as f64;
                    total += pool.total() as f64;
                }
            }
            self.metrics
                .samples_used
                .push(if total > 0.0 { used / total } else { 0.0 });
            for rt in &mut self.apps {
                rt.advance_period();
            }
        }
        for (a, rt) in self.apps.iter().enumerate() {
            for node in 0..rt.spec.nodes.len() {
                self.metrics.label_distributions[a][node]
                    .push(rt.label_distribution(node));
            }
        }
        for flags in self.updated_this_period.iter_mut() {
            flags.iter_mut().for_each(|f| *f = false);
        }

        let wall = WallTimer::start();
        let plan = self
            .scheduler
            .on_period_start(&mut self.apps, self.server.spec(), t);
        self.metrics.period_overhead.add(wall.elapsed_ms());
        self.metrics.edge_cloud_bytes += plan.edge_cloud_bytes;
        if let Some(d) = plan.drift {
            let m = &mut self.metrics;
            m.drift_detect_ns += d.work_ns;
            m.drift_detect_period_us.push(d.work_ns as f64 / 1e3);
            m.drift_blocked_ns += d.blocked_ns;
            m.drift_builds += d.builds;
            m.drift_warm_starts += d.warm_starts;
            self.pool_width = self.pool_width.max(d.worker_threads);
        }

        // Which nodes are scheduled for retraining this period: bulk
        // tasks (Ekya/Scrooge) or RI-DAG entries (AdaInf).
        for flags in self.scheduled_retrain.iter_mut() {
            flags.iter_mut().for_each(|f| *f = false);
        }
        for (a, app_plan) in plan.apps.iter().enumerate() {
            for e in &app_plan.ri_entries {
                self.scheduled_retrain[a][e.node] = true;
            }
        }
        for b in &plan.bulk {
            self.scheduled_retrain[b.app][b.node] = true;
        }

        // Register bulk retraining: snapshot the pool data, reserve edge
        // GPU capacity, account the retraining time.
        for b in plan.bulk {
            let cap = if b.sample_cap == 0 {
                usize::MAX
            } else {
                b.sample_cap as usize
            };
            let samples = self.apps[b.app].pools[b.node].take(cap);
            if b.gpu > 0.0 {
                let hold = b.busy_until.since(t);
                self.reserve(b.gpu, b.busy_until);
                self.server.record_busy(t, hold, b.gpu);
                self.metrics
                    .add_retrain_gpu_time(t, hold.as_secs_f64() * b.gpu);
                self.metrics.retrain_latency.add(hold.as_millis_f64());
            } else {
                // Cloud retraining: latency recorded, no edge GPU held.
                self.metrics
                    .retrain_latency
                    .add(b.available_at.since(t).as_millis_f64());
            }
            self.pending_bulk.push(PendingBulk { plan: b, samples });
        }
    }

    fn apply_bulk(&mut self, p: &mut PendingBulk) {
        let (app, node) = (p.plan.app, p.plan.node);
        // Two SGD passes capture the accuracy effect of the configured
        // multi-epoch retraining (the heads converge in 1–2 passes; the
        // GPU time charged is the scheduler's full setting).
        let samples = std::mem::replace(
            &mut p.samples,
            LabeledSamples {
                inputs: adainf_nn::Matrix::zeros(0, 1),
                labels: Vec::new(),
            },
        );
        if !samples.is_empty() {
            self.metrics.retrain_samples[app][node] += samples.len() as u64;
            let w = WallTimer::start();
            self.apps[app].models[node].train_slice(&samples, 2);
            self.train_wall_ns += w.elapsed_nanos();
        }
        self.updated_this_period[app][node] = true;
    }

    fn apply_due_bulk(&mut self, t: SimTime) {
        // Fast path: nothing due this session (the common case — bulk
        // retrainings land once per period, sessions run every 5 ms).
        if self.pending_bulk.iter().all(|p| p.plan.available_at > t) {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_bulk);
        pending.retain_mut(|p| {
            if p.plan.available_at <= t {
                self.apply_bulk(p);
                false
            } else {
                true
            }
        });
        self.pending_bulk = pending;
    }

    fn reserve(&mut self, gpu: f64, until: SimTime) {
        let milli = (gpu * 1000.0).round() as u64;
        self.in_use_milli += milli;
        self.releases.push(Reverse((until.as_micros(), milli)));
    }

    fn release_due(&mut self, t: SimTime) {
        while let Some(Reverse((at, milli))) = self.releases.peek().copied() {
            if at > t.as_micros() {
                break;
            }
            self.releases.pop();
            self.in_use_milli = self.in_use_milli.saturating_sub(milli);
        }
    }

    fn step_session(&mut self, t: SimTime) {
        self.release_due(t);

        // Fault bookkeeping first: starvation must drain pools before
        // the scheduler snapshots them, pressure storms must land before
        // jobs reload. NEUTRAL (and untaken branches throughout) on
        // pristine runs.
        let imp = self.chaos_pre_session(t);
        let degrade = match &self.chaos {
            Some(c) => c.degrade,
            None => DegradePolicy::default(),
        };

        // Online latency predictor: when the run has one, every
        // completed job below feeds it an observation and calibration
        // error is recorded — bucketed by run quartile, so the bench can
        // assert the model converges (first-quartile MAE > last's). When
        // off (the default) no feature vectors are built at all.
        let use_pred = self.predictor.is_some();
        let quartile = if use_pred {
            let sessions =
                (self.config.duration.as_micros() / SESSION.as_micros()).max(1);
            let si = t.as_micros() / SESSION.as_micros();
            ((si * 4 / sessions) as usize).min(3)
        } else {
            0
        };

        // Actual arrivals and predictions, into the reused buffers (taken
        // out of `self` so the session context can borrow them while the
        // scheduler and metrics fields stay mutable).
        let mut scratch = std::mem::take(&mut self.scratch);
        let n_apps = self.apps.len();
        scratch.actual.clear();
        scratch.predicted.clear();
        for a in 0..n_apps {
            scratch.actual.push(self.apps[a].requests_in_session(t));
            scratch.predicted.push(self.predicted_ewma[a].round() as u32);
        }
        // Rate bursts scale the drawn arrivals *after* the draw, so the
        // arrival RNG streams stay identical with and without faults.
        if imp.rate_gain > 1.0 {
            for a in scratch.actual.iter_mut() {
                *a = ((*a as f64) * imp.rate_gain).round() as u32;
            }
        }
        scratch
            .pool_remaining
            .resize_with(n_apps, Vec::new);
        for (rt, dst) in self.apps.iter().zip(scratch.pool_remaining.iter_mut()) {
            dst.clear();
            dst.extend(rt.pools.iter().map(|p| p.remaining()));
        }
        let actual = &scratch.actual;

        let free = (self.server.spec().total_space()
            - self.in_use_milli as f64 / 1000.0)
            .max(0.0);
        let ctx = SessionCtx {
            now: t,
            predicted: &scratch.predicted,
            server: self.server.spec(),
            free_gpus: free,
            avg_job_time: self.avg_job_time,
            pool_remaining: &scratch.pool_remaining,
        };
        let wall = WallTimer::start();
        let plans = self.scheduler.on_session(&ctx);
        self.metrics
            .sched_overhead
            .add(wall.elapsed_ms());

        scratch.served.clear();
        scratch.served.resize(n_apps, false);
        let served = &mut scratch.served;
        for plan in plans {
            let app = plan.app;
            served[app] = true;
            let n = actual[app];
            if n == 0 {
                continue;
            }

            // Pure pre-computation, moved ahead of the retraining loop
            // (which only mutates pools/models/metrics): the serial wait
            // and the worst-case inference latency, which the
            // degradation decisions below need before any state mutates.
            // Values are unchanged from computing them in place.
            let cost = self.specs[app].structure_cost(&plan.cuts);
            let slo = self.specs[app].slo;
            let wait = if plan.serial {
                self.serial_free_at[app].since(t)
            } else {
                SimDuration::ZERO
            };
            // Worst-case inference latency of `n` requests, for the
            // initial cost and the re-cost after admission sheds.
            // Transient device stalls inflate the GPU latency law for
            // the session (CPU-offloaded jobs are unaffected).
            let latency = if !plan.cpu && imp.latency_inflation > 1.0 {
                self.profiler.latency.with_stall(imp.latency_inflation)
            } else {
                self.profiler.latency.clone()
            };
            let inflation = self.profiler.comm.inflation(plan.exec, plan.eviction);
            let inference_for = |n: u32| {
                if plan.cpu {
                    latency.cpu_inference(&cost, n)
                } else {
                    latency
                        .worst_case(&cost, n, plan.batch, plan.gpu)
                        .mul_f64(inflation)
                }
            };
            let mut inference = inference_for(n);

            // Inference-only fallback: when a fault window collapsed the
            // spare time the plan assumed, drop the planned retraining
            // slices — their samples stay in the pool for calmer
            // sessions — rather than blow the inference SLO.
            let drop_retrain = imp.impaired
                && degrade.inference_only_under_pressure
                && !plan.retrain.is_empty()
                && {
                    let planned = plan.retrain.iter().fold(
                        SimDuration::ZERO,
                        |acc, slice| {
                            let c = self.specs[app].nodes[slice.node]
                                .profile
                                .full_cost();
                            acc + self.profiler.latency.training_latency(
                                &c,
                                slice.samples,
                                slice.batch,
                                slice.epochs,
                                plan.gpu,
                            )
                        },
                    );
                    should_shed_retraining(wait, planned, inference, slo)
                };
            if drop_retrain {
                self.metrics.dropped_retrain_slices +=
                    plan.retrain.len() as u64;
            }

            // Retraining slices: consume pool, run real SGD, charge time.
            let mut retrain_time = SimDuration::ZERO;
            let mut taken_total = 0.0;
            let retrain_slices: &[adainf_core::plan::RetrainSlice] =
                if drop_retrain { &[] } else { &plan.retrain };
            for slice in retrain_slices {
                let batch = self.apps[app].pools[slice.node]
                    .take(slice.samples as usize);
                if batch.is_empty() {
                    continue;
                }
                let cost = self.specs[app].nodes[slice.node].profile.full_cost();
                let time = self.profiler.latency.training_latency(
                    &cost,
                    batch.len() as u32,
                    slice.batch,
                    slice.epochs,
                    plan.gpu,
                );
                taken_total += batch.len() as f64;
                self.metrics.retrain_samples[app][slice.node] += batch.len() as u64;
                self.stage_train(app, slice.node, batch, slice.epochs.min(2) as usize);
                retrain_time += time;
                self.metrics
                    .add_retrain_gpu_time(t, time.as_secs_f64() * plan.gpu);
                self.metrics.retrain_latency.add(time.as_millis_f64());
                self.updated_this_period[app][slice.node] = true;
            }

            // Bounded reload retry: while a pressure window is open, a
            // GPU job's parameters may have been evicted by the storm
            // (or by other apps' reloads thrashing the shrunken
            // capacity). Re-fetch them, charging real PCIe time, at most
            // `max_reload_retries` consecutive times; after that the app
            // gives up and serves with host-resident weights at a flat
            // penalty, without churning the shared memory model further.
            let mut reload_comm = SimDuration::ZERO;
            if let Some(chaos) = self.chaos.as_mut() {
                if chaos.pressure_active && !plan.cpu {
                    if chaos.reload[app].gave_up() {
                        reload_comm = chaos.degraded_penalty[app];
                        self.metrics.degraded_jobs += 1;
                        self.metrics
                            .fault_comm
                            .add(reload_comm.as_millis_f64());
                    } else {
                        let job = t.session_index();
                        let slo_ms = slo.as_millis_f64();
                        let mut comm = SimDuration::ZERO;
                        for (node, &(key, bytes)) in
                            chaos.param_keys[app].iter().enumerate()
                        {
                            comm += chaos.mem.access(
                                key,
                                bytes,
                                TaskContext::Inference,
                                job,
                                node as u32,
                                slo_ms,
                                AccessIntent::Fetch,
                                t,
                            );
                        }
                        if comm > SimDuration::ZERO {
                            reload_comm = comm;
                            self.metrics.reload_retries += 1;
                            self.metrics.fault_comm.add(comm.as_millis_f64());
                            if !chaos.reload[app]
                                .record_failure(chaos.degrade.max_reload_retries)
                            {
                                self.metrics.reload_gave_up += 1;
                            }
                        } else {
                            chaos.reload[app].record_success();
                        }
                    }
                }
            }

            // Serial-queue schedulers wait for the app's previous job.
            // A frame whose queueing delay alone already exceeds the SLO
            // is *skipped* (real video pipelines shed stale frames rather
            // than queue without bound): it counts as missed, occupies no
            // service time, and is not predicted at all.
            if plan.serial && wait > self.specs[app].slo {
                self.metrics.finish.record(t, 0.0, n as f64);
                self.metrics.total_requests += n as u64;
                continue;
            }

            // The job's feature shape for the latency predictor,
            // identical at admission-predict and post-completion observe
            // time (modulo the request count, which admission may cut):
            // the structure-cut signal enters as the cut's per-sample
            // compute cost, and the profiled *fault-free* per-batch
            // estimate rides along as the calibration-regression
            // baseline. Deliberately unstalled: a device-stall window is
            // the unobservable regime change the predictor must track
            // through its observations, not read off the fault state.
            let structure_flops = cost.flops_per_sample;
            let analytic_pb_us = if use_pred {
                if plan.cpu {
                    self.profiler
                        .latency
                        .cpu_inference(&cost, plan.batch)
                        .as_micros() as f64
                } else {
                    self.profiler
                        .latency
                        .per_batch_inference(&cost, plan.batch, plan.gpu)
                        .mul_f64(inflation)
                        .as_micros() as f64
                }
            } else {
                0.0
            };

            // SLO-aware admission control: under an active fault window,
            // shed up front the requests whose batches cannot finish
            // inside the SLO, so doomed work stops consuming service
            // time — the overload extension of the frame shedding above.
            // Shed requests count as missed but are still arrivals.
            let mut n_served = n;
            if imp.impaired && degrade.admission_control {
                let n_batches = n.div_ceil(plan.batch.max(1));
                let analytic_per_batch = SimDuration::from_micros(
                    inference.as_micros() / n_batches.max(1) as u64,
                );
                let analytic_fixed = wait + retrain_time + reload_comm;
                // Predicted-latency admission: once the app's online
                // model is warm its forecast replaces the analytic
                // inputs; below warmup (or with the predictor off) the
                // analytic path runs bit-exactly.
                let forecast = self.predictor.as_ref().and_then(|p| {
                    let feats = LatencyFeatures::new(
                        n,
                        plan.batch,
                        plan.gpu,
                        structure_flops,
                        taken_total,
                        wait.as_micros() as f64,
                        analytic_pb_us,
                    );
                    p.predict(app, &feats)
                });
                let (per_batch, fixed) = match forecast {
                    Some(p) => (
                        SimDuration::from_micros(p.per_batch_us.round() as u64),
                        SimDuration::from_micros(p.fixed_us.round() as u64),
                    ),
                    None => (analytic_per_batch, analytic_fixed),
                };
                let adm =
                    admit_within_slo(n, plan.batch, per_batch, fixed, slo);
                if adm.shed > 0 {
                    self.metrics.shed_requests += adm.shed as u64;
                    self.metrics.finish.record(t, 0.0, adm.shed as f64);
                    n_served = adm.admitted;
                    if n_served == 0 {
                        self.metrics.total_requests += n as u64;
                        continue;
                    }
                    // Re-cost the inference for the admitted prefix.
                    inference = inference_for(n_served);
                }
            }

            let job_latency = wait + retrain_time + reload_comm + inference;
            if plan.serial {
                self.serial_free_at[app] = t + job_latency;
            }

            // Per-batch SLO accounting (batches complete sequentially).
            let n_batches = n_served.div_ceil(plan.batch.max(1));
            let per_batch = SimDuration::from_micros(
                inference.as_micros() / n_batches.max(1) as u64,
            );
            let mut hits = 0u32;
            for i in 0..n_batches {
                let done = wait
                    + retrain_time
                    + reload_comm
                    + per_batch * (i as u64 + 1);
                if done <= slo {
                    let size = if i + 1 == n_batches
                        && !n_served.is_multiple_of(plan.batch)
                    {
                        n_served % plan.batch
                    } else {
                        plan.batch.min(n_served)
                    };
                    hits += size;
                }
            }
            self.metrics.finish.record(t, hits as f64, n_served as f64);
            self.metrics
                .inference_latency
                .add(inference.as_millis_f64());
            self.metrics.per_app_latency[app].add(job_latency.as_millis_f64());

            // Predictor calibration + online update: forecast the job's
            // observed shape *before* folding its outcome in (honest
            // out-of-sample error), then stream the observation so every
            // completed job trains the model.
            if let Some(predictor) = self.predictor.as_mut() {
                let feats = LatencyFeatures::new(
                    n_served,
                    plan.batch,
                    plan.gpu,
                    structure_flops,
                    taken_total,
                    wait.as_micros() as f64,
                    analytic_pb_us,
                );
                let actual_fixed_us =
                    (wait + retrain_time + reload_comm).as_micros() as f64;
                let actual_per_batch_us = per_batch.as_micros() as f64;
                let actual_total_us =
                    actual_fixed_us + actual_per_batch_us * n_batches as f64;
                if let Some(p) = predictor.predict(app, &feats) {
                    let err = (p.total_us(n_batches) - actual_total_us).abs();
                    self.metrics.pred_abs_err_us.add(err);
                    // Quartile buckets hold the *relative* error of the
                    // per-batch service-time forecast: it is present in
                    // every job and scale-free, so it isolates model
                    // convergence — the total error also carries the
                    // per-job retraining mix, irreducible noise that
                    // only appears once drift brings retraining load.
                    let pb_err = (p.per_batch_us - actual_per_batch_us).abs();
                    self.metrics.pred_rel_err_quartiles[quartile]
                        .add(pb_err / actual_per_batch_us.max(1.0));
                    let slo_us = slo.as_micros() as f64;
                    if p.headroom_us(slo_us, n_batches) >= 0.0 {
                        self.metrics.headroom_predicted_fit += 1;
                        if actual_total_us > slo_us {
                            self.metrics.headroom_violations += 1;
                        }
                    }
                }
                predictor.observe(app, &feats, actual_per_batch_us, actual_fixed_us);
            }

            // Accuracy: leaf-node predictions against golden labels,
            // weighted by the requests actually served (shed requests
            // produced no predictions).
            let leaves = self.specs[app].leaves();
            let mut acc_sum = 0.0;
            for &leaf in &leaves {
                let acc = self.apps[app].accuracy(leaf, plan.cuts[leaf]);
                acc_sum += acc;
                self.metrics.per_node_accuracy[app][leaf].record(
                    t,
                    acc * n_served as f64,
                    n_served as f64,
                );
            }
            // Non-leaf nodes tracked too (Fig 5 includes the detector).
            for node in 0..self.specs[app].nodes.len() {
                if !leaves.contains(&node) {
                    let acc = self.apps[app].accuracy(node, plan.cuts[node]);
                    self.metrics.per_node_accuracy[app][node].record(
                        t,
                        acc * n_served as f64,
                        n_served as f64,
                    );
                }
            }
            let acc = acc_sum / leaves.len().max(1) as f64;
            self.metrics
                .accuracy
                .record(t, acc * n_served as f64, n_served as f64);
            self.metrics
                .accuracy_fine
                .record(t, acc * n_served as f64, n_served as f64);
            self.metrics.per_app_accuracy[app].record(
                t,
                acc * n_served as f64,
                n_served as f64,
            );

            // Updated-model share (Fig 4b): among the nodes scheduled for
            // retraining this period, how many of this job's models are
            // already refreshed?
            let scheduled: Vec<usize> = (0..self.specs[app].nodes.len())
                .filter(|&nd| self.scheduled_retrain[app][nd])
                .collect();
            let frac = if scheduled.is_empty() {
                1.0
            } else {
                scheduled
                    .iter()
                    .filter(|&&nd| self.updated_this_period[app][nd])
                    .count() as f64
                    / scheduled.len() as f64
            };
            self.metrics
                .updated_model
                .record(t, frac * n_served as f64, n_served as f64);

            // Capacity + utilization + job-time EWMA. Serial jobs occupy
            // the GPU only during their service window, not while queued;
            // CPU-offloaded jobs hold no GPU at all.
            let service = retrain_time + reload_comm + inference;
            if !plan.cpu {
                self.server.record_busy(t + wait, service, plan.gpu);
                self.reserve(plan.gpu, t + job_latency);
            }
            self.avg_job_time = SimDuration::from_micros(
                (self.avg_job_time.as_micros() as f64 * 0.95
                    + service.as_micros() as f64 * 0.05) as u64,
            );
            self.metrics.total_requests += n as u64;
        }

        // Arrivals for apps the scheduler did not plan: SLO misses.
        for a in 0..n_apps {
            if !served[a] && actual[a] > 0 {
                self.metrics.finish.record(t, 0.0, actual[a] as f64);
            }
            // Prediction EWMA update.
            self.predicted_ewma[a] =
                self.predicted_ewma[a] * 0.7 + actual[a] as f64 * 0.3;
        }

        self.scratch = scratch;
    }

    /// Stages a retraining slice; fires an SGD step once a full batch of
    /// samples has accumulated for the (app, node).
    fn stage_train(
        &mut self,
        app: usize,
        node: usize,
        batch: LabeledSamples,
        epochs: usize,
    ) {
        if batch.is_empty() {
            return;
        }
        self.stage[app][node].push(batch);
        let total: usize = self.stage[app][node].iter().map(|b| b.len()).sum();
        if total >= STAGE_THRESHOLD {
            self.flush_stage(app, node, epochs);
        }
    }

    /// The RNG-ordered half of a staged flush: assembles the training
    /// set for (app, node) — rehearsal draw from the replay reservoir,
    /// shuffle, reservoir fold-in — and returns it, WITHOUT training.
    /// All harness-RNG consumption of a flush happens here, in the
    /// exact order of the original fused routine (the hoisted
    /// `train_slice` consumed no RNG), so boundary flushes can prepare
    /// every (app, node) sequentially and fan the pure SGD work out in
    /// parallel, bit-identically.
    fn prepare_flush(&mut self, app: usize, node: usize) -> Option<LabeledSamples> {
        if self.stage[app][node].is_empty() {
            return None;
        }
        let parts = std::mem::take(&mut self.stage[app][node]);
        let refs: Vec<&LabeledSamples> = parts.iter().collect();
        let fresh = LabeledSamples::concat(&refs);
        let reservoir = &self.replay[app][node];
        let mix = if reservoir.is_empty() {
            fresh.clone()
        } else {
            let draw: Vec<usize> = (0..(fresh.len() / 2).min(reservoir.len()))
                .map(|_| self.rng.index(reservoir.len()))
                .collect();
            LabeledSamples::concat(&[&fresh, &reservoir.select(&draw)])
        };
        let mut order: Vec<usize> = (0..mix.len()).collect();
        self.rng.shuffle(&mut order);
        let shuffled = mix.select(&order);
        // Reservoir update: append, then down-sample to the cap.
        let mut merged = LabeledSamples::concat(&[&self.replay[app][node], &fresh]);
        if merged.len() > REPLAY_CAP {
            let mut keep: Vec<usize> = (0..merged.len()).collect();
            self.rng.shuffle(&mut keep);
            keep.truncate(REPLAY_CAP);
            merged = merged.select(&keep);
        }
        self.replay[app][node] = merged;
        Some(shuffled)
    }

    /// Applies any staged samples of (app, node) as one SGD slice,
    /// rehearsing an equal-sized draw from the replay reservoir and
    /// shuffling, then folds the new samples into the reservoir.
    fn flush_stage(&mut self, app: usize, node: usize, epochs: usize) {
        if let Some(shuffled) = self.prepare_flush(app, node) {
            let w = WallTimer::start();
            self.apps[app].models[node].train_slice(&shuffled, epochs.max(1));
            self.train_wall_ns += w.elapsed_nanos();
        }
    }

    fn finalize(&mut self) {
        let (hits, misses, evictions) = self.scheduler.cache_stats();
        self.metrics.cache_hits = hits;
        self.metrics.cache_misses = misses;
        self.metrics.cache_evictions = evictions;
        self.metrics.serve_ns = self.serve_wall_ns as u64;
        self.metrics.train_ns = self.train_wall_ns as u64;
        // The run's resolved pool width: the widest fan-out of either
        // the scheduler's drift stage or the harness's boundary
        // training stage; `None` when neither ever fanned out, so the
        // bench omits the column for pool-less rows.
        self.metrics.worker_threads = (self.pool_width > 0).then_some(self.pool_width);
        if let Some(chaos) = &self.chaos {
            self.metrics.storm_evictions = chaos.mem.stats().pressure_evictions;
        }
        let alloc = self.server.utilization_per_second();
        // nvidia-smi-style utilization: a GPU counts as utilized in any
        // second in which kernels were resident — with hundreds of
        // MPS-multiplexed jobs per second this is ~100 % whenever there
        // is any load at all (Fig 21).
        self.metrics.utilization = alloc
            .iter()
            .map(|&a| if a > 0.005 { 1.0 } else { 0.0 })
            .collect();
        self.metrics.allocation = alloc;
    }
}

/// Convenience: run one configuration to completion.
pub fn run(config: RunConfig) -> RunMetrics {
    Simulation::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(method: Method) -> RunConfig {
        RunConfig {
            seed: 9,
            duration: SimDuration::from_secs(100),
            num_gpus: 4,
            num_apps: 2,
            base_rate: 4000.0,
            pool_size: 400,
            method,
            comm: None,
            device_factors: Arc::from([]),
            chaos: None,
            train_workers: 0,
        }
    }

    #[test]
    fn adainf_run_produces_metrics() {
        let m = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert_eq!(m.name, "AdaInf");
        assert!(m.total_requests > 10_000, "requests {}", m.total_requests);
        assert!(m.mean_accuracy() > 0.5, "accuracy {}", m.mean_accuracy());
        assert!(
            m.mean_finish_rate() > 0.5,
            "finish {}",
            m.mean_finish_rate()
        );
        assert_eq!(m.accuracy.len(), 2, "two periods in 100 s");
        assert!(!m.utilization.is_empty());
    }

    #[test]
    fn ekya_run_produces_metrics() {
        let m = run(tiny(Method::Ekya));
        assert_eq!(m.name, "Ekya");
        assert!(m.total_requests > 10_000);
        assert!(m.mean_accuracy() > 0.4);
        // Ekya spends edge GPU time retraining.
        let retrain: f64 = m.retrain_gpu_seconds.iter().sum();
        assert!(retrain > 1.0, "retrain gpu-s {retrain}");
        assert_eq!(m.edge_cloud_bytes, 0);
    }

    #[test]
    fn scrooge_ships_data_to_cloud() {
        let m = run(tiny(Method::Scrooge));
        assert!(m.edge_cloud_bytes > 1_000_000_000, "{}", m.edge_cloud_bytes);
        // No edge retraining time from jobs.
        let retrain: f64 = m.retrain_gpu_seconds.iter().sum();
        assert_eq!(retrain, 0.0);
    }

    #[test]
    fn harness_times_every_boundary_and_collects_drift_reports() {
        for method in [
            Method::AdaInf(AdaInfConfig::default()),
            Method::Ekya,
            Method::Scrooge,
        ] {
            let drift_stage = matches!(method, Method::AdaInf(_));
            let mut cfg = tiny(method);
            // Crosses the boundaries at 0 s and 50 s.
            cfg.duration = SimDuration::from_secs(60);
            let m = run(cfg);
            assert_eq!(m.period_overhead.count(), 2, "{}: timed boundaries", m.name);
            let reports = if drift_stage { 2 } else { 0 };
            assert_eq!(
                m.drift_detect_period_us.len(),
                reports,
                "{}: drift reports",
                m.name
            );
            assert_eq!(m.drift_builds > 0, drift_stage, "{}: drift builds", m.name);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        let b = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert_eq!(a.total_requests, b.total_requests);
        assert!((a.mean_accuracy() - b.mean_accuracy()).abs() < 1e-12);
        assert!((a.mean_finish_rate() - b.mean_finish_rate()).abs() < 1e-12);
    }

    #[test]
    fn shed_frames_miss_without_consuming_service_time() {
        // Ekya plans are serial: jam every app's queue far into the
        // future so every frame's queueing delay alone exceeds its SLO,
        // and the whole session must shed.
        let mut sim = Simulation::new(tiny(Method::Ekya));
        sim.on_period_boundary(SimTime::ZERO);
        let jammed = SimTime::from_secs(3600);
        for f in sim.serial_free_at.iter_mut() {
            *f = jammed;
        }
        sim.step_session(SimTime::from_millis(5));
        // Shed frames count as missed arrivals...
        assert!(sim.metrics.total_requests > 0);
        assert_eq!(sim.metrics.finish.mean_ratio(), 0.0);
        // ...but occupy no service time: no inference ran and the queue
        // tail did not move.
        assert_eq!(sim.metrics.inference_latency.count(), 0);
        assert!(sim.serial_free_at.iter().all(|&f| f == jammed));
    }

    #[test]
    fn empty_fault_spec_builds_no_chaos_runtime() {
        let mut cfg = tiny(Method::AdaInf(AdaInfConfig::default()));
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::none(7)));
        let sim = Simulation::new(cfg);
        assert!(sim.chaos.is_none());
    }

    #[test]
    fn chaos_run_degrades_gracefully_under_full_chaos() {
        let mut cfg = tiny(Method::AdaInf(AdaInfConfig::default()));
        cfg.duration = SimDuration::from_secs(50);
        cfg.chaos = Some(ChaosConfig::scenario(FaultSpec::chaos(7)));
        let m = run(cfg);
        // Faults were seen and the run still served most traffic.
        assert!(m.fault_sessions > 0);
        assert!(m.total_requests > 0);
        assert!(m.mean_finish_rate() > 0.2, "finish {}", m.mean_finish_rate());
    }

    #[test]
    fn adainf_consumes_pool_samples() {
        let m = run(tiny(Method::AdaInf(AdaInfConfig::default())));
        assert!(
            !m.samples_used.is_empty() && m.samples_used.iter().any(|&f| f > 0.05),
            "samples used {:?}",
            m.samples_used
        );
    }
}
