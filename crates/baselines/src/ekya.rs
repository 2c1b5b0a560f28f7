//! Ekya \[3\] — period-level joint retraining/inference scheduling.
//!
//! Ekya splits the edge server's GPUs evenly among applications and, at
//! each 50 s period boundary, runs a resource-moving heuristic: starting
//! from an even split of the application's share between its (bulk)
//! retraining and its inference serving, it keeps moving a resource
//! quantum toward whichever side improves the *estimated average
//! accuracy of the period*, and stops when no move helps. The chosen
//! split produces one bulk retraining task per model, which runs from
//! the period start and makes the retrained model available only at its
//! completion (~20 s in, Fig 7b) — inference requests before that point
//! use the stale model (Obs. 1: only 53–60 % of requests see the updated
//! model).
//!
//! Ekya is *not* SLO-aware: inference jobs get whatever share remains,
//! with no batch-size optimisation (requests of a session run as one
//! batch), full structures, per-request execution and LRU eviction.

use adainf_apps::{AppRuntime, AppSpec};
use adainf_core::plan::{
    AppPeriodPlan, BulkRetrain, JobPlan, PeriodPlan, Scheduler, SessionCtx,
};
use adainf_core::profiler::Profiler;
use adainf_gpusim::{EvictionPolicyKind, ExecMode, GpuSpec};
use adainf_simcore::time::{PERIOD, SESSION};
use adainf_simcore::{SimDuration, SimTime};
use std::sync::Arc;

/// Resource quantum the heuristic moves per step (fraction of the
/// application's share).
const MOVE_QUANTUM: f64 = 0.05;

/// Retraining batch size Ekya uses for its bulk retraining.
const RETRAIN_BATCH: u32 = 32;

/// Epochs of Ekya's bulk retraining (continual-learning configs retrain
/// for many passes; the GPU time is charged accordingly).
const RETRAIN_EPOCHS: u32 = 4;

/// Fraction of the period Ekya budgets for its retraining window: its
/// configuration selection (number of iterations / samples) targets
/// completion well before the period ends, trading retraining volume for
/// timeliness \[3\].
const WINDOW_FRACTION: f64 = 0.6;

/// The Ekya scheduler.
pub struct EkyaScheduler {
    profiler: Arc<Profiler>,
    specs: Arc<[AppSpec]>,
    /// Fraction of each app's share currently granted to retraining.
    retrain_split: Vec<f64>,
    /// When each app's bulk retraining finishes (edge GPUs freed and
    /// model refreshed).
    retrain_end: Vec<SimTime>,
}

impl EkyaScheduler {
    /// Creates the scheduler for a fixed application set. `profiler` and
    /// `specs` accept owned values or pre-shared `Arc`s.
    pub fn new(profiler: impl Into<Arc<Profiler>>, specs: impl Into<Arc<[AppSpec]>>) -> Self {
        let specs = specs.into();
        let n = specs.len();
        EkyaScheduler {
            profiler: profiler.into(),
            specs,
            retrain_split: vec![0.5; n],
            retrain_end: vec![SimTime::ZERO; n],
        }
    }

    /// The retraining configuration for one split ρ: per model, the
    /// number of pool samples that fit the retraining window at the
    /// per-model fraction, and the resulting completion time.
    fn retrain_config(
        &self,
        app: &AppSpec,
        rho: f64,
        share: f64,
        pools: &[usize],
    ) -> (Vec<u32>, SimDuration) {
        let per_model = (rho * share / app.nodes.len() as f64).clamp(1e-3, 1.0);
        let window = PERIOD.mul_f64(WINDOW_FRACTION);
        let mut caps = Vec::with_capacity(app.nodes.len());
        let mut end = SimDuration::ZERO;
        for (i, n) in app.nodes.iter().enumerate() {
            let cost = n.profile.full_cost();
            // Ekya's micro-profiling also tunes the training batch size.
            let batch = self.profiler.best_train_batch(&cost, per_model).max(RETRAIN_BATCH.min(8));
            // Samples whose RETRAIN_EPOCHS-epoch training fits the window.
            let fit = self.profiler.samples_within(
                &cost,
                batch,
                per_model,
                window.mul_f64(1.0 / RETRAIN_EPOCHS as f64),
            );
            let cap = fit.min(pools.get(i).copied().unwrap_or(0) as u32);
            let dur = self.profiler.training_latency(
                &cost,
                cap,
                batch,
                RETRAIN_EPOCHS,
                per_model,
            );
            end = end.max(dur);
            caps.push(cap);
        }
        (caps, end)
    }

    /// Estimated average accuracy of the period for a given retraining
    /// split: models serve stale accuracy until retraining completes,
    /// then a recovery proportional to the fraction of the pool the
    /// window accommodated. The estimate is discounted by the fraction
    /// of the request stream the remaining inference share can actually
    /// process (a frame the pipeline cannot keep up with contributes no
    /// correct prediction), which keeps the resource mover from starving
    /// inference outright.
    fn estimate_avg_accuracy(
        &self,
        app: &AppSpec,
        rho: f64,
        share: f64,
        pools: &[usize],
        stale: &[f64],
        fresh: &[f64],
    ) -> f64 {
        let inference_share = (share * (1.0 - rho)).max(1e-3);
        // Nominal session: ~32 requests every 5 ms at the fixed batch.
        let service = self
            .profiler
            .inference_latency(
                &app.full_structure_cost(),
                32,
                8,
                inference_share.min(1.0),
                adainf_gpusim::ExecMode::PerRequest,
                adainf_gpusim::EvictionPolicyKind::Lru,
            )
            .as_millis_f64();
        // Square-root discount: a mildly backlogged pipeline still
        // produces (late but counted) predictions.
        let throughput = (SESSION.as_millis_f64() / service.max(1e-6)).min(1.0).sqrt();
        if rho <= 0.0 {
            return throughput * stale.iter().sum::<f64>() / stale.len() as f64;
        }
        let (caps, dur) = self.retrain_config(app, rho, share, pools);
        let frac_stale = (dur.as_secs_f64() / PERIOD.as_secs_f64()).min(1.0);
        let mut acc = 0.0;
        for (i, (s, f)) in stale.iter().zip(fresh).enumerate() {
            let pool = pools.get(i).copied().unwrap_or(0) as f64;
            let trained = if pool > 0.0 {
                caps[i] as f64 / pool
            } else {
                0.0
            };
            let recovered = s + (f - s).max(0.0) * trained.min(1.0);
            acc += s * frac_stale + recovered * (1.0 - frac_stale);
        }
        throughput * acc / stale.len() as f64
    }
}

impl Scheduler for EkyaScheduler {
    fn name(&self) -> String {
        "Ekya".to_string()
    }

    fn on_period_start(
        &mut self,
        apps: &mut [AppRuntime],
        server: &GpuSpec,
        now: SimTime,
    ) -> PeriodPlan {
        let share = server.total_space() / apps.len() as f64;
        let mut bulk = Vec::new();

        for (a, rt) in apps.iter_mut().enumerate() {
            let spec = self.specs[a].clone();
            let pools: Vec<usize> = rt.pools.iter().map(|p| p.remaining()).collect();
            let stale: Vec<f64> = (0..spec.nodes.len())
                .map(|n| rt.accuracy(n, spec.nodes[n].profile.full_cut()))
                .collect();
            let fresh: Vec<f64> = (0..spec.nodes.len())
                .map(|n| rt.initial_accuracy(n))
                .collect();

            // Resource-moving heuristic: hill-climb ρ by MOVE_QUANTUM
            // within [0, 0.7] (inference must keep serving).
            let mut rho = self.retrain_split[a];
            loop {
                let here =
                    self.estimate_avg_accuracy(&spec, rho, share, &pools, &stale, &fresh);
                let up = (rho + MOVE_QUANTUM).min(0.55);
                let down = (rho - MOVE_QUANTUM).max(0.0);
                let up_acc =
                    self.estimate_avg_accuracy(&spec, up, share, &pools, &stale, &fresh);
                let down_acc =
                    self.estimate_avg_accuracy(&spec, down, share, &pools, &stale, &fresh);
                if up_acc > here && up_acc >= down_acc && up > rho {
                    rho = up;
                } else if down_acc > here && down < rho {
                    rho = down;
                } else {
                    break;
                }
            }
            self.retrain_split[a] = rho;

            let (caps, dur) = self.retrain_config(&spec, rho, share, &pools);
            let end = now + dur;
            self.retrain_end[a] = end;
            if rho > 0.0 {
                let per_model = rho * share / spec.nodes.len() as f64;
                for (node, &cap) in caps.iter().enumerate() {
                    if cap == 0 {
                        continue;
                    }
                    bulk.push(BulkRetrain {
                        app: a,
                        node,
                        gpu: per_model,
                        available_at: end,
                        busy_until: end,
                        sample_cap: cap,
                    });
                }
            }
        }

        PeriodPlan {
            apps: vec![AppPeriodPlan::default(); apps.len()],
            bulk,
            edge_cloud_bytes: 0,
            drift: None,
        }
    }

    fn on_session(&mut self, ctx: &SessionCtx<'_>) -> Vec<JobPlan> {
        let share = ctx.server.total_space() / self.specs.len() as f64;
        ctx.predicted
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(app, &n)| {
                // During the retraining window, inference only gets the
                // non-retraining remainder of the app's share. Jobs run
                // serially on that continuous share (Ekya serves a
                // request queue per application).
                let inference_share = if ctx.now < self.retrain_end[app] {
                    share * (1.0 - self.retrain_split[app])
                } else {
                    share
                };
                let gpu = inference_share.clamp(1e-3, 1.0);
                // The serving stack batches sensibly for the share it
                // got; Ekya's deficiency is accuracy-driven allocation,
                // not the batching itself.
                let (batch, _) = self.profiler.optimal_batch_at(
                    &self.specs[app].full_structure_cost(),
                    n,
                    gpu,
                );
                JobPlan {
                    app,
                    gpu,
                    batch,
                    cuts: self.specs[app].full_cuts(),
                    retrain: Vec::new(),
                    exec: ExecMode::PerRequest,
                    eviction: EvictionPolicyKind::Lru,
                    serial: true,
                    cpu: false,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_apps::catalog;
    use adainf_driftgen::workload::ArrivalConfig;
    use adainf_simcore::Prng;

    fn setup() -> (EkyaScheduler, Vec<AppRuntime>, GpuSpec) {
        let root = Prng::new(11);
        let specs = catalog::apps_for_count(2);
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| AppRuntime::new(s, ArrivalConfig::default(), 500, &root))
            .collect();
        (
            EkyaScheduler::new(Profiler::default(), specs),
            apps,
            GpuSpec::with_gpus(4),
        )
    }

    #[test]
    fn bulk_retraining_covers_every_model() {
        let (mut sched, mut apps, server) = setup();
        for rt in &mut apps {
            rt.advance_period();
        }
        let plan = sched.on_period_start(&mut apps, &server, SimTime::from_secs(50));
        let models: usize = apps.iter().map(|a| a.spec.nodes.len()).sum();
        assert_eq!(plan.bulk.len(), models, "Ekya retrains all models");
        for b in &plan.bulk {
            assert!(b.gpu > 0.0);
            assert!(b.available_at > SimTime::from_secs(50));
            assert_eq!(b.available_at, b.busy_until);
        }
    }

    #[test]
    fn retraining_completes_mid_period() {
        // The bulk retraining should finish inside the period but take a
        // macroscopic chunk of it (~20 s in the paper).
        let (mut sched, mut apps, server) = setup();
        for rt in &mut apps {
            rt.advance_period();
        }
        let plan = sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let end = plan.bulk.iter().map(|b| b.available_at).max().unwrap();
        let secs = end.as_secs_f64();
        assert!(
            secs > 1.0 && secs < 50.0,
            "retraining window {secs}s out of range"
        );
    }

    #[test]
    fn inference_share_shrinks_during_retraining() {
        let (mut sched, mut apps, server) = setup();
        for rt in &mut apps {
            rt.advance_period();
        }
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![16u32, 16];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let mut ctx = SessionCtx {
            now: SimTime::from_secs(1),
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(100),
            pool_remaining: &pools,
        };
        let during: f64 = sched.on_session(&ctx).iter().map(|p| p.gpu).sum();
        ctx.now = SimTime::from_secs(49);
        let after: f64 = sched.on_session(&ctx).iter().map(|p| p.gpu).sum();
        assert!(
            after > during,
            "inference share should grow after retraining: {during} -> {after}"
        );
    }

    #[test]
    fn plans_use_baseline_memory_strategies() {
        let (mut sched, mut apps, server) = setup();
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![40u32, 0];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now: SimTime::from_secs(1),
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(100),
            pool_remaining: &pools,
        };
        let plans = sched.on_session(&ctx);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].exec, ExecMode::PerRequest);
        assert_eq!(plans[0].eviction, EvictionPolicyKind::Lru);
        assert!(plans[0].batch >= 1, "serving batch chosen");
        assert!(plans[0].retrain.is_empty(), "no incremental slices");
    }
}
