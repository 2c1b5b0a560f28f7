//! Scrooge \[10\] — SLO-aware inference serving with cloud retraining.
//!
//! Per scheduling round, Scrooge solves an optimisation that assigns each
//! application the *cheapest* GPU amount and batch size that satisfies
//! its latency SLO (we implement the equivalent greedy minimiser over the
//! profiled batch candidates — the paper's solver takes ~100 ms, Table 1).
//! Following the modification in §4, the allocation is capped by the edge
//! server's GPU amount; the `Scrooge*` variant instead scales every
//! application to its proportional share `G_i / Σ G_j`.
//!
//! Retraining happens in the cloud every period: the edge ships the
//! retraining samples up and receives updated models back — 85.7 GB and
//! 34.1 s per period over the ~20 Gb/s link (Table 1) — so inference
//! only benefits from retrained models for the tail of each period.

use adainf_apps::{AppRuntime, AppSpec};
use adainf_core::plan::{
    AppPeriodPlan, BulkRetrain, JobPlan, PeriodPlan, Scheduler, SessionCtx,
};
use adainf_core::profiler::Profiler;
use adainf_gpusim::latency::BATCH_CANDIDATES;
use adainf_gpusim::{EvictionPolicyKind, ExecMode, GpuSpec};
use adainf_simcore::time::SESSION;
use adainf_simcore::{SimDuration, SimTime};
use std::sync::Arc;

/// Bytes shipped per retraining sample (a video frame plus metadata) —
/// calibrated so the default 8-application deployment transfers ≈ 85.7 GB
/// per period, matching Table 1.
pub const SAMPLE_BYTES: u64 = 680_000;

/// Bytes of an updated (compressed) model shipped back from the cloud.
pub const MODEL_BYTES: u64 = 8_000_000;

/// Edge–cloud bandwidth ("around 20 Gbps", §4), bytes/s.
pub const EDGE_CLOUD_BANDWIDTH: f64 = 2.5e9;

/// Cloud-side retraining time per period (the p3.16xlarge retrains all
/// the applications' models on the shipped pools before the results ship
/// back).
pub const CLOUD_TRAIN: SimDuration = SimDuration::from_secs(13);

/// The Scrooge scheduler (and its `Scrooge*` variant).
pub struct ScroogeScheduler {
    profiler: Arc<Profiler>,
    specs: Arc<[AppSpec]>,
    /// Proportional-share variant flag.
    star: bool,
}

impl ScroogeScheduler {
    /// Creates Scrooge. `profiler` and `specs` accept owned values or
    /// pre-shared `Arc`s.
    pub fn new(profiler: impl Into<Arc<Profiler>>, specs: impl Into<Arc<[AppSpec]>>) -> Self {
        ScroogeScheduler {
            profiler: profiler.into(),
            specs: specs.into(),
            star: false,
        }
    }

    /// Creates the Scrooge* variant (proportional capacity division).
    pub fn new_star(profiler: impl Into<Arc<Profiler>>, specs: impl Into<Arc<[AppSpec]>>) -> Self {
        ScroogeScheduler {
            profiler: profiler.into(),
            specs: specs.into(),
            star: true,
        }
    }

    /// The cheapest `(gpu, batch)` meeting the app's SLO for `n` requests,
    /// from the profiled batch candidates and the regression scaler.
    fn cheapest_config(&self, app: &AppSpec, n: u32) -> (f64, u32) {
        let cost = app.full_structure_cost();
        let slo_ms = app.slo.as_millis_f64();
        let mut best: Option<(f64, u32)> = None;
        for &b in &BATCH_CANDIDATES {
            let full = self.profiler.worst_case_full(&cost, n, b).as_millis_f64();
            let g = self.profiler.scaler.required_fraction(full, slo_ms);
            if best.is_none_or(|(bg, _)| g < bg) {
                best = Some((g, b));
            }
        }
        // simlint: allow(no-unwrap-in-lib) — BATCH_CANDIDATES is a non-empty const, so the loop always sets `best`
        best.expect("candidates non-empty")
    }
}

impl Scheduler for ScroogeScheduler {
    fn name(&self) -> String {
        if self.star {
            "Scrooge*".to_string()
        } else {
            "Scrooge".to_string()
        }
    }

    fn on_period_start(
        &mut self,
        apps: &mut [AppRuntime],
        _server: &GpuSpec,
        now: SimTime,
    ) -> PeriodPlan {
        // Ship every pool to the cloud; updated models come back after
        // upload + cloud training + download.
        let mut bytes_up = 0u64;
        let mut models = 0u64;
        for rt in apps.iter() {
            for pool in &rt.pools {
                bytes_up += pool.total() as u64 * SAMPLE_BYTES;
                models += 1;
            }
        }
        let total_bytes = bytes_up + models * MODEL_BYTES;
        let transfer =
            SimDuration::from_millis_f64(total_bytes as f64 / EDGE_CLOUD_BANDWIDTH * 1e3);
        let available = now + transfer + CLOUD_TRAIN;

        let mut bulk = Vec::new();
        for (a, rt) in apps.iter().enumerate() {
            for node in 0..rt.spec.nodes.len() {
                bulk.push(BulkRetrain {
                    app: a,
                    node,
                    gpu: 0.0, // cloud GPUs, not edge GPUs
                    available_at: available,
                    busy_until: now,
                    sample_cap: 0,
                });
            }
        }

        PeriodPlan {
            apps: vec![AppPeriodPlan::default(); apps.len()],
            bulk,
            edge_cloud_bytes: total_bytes,
            drift: None,
        }
    }

    fn on_session(&mut self, ctx: &SessionCtx<'_>) -> Vec<JobPlan> {
        let s = (ctx.avg_job_time.as_millis_f64() / SESSION.as_millis_f64()).max(1.0);
        let session_pool = ctx.server.total_space() / s;

        let wanted: Vec<(usize, f64, u32)> = ctx
            .predicted
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(app, &n)| {
                let (g, b) = self.cheapest_config(&self.specs[app], n);
                (app, g, b)
            })
            .collect();
        let total: f64 = wanted.iter().map(|(_, g, _)| g).sum();

        wanted
            .into_iter()
            .map(|(app, g, b)| {
                let gpu = if self.star || total > session_pool {
                    // Proportional share of the session pool (the §4
                    // capacity constraint / the Scrooge* division).
                    (session_pool * g / total.max(1e-9)).clamp(1e-3, 1.0)
                } else {
                    g.clamp(1e-3, 1.0)
                };
                // Re-pick the batch at the final allocation.
                let (batch, _) = self.profiler.optimal_batch_at(
                    &self.specs[app].full_structure_cost(),
                    ctx.predicted[app],
                    gpu,
                );
                JobPlan {
                    app,
                    gpu,
                    batch: batch.max(b.min(2)),
                    cuts: self.specs[app].full_cuts(),
                    retrain: Vec::new(),
                    exec: ExecMode::PerRequest,
                    eviction: EvictionPolicyKind::Lru,
                    serial: false,
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

    fn setup(n: usize) -> (ScroogeScheduler, Vec<AppRuntime>, GpuSpec) {
        let root = Prng::new(17);
        let specs = catalog::apps_for_count(n);
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| AppRuntime::new(s, ArrivalConfig::default(), 6000, &root))
            .collect();
        (
            ScroogeScheduler::new(Profiler::default(), specs),
            apps,
            GpuSpec::with_gpus(4),
        )
    }

    #[test]
    fn cloud_retraining_takes_tens_of_seconds() {
        let (mut sched, mut apps, server) = setup(8);
        let plan = sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let avail = plan.bulk[0].available_at.as_secs_f64();
        // Transfer ≈ 34 s + 3 s cloud training.
        assert!(
            (25.0..50.0).contains(&avail),
            "cloud round-trip {avail}s out of range"
        );
        // No edge GPU is occupied.
        assert!(plan.bulk.iter().all(|b| b.gpu == 0.0));
    }

    #[test]
    fn transferred_bytes_match_table1_scale() {
        let (mut sched, mut apps, server) = setup(8);
        let plan = sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let gb = plan.edge_cloud_bytes as f64 / 1e9;
        assert!(
            (60.0..110.0).contains(&gb),
            "edge-cloud transfer {gb} GB out of the Table 1 ballpark"
        );
    }

    #[test]
    fn allocations_meet_slo_cheaply() {
        let (mut sched, mut apps, server) = setup(2);
        sched.on_period_start(&mut apps, &server, SimTime::ZERO);
        let predicted = vec![32u32, 32];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now: SimTime::from_secs(1),
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(60),
            pool_remaining: &pools,
        };
        let plans = sched.on_session(&ctx);
        assert_eq!(plans.len(), 2);
        for p in &plans {
            assert!(p.gpu > 0.0 && p.gpu <= 1.0);
            assert!(p.retrain.is_empty(), "retraining is in the cloud");
            // The allocation should satisfy the SLO per the profiler's
            // own estimate.
            let est = sched.profiler.inference_latency(
                &sched.specs[p.app].full_structure_cost(),
                predicted[p.app],
                p.batch,
                p.gpu,
                p.exec,
                p.eviction,
            );
            assert!(
                est <= sched.specs[p.app].slo.mul_f64(1.6),
                "estimate {est:?} far above SLO"
            );
        }
    }

    #[test]
    fn star_variant_divides_proportionally() {
        let root = Prng::new(17);
        let specs = catalog::apps_for_count(2);
        let apps: Vec<AppRuntime> = specs
            .iter()
            .cloned()
            .map(|s| AppRuntime::new(s, ArrivalConfig::default(), 100, &root))
            .collect();
        let mut star = ScroogeScheduler::new_star(Profiler::default(), specs);
        assert_eq!(star.name(), "Scrooge*");
        let server = GpuSpec::with_gpus(4);
        let predicted = vec![32u32, 32];
        let pools: Vec<Vec<usize>> = apps
            .iter()
            .map(|rt| rt.pools.iter().map(|p| p.remaining()).collect())
            .collect();
        let ctx = SessionCtx {
            now: SimTime::ZERO,
            predicted: &predicted,
            server: &server,
            free_gpus: 4.0,
            avg_job_time: SimDuration::from_millis(60),
            pool_remaining: &pools,
        };
        let plans = star.on_session(&ctx);
        let total: f64 = plans.iter().map(|p| p.gpu).sum();
        let s = 60.0 / 5.0;
        assert!(total <= 4.0 / s + 1e-6, "star total {total}");
    }
}
