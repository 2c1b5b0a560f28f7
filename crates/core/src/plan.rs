//! The scheduler interface shared by AdaInf and every baseline.
//!
//! A scheduler only decides; the harness measures. The harness drives a
//! scheduler through two hooks and times both:
//!
//! * [`Scheduler::on_period_start`] — once per 50 s retraining period,
//!   with mutable access to the application runtimes (drift detection
//!   needs model features and pool samples). Returns a [`PeriodPlan`]:
//!   the retraining-inference DAGs for incremental schedulers, and/or
//!   bulk retraining tasks for period-level schedulers (Ekya) and
//!   cloud-offloading schedulers (Scrooge).
//! * [`Scheduler::on_session`] — once per 5 ms session, with the
//!   predicted per-application request counts. Returns one [`JobPlan`]
//!   per application job: GPU fraction, request batch size, per-model
//!   structure cuts and retraining slices.
//!
//! Host time only the scheduler can see — its drift stage's background
//! builds — comes back on the plan as a [`DriftStageReport`].

use adainf_apps::AppRuntime;
use adainf_gpusim::{EvictionPolicyKind, ExecMode, GpuSpec};
use adainf_simcore::{SimDuration, SimTime};

/// One vertex of a retraining plan within a job: retrain `node` for
/// `time`, on `samples` samples in batches of `batch` for `epochs` epochs
/// (the "retraining setting" of §3.3.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetrainSlice {
    /// DAG node (model) to retrain.
    pub node: usize,
    /// GPU time allocated to the slice.
    pub time: SimDuration,
    /// Retraining samples to consume from the pool.
    pub samples: u32,
    /// Retraining batch size.
    pub batch: u32,
    /// Epochs over the slice's samples.
    pub epochs: u32,
}

/// Per-job allocation decided for one session.
#[derive(Clone, Debug)]
pub struct JobPlan {
    /// Application index.
    pub app: usize,
    /// Allocated GPU amount, in GPU units (≤ number of GPUs).
    pub gpu: f64,
    /// Request batch size.
    pub batch: u32,
    /// Structure cut per DAG node (full cut = full structure).
    pub cuts: Vec<usize>,
    /// Retraining slices to run before the inference tasks they feed.
    pub retrain: Vec<RetrainSlice>,
    /// Execution strategy (§3.4.1; `LayerGrouped` for AdaInf).
    pub exec: ExecMode,
    /// Eviction policy (§3.4.2; `Priority` for AdaInf).
    pub eviction: EvictionPolicyKind,
    /// Serial-queue semantics: the job runs on the application's
    /// continuous share and must wait for the app's previous job to
    /// finish (period-level schedulers like Ekya serve this way; AdaInf
    /// and Scrooge space-divide instead).
    pub serial: bool,
    /// Execute the inference on the host CPU instead of the GPU (§6:
    /// worthwhile for low request counts; the job then holds no GPU
    /// space and runs no retraining slices).
    pub cpu: bool,
}

/// A period-level bulk retraining task (Ekya retrains on the edge in one
/// go; Scrooge offloads to the cloud and pays the transfer).
#[derive(Clone, Copy, Debug)]
pub struct BulkRetrain {
    /// Application index.
    pub app: usize,
    /// DAG node to retrain.
    pub node: usize,
    /// GPU amount the retraining occupies on the edge server
    /// (0 for cloud retraining).
    pub gpu: f64,
    /// When the retrained model becomes available to inference.
    pub available_at: SimTime,
    /// Edge GPU occupancy ends at this time (equals `available_at` for
    /// edge retraining; earlier for cloud, which only pays transfer).
    pub busy_until: SimTime,
    /// Maximum pool samples this retraining consumes (0 = the whole
    /// pool). Period-level schedulers cap this to what fits their
    /// retraining window.
    pub sample_cap: u32,
}

/// The entry of a retraining-inference DAG: a model to retrain this
/// period and how hard drift hit it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RiEntry {
    /// DAG node index.
    pub node: usize,
    /// Impact degree `I_m − I'_m` (§3.2).
    pub impact: f64,
}

/// Per-application retraining decisions for the current period.
#[derive(Clone, Debug, Default)]
pub struct AppPeriodPlan {
    /// Models to retrain incrementally, with impact degrees (the
    /// retraining vertices of the RI-DAG, §3.2). Empty for schedulers
    /// that do not retrain incrementally.
    pub ri_entries: Vec<RiEntry>,
}

/// Everything a scheduler decides at a period boundary.
#[derive(Clone, Debug, Default)]
pub struct PeriodPlan {
    /// Per-application incremental-retraining DAGs.
    pub apps: Vec<AppPeriodPlan>,
    /// Bulk/cloud retraining tasks.
    pub bulk: Vec<BulkRetrain>,
    /// Bytes shipped between edge and cloud by this plan (Scrooge).
    pub edge_cloud_bytes: u64,
    /// What this boundary's drift stage did, for schedulers that run one
    /// (AdaInf); `None` otherwise.
    pub drift: Option<DriftStageReport>,
}

/// Host time and work of one boundary's drift stage — the part of the
/// period hook only the scheduler can see, since its background builds
/// run off the caller's thread. The harness times the hook itself and
/// accumulates these reports into the run's metrics.
#[derive(Clone, Copy, Debug)]
pub struct DriftStageReport {
    /// Host nanoseconds of drift work: caller-thread compute plus
    /// background-worker build time, excluding join waits.
    pub work_ns: u64,
    /// Host nanoseconds the caller was inside the drift stage, waits
    /// included — the part of the work that blocked serving.
    pub blocked_ns: u64,
    /// Resolved worker-thread count of the background builds (0 when no
    /// artifact was stale).
    pub worker_threads: usize,
    /// Drift artifact builds: the background builds plus any a lookup
    /// made on the caller's thread.
    pub builds: u64,
    /// Builds that warm-started their PCA fit from the previous basis.
    pub warm_starts: u64,
}

/// Read-only context for session scheduling.
#[derive(Clone, Debug)]
pub struct SessionCtx<'a> {
    /// Session start time.
    pub now: SimTime,
    /// Predicted request count per application for this session
    /// ("predicted based on request rate as in \[10\]").
    pub predicted: &'a [u32],
    /// The edge server hardware.
    pub server: &'a GpuSpec,
    /// GPU amount not currently held by in-flight jobs or bulk retraining.
    pub free_gpus: f64,
    /// EWMA of recent job completion times (drives the session-pool
    /// division of §3.3.1). Maintained by the harness.
    pub avg_job_time: SimDuration,
    /// Remaining retraining-pool samples, per application per node.
    pub pool_remaining: &'a [Vec<usize>],
}

/// The scheduling interface implemented by AdaInf and all baselines.
pub trait Scheduler {
    /// Human-readable method name ("AdaInf", "Ekya", …).
    fn name(&self) -> String;

    /// Period-boundary hook (drift detection, DAG generation, bulk
    /// retraining plans). `now` is the period start.
    fn on_period_start(
        &mut self,
        apps: &mut [AppRuntime],
        server: &GpuSpec,
        now: SimTime,
    ) -> PeriodPlan;

    /// Session hook: one [`JobPlan`] per application with predicted
    /// requests > 0.
    fn on_session(&mut self, ctx: &SessionCtx<'_>) -> Vec<JobPlan>;

    /// `(hits, misses, evictions)` of the scheduler's decision cache, if
    /// it has one. Reported by the bench harness alongside wall-clock
    /// numbers.
    fn cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_types_construct() {
        let slice = RetrainSlice {
            node: 1,
            time: SimDuration::from_millis(100),
            samples: 64,
            batch: 32,
            epochs: 1,
        };
        let plan = JobPlan {
            app: 0,
            gpu: 0.25,
            batch: 16,
            cuts: vec![12, 17, 15],
            retrain: vec![slice],
            exec: ExecMode::LayerGrouped,
            eviction: EvictionPolicyKind::Priority,
            serial: false,
            cpu: false,
        };
        assert_eq!(plan.retrain[0].samples, 64);
        let period = PeriodPlan::default();
        assert!(period.apps.is_empty());
        assert_eq!(period.edge_cloud_bytes, 0);
    }
}
