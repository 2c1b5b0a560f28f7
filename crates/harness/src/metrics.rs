//! Metric collection for one simulation run.

use crate::json;
use adainf_simcore::time::PERIOD;
use adainf_simcore::{Histogram, OnlineStats, PeriodSeries, SimDuration, SimTime, WindowSeries};

/// Everything measured during one run. All series are indexed by
/// simulated time; the paper's figures are projections of these streams.
pub struct RunMetrics {
    /// Method name.
    pub name: String,
    /// Request-weighted accuracy per period, pooled over applications —
    /// Figs 4a, 7a, 18, 22a.
    pub accuracy: PeriodSeries,
    /// Request-weighted accuracy per 5 s window — the intra-period
    /// recovery trajectory behind Fig 3's incremental-retraining story.
    pub accuracy_fine: WindowSeries,
    /// Per-application accuracy per period.
    pub per_app_accuracy: Vec<PeriodSeries>,
    /// Per-(application, node) accuracy per period — Fig 5.
    pub per_node_accuracy: Vec<Vec<PeriodSeries>>,
    /// SLO finish rate per 1 s window — Figs 19, 22b.
    pub finish: WindowSeries,
    /// Share of requests served by a model already retrained in the
    /// current period — Fig 4b.
    pub updated_model: PeriodSeries,
    /// GPU time spent retraining per period (seconds·GPU) — Fig 7b.
    pub retrain_gpu_seconds: Vec<f64>,
    /// Fraction of each period's retraining pools consumed — Fig 7b.
    pub samples_used: Vec<f64>,
    /// Per-job end-to-end inference latency (ms) — Fig 20.
    pub inference_latency: OnlineStats,
    /// Per-job retraining-slice time (ms; bulk retraining recorded as its
    /// full duration) — Fig 20.
    pub retrain_latency: OnlineStats,
    /// nvidia-smi-style utilization per second (fraction of seconds with
    /// kernels resident) — Fig 21.
    pub utilization: Vec<f64>,
    /// True mean GPU allocation per second (load), for EXPERIMENTS.md.
    pub allocation: Vec<f64>,
    /// Label distribution per (app, node, period) — Fig 6 JS divergence.
    pub label_distributions: Vec<Vec<Vec<Vec<f64>>>>,
    /// Wall-clock of each period-hook call, timed by the harness
    /// (Table 1, "DAG update") — one sample per period boundary.
    pub period_overhead: OnlineStats,
    /// Measured wall-clock per session scheduling call (Table 1).
    pub sched_overhead: OnlineStats,
    /// Total bytes shipped between edge and cloud (Table 1).
    pub edge_cloud_bytes: u64,
    /// Scheduler decision-cache hits over the run (0 for schedulers
    /// without a cache).
    pub cache_hits: u64,
    /// Scheduler decision-cache misses over the run.
    pub cache_misses: u64,
    /// Scheduler decision-cache evictions (capacity bound) over the run.
    pub cache_evictions: u64,
    /// Wall-clock nanoseconds of drift work across the run — drift
    /// detection and retraining-order selection, on the caller and on
    /// background workers (Table 1, "drift"). Summed from the drift
    /// reports on the period plans; 0 for schedulers without a drift
    /// stage.
    pub drift_detect_ns: u64,
    /// Drift work per period boundary (µs, period order) — the
    /// distribution behind [`Summary::drift_detect_p99_us`]. One entry
    /// per boundary for schedulers with a drift stage, empty otherwise.
    pub drift_detect_period_us: Vec<f64>,
    /// Wall-clock nanoseconds the serving loop actually *stalled* on
    /// drift work (the drift critical path): snapshot/spawn/sweep time
    /// plus join waits, excluding background builds that overlapped
    /// serving.
    pub drift_blocked_ns: u64,
    /// Drift artifact builds across the run (background and caller).
    /// Host-independent: it counts work, not time.
    pub drift_builds: u64,
    /// Drift artifact builds that warm-started their PCA fit.
    pub drift_warm_starts: u64,
    /// Wall-clock nanoseconds of session serving across the run — every
    /// `step_session` call minus the retraining time accrued inside it.
    pub serve_ns: u64,
    /// Wall-clock nanoseconds of model training across the run: staged
    /// SGD flushes (inline and boundary fan-outs) and bulk retraining.
    pub train_ns: u64,
    /// Largest resolved worker-thread count of any parallel fan-out this
    /// run actually performed (after the ambient `available_parallelism`
    /// fallback), across the scheduler's drift stage and the harness's
    /// boundary training stage; `None` when the run has no pool at all,
    /// so reports can omit the column instead of printing a bogus 0.
    pub worker_threads: Option<usize>,
    /// Total requests served.
    pub total_requests: u64,
    /// Retraining samples consumed per (app, node), cumulative.
    pub retrain_samples: Vec<Vec<u64>>,
    /// Per-application end-to-end job latency histogram (0–2000 ms).
    pub per_app_latency: Vec<Histogram>,
    /// Requests shed by SLO-aware admission control (counted as missed
    /// in `finish` but consuming no service time). Zero without faults.
    pub shed_requests: u64,
    /// Jobs served with stale (given-up) parameters under memory
    /// pressure — the degraded steady state of bounded reload retry.
    pub degraded_jobs: u64,
    /// Retraining slices dropped by the inference-only fallback.
    pub dropped_retrain_slices: u64,
    /// Sessions that ran inside at least one active fault window.
    pub fault_sessions: u64,
    /// Memory-pressure windows that opened (each triggers one storm).
    pub eviction_storms: u64,
    /// Evictions + drops forced by pressure storms (from the fault
    /// memory model's accounting).
    pub storm_evictions: u64,
    /// Parameter-reload attempts made after pressure evicted content.
    pub reload_retries: u64,
    /// Reload give-ups: apps that exhausted the retry budget.
    pub reload_gave_up: u64,
    /// Retraining-pool samples destroyed by starvation windows.
    pub starved_samples: u64,
    /// Communication time injected by fault handling (storm writebacks
    /// and parameter reloads), ms per affected session.
    pub fault_comm: OnlineStats,
    /// Absolute error of the online latency forecast per predicted job
    /// (|predicted − actual| last-batch completion, µs). Empty unless
    /// the run has a predictor (`predicted_latency` on).
    pub pred_abs_err_us: OnlineStats,
    /// *Relative* forecast error (|predicted − actual| / actual),
    /// bucketed by session-index quartile of the run — the predictor's
    /// convergence trajectory (the trajectory bench asserts the last
    /// quartile beats the first). Relative, not µs: job latencies grow
    /// over a run as drift brings retraining load, so absolute error
    /// scales with the workload while relative error isolates model
    /// quality.
    pub pred_rel_err_quartiles: [OnlineStats; 4],
    /// Jobs whose forecast had non-negative SLO headroom (predicted to
    /// fit).
    pub headroom_predicted_fit: u64,
    /// Predicted-fit jobs whose *actual* last batch finished past the
    /// SLO — forecast optimism the headroom policy acted on.
    pub headroom_violations: u64,
}

impl RunMetrics {
    /// Creates empty metrics for `apps` applications with the given
    /// per-app node counts.
    pub fn new(name: String, node_counts: &[usize]) -> Self {
        RunMetrics {
            name,
            accuracy: PeriodSeries::new(),
            accuracy_fine: WindowSeries::new(SimDuration::from_secs(5)),
            per_app_accuracy: node_counts.iter().map(|_| PeriodSeries::new()).collect(),
            per_node_accuracy: node_counts
                .iter()
                .map(|&n| (0..n).map(|_| PeriodSeries::new()).collect())
                .collect(),
            finish: WindowSeries::new(SimDuration::from_secs(1)),
            updated_model: PeriodSeries::new(),
            retrain_gpu_seconds: Vec::new(),
            samples_used: Vec::new(),
            inference_latency: OnlineStats::new(),
            retrain_latency: OnlineStats::new(),
            utilization: Vec::new(),
            allocation: Vec::new(),
            label_distributions: node_counts
                .iter()
                .map(|&n| (0..n).map(|_| Vec::new()).collect())
                .collect(),
            period_overhead: OnlineStats::new(),
            sched_overhead: OnlineStats::new(),
            edge_cloud_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            drift_detect_ns: 0,
            drift_detect_period_us: Vec::new(),
            drift_blocked_ns: 0,
            drift_builds: 0,
            drift_warm_starts: 0,
            serve_ns: 0,
            train_ns: 0,
            worker_threads: None,
            total_requests: 0,
            retrain_samples: node_counts.iter().map(|&n| vec![0; n]).collect(),
            per_app_latency: node_counts
                .iter()
                .map(|_| Histogram::new(0.0, 2000.0, 400))
                .collect(),
            shed_requests: 0,
            degraded_jobs: 0,
            dropped_retrain_slices: 0,
            fault_sessions: 0,
            eviction_storms: 0,
            storm_evictions: 0,
            reload_retries: 0,
            reload_gave_up: 0,
            starved_samples: 0,
            fault_comm: OnlineStats::new(),
            pred_abs_err_us: OnlineStats::new(),
            pred_rel_err_quartiles: std::array::from_fn(|_| OnlineStats::new()),
            headroom_predicted_fit: 0,
            headroom_violations: 0,
        }
    }

    /// Accumulates retraining GPU time at `at`.
    pub fn add_retrain_gpu_time(&mut self, at: SimTime, gpu_seconds: f64) {
        let idx = (at.as_micros() / PERIOD.as_micros()) as usize;
        if idx >= self.retrain_gpu_seconds.len() {
            self.retrain_gpu_seconds.resize(idx + 1, 0.0);
        }
        self.retrain_gpu_seconds[idx] += gpu_seconds;
    }

    /// Mean accuracy across periods (the headline number of Fig 18).
    pub fn mean_accuracy(&self) -> f64 {
        self.accuracy.mean()
    }

    /// Mean finish rate across 1 s windows (the headline of Fig 19).
    pub fn mean_finish_rate(&self) -> f64 {
        self.finish.mean_ratio()
    }

    /// `(p50, p95, p99)` end-to-end job latency of one application, ms.
    /// Out-of-range apps (callers iterating a foreign app list) yield
    /// all-zero percentiles instead of a panic; in debug builds the
    /// index is asserted so harness bugs still surface.
    pub fn latency_percentiles(&self, app: usize) -> (f64, f64, f64) {
        debug_assert!(
            app < self.per_app_latency.len(),
            "app {app} out of range ({} apps)",
            self.per_app_latency.len()
        );
        let Some(h) = self.per_app_latency.get(app) else {
            return (0.0, 0.0, 0.0);
        };
        (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99))
    }

    /// p99 per-period drift wall time (µs), nearest-rank over the
    /// per-period samples; 0 when the scheduler has no drift stage.
    /// The tail matters more than the mean here: one slow
    /// period boundary stalls every session of that period. Selection
    /// (O(n)) instead of a full sort: the one ranked element is all the
    /// nearest-rank definition needs.
    pub fn drift_detect_p99_us(&self) -> f64 {
        if self.drift_detect_period_us.is_empty() {
            return 0.0;
        }
        let mut samples = self.drift_detect_period_us.clone();
        let rank = ((0.99 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let (_, nth, _) = samples.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
        *nth
    }

    /// Mean absolute error of the latency forecast over the run, µs
    /// (0 when no predictor ran).
    pub fn predicted_latency_mae_us(&self) -> f64 {
        if self.pred_abs_err_us.count() == 0 {
            0.0
        } else {
            self.pred_abs_err_us.mean()
        }
    }

    /// Mean relative forecast error within one session-index quartile
    /// of the run (0 when the quartile saw no predictions).
    pub fn predicted_rel_err_quartile(&self, quartile: usize) -> f64 {
        self.pred_rel_err_quartiles
            .get(quartile)
            .filter(|s| s.count() > 0)
            .map_or(0.0, |s| s.mean())
    }

    /// Share of predicted-fit jobs whose actual completion violated the
    /// SLO anyway (0 when no job was predicted to fit).
    pub fn headroom_violation_rate(&self) -> f64 {
        if self.headroom_predicted_fit == 0 {
            0.0
        } else {
            self.headroom_violations as f64 / self.headroom_predicted_fit as f64
        }
    }

    /// Decision-cache hit rate over the run (0 when no cache ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// A compact summary row.
    pub fn summary(&self) -> Summary {
        Summary {
            name: self.name.clone(),
            mean_accuracy: self.mean_accuracy(),
            mean_finish_rate: self.mean_finish_rate(),
            mean_inference_latency_ms: self.inference_latency.mean(),
            mean_retrain_latency_ms: self.retrain_latency.mean(),
            mean_utilization: if self.utilization.is_empty() {
                0.0
            } else {
                self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
            },
            total_requests: self.total_requests,
            edge_cloud_gb: self.edge_cloud_bytes as f64 / 1e9,
            period_overhead_ms: self.period_overhead.mean(),
            sched_overhead_ms: self.sched_overhead.mean(),
            cache_hit_rate: self.cache_hit_rate(),
            cache_evictions: self.cache_evictions,
            drift_detect_us: self.drift_detect_ns as f64
                / 1e3
                / self.period_overhead.count().max(1) as f64,
            drift_detect_p99_us: self.drift_detect_p99_us(),
            drift_critical_path_us: self.drift_blocked_ns as f64
                / 1e3
                / self.period_overhead.count().max(1) as f64,
            serve_us: self.serve_ns as f64
                / 1e3
                / self.period_overhead.count().max(1) as f64,
            train_us: self.train_ns as f64
                / 1e3
                / self.period_overhead.count().max(1) as f64,
            worker_threads: self.worker_threads,
            shed_requests: self.shed_requests,
            degraded_jobs: self.degraded_jobs,
            fault_sessions: self.fault_sessions,
            predicted_latency_mae_us: self.predicted_latency_mae_us(),
            headroom_violation_rate: self.headroom_violation_rate(),
        }
    }
}

/// Full serializable export of a run: the summary plus every series a
/// figure is built from, so results can be post-processed (plotted,
/// diffed across builds) without re-running the simulation.
#[derive(Clone, Debug)]
pub struct RunExport {
    /// Headline summary.
    pub summary: Summary,
    /// Accuracy per 50 s period.
    pub accuracy_per_period: Vec<Option<f64>>,
    /// Finish rate per 1 s window.
    pub finish_per_second: Vec<Option<f64>>,
    /// Updated-model share per period.
    pub updated_model_per_period: Vec<Option<f64>>,
    /// Retraining GPU-seconds per period.
    pub retrain_gpu_seconds: Vec<f64>,
    /// Pool consumption per period.
    pub samples_used: Vec<f64>,
    /// smi-style utilization per second.
    pub utilization: Vec<f64>,
}

impl RunMetrics {
    /// Builds the full export.
    pub fn export(&self) -> RunExport {
        RunExport {
            summary: self.summary(),
            accuracy_per_period: self.accuracy.ratios(),
            finish_per_second: self.finish.ratios(),
            updated_model_per_period: self.updated_model.ratios(),
            retrain_gpu_seconds: self.retrain_gpu_seconds.clone(),
            samples_used: self.samples_used.clone(),
            utilization: self.utilization.clone(),
        }
    }

    /// The full export as pretty JSON.
    pub fn export_json(&self) -> String {
        self.export().to_json()
    }
}

impl RunExport {
    /// Renders the export as pretty JSON.
    pub fn to_json(&self) -> String {
        json::object([
            ("summary", self.summary.to_json()),
            (
                "accuracy_per_period",
                json::array(self.accuracy_per_period.iter().map(|v| json::opt_num(*v))),
            ),
            (
                "finish_per_second",
                json::array(self.finish_per_second.iter().map(|v| json::opt_num(*v))),
            ),
            (
                "updated_model_per_period",
                json::array(
                    self.updated_model_per_period
                        .iter()
                        .map(|v| json::opt_num(*v)),
                ),
            ),
            (
                "retrain_gpu_seconds",
                json::array(self.retrain_gpu_seconds.iter().map(|v| json::num(*v))),
            ),
            (
                "samples_used",
                json::array(self.samples_used.iter().map(|v| json::num(*v))),
            ),
            (
                "utilization",
                json::array(self.utilization.iter().map(|v| json::num(*v))),
            ),
        ])
    }
}

/// Serializable run summary (one row of the comparison tables).
#[derive(Clone, Debug)]
pub struct Summary {
    /// Method name.
    pub name: String,
    /// Mean per-period accuracy.
    pub mean_accuracy: f64,
    /// Mean per-second finish rate.
    pub mean_finish_rate: f64,
    /// Mean per-job inference latency (ms).
    pub mean_inference_latency_ms: f64,
    /// Mean per-job/bulk retraining latency (ms).
    pub mean_retrain_latency_ms: f64,
    /// Mean nvidia-smi-style utilization.
    pub mean_utilization: f64,
    /// Requests served.
    pub total_requests: u64,
    /// Edge–cloud traffic (GB).
    pub edge_cloud_gb: f64,
    /// Mean period-planning wall time (ms).
    pub period_overhead_ms: f64,
    /// Mean session-scheduling wall time (ms).
    pub sched_overhead_ms: f64,
    /// Scheduler decision-cache hit rate (0 when no cache ran).
    pub cache_hit_rate: f64,
    /// Scheduler decision-cache evictions (0 when no cache ran).
    pub cache_evictions: u64,
    /// Mean drift-detection + retraining-order wall time per period (µs).
    pub drift_detect_us: f64,
    /// p99 per-period drift wall time (µs) — the period-boundary stall
    /// tail (0 for schedulers without per-period tracking).
    pub drift_detect_p99_us: f64,
    /// Mean drift *critical path* per period (µs): time the serving loop
    /// was actually blocked on drift work. The background builds are
    /// excluded, so `drift_detect_us − drift_critical_path_us` is the
    /// work hidden behind serving.
    pub drift_critical_path_us: f64,
    /// Mean session-serving wall per period (µs) — the event loop's own
    /// phase of the breakdown (training time accrued inside sessions is
    /// counted under `train_us`, not here).
    pub serve_us: f64,
    /// Mean training wall per period (µs): staged SGD flushes plus bulk
    /// retraining.
    pub train_us: f64,
    /// Resolved worker-thread count of the row's parallel fan-outs
    /// (the drift stage and the harness training stage), or `None` when
    /// the run used no pool — reports omit the column then instead of
    /// printing a misleading 0.
    pub worker_threads: Option<usize>,
    /// Requests shed by admission control (0 without faults).
    pub shed_requests: u64,
    /// Jobs served degraded after reload give-up (0 without faults).
    pub degraded_jobs: u64,
    /// Sessions inside an active fault window (0 without faults).
    pub fault_sessions: u64,
    /// Mean absolute error of the online latency forecast (µs; 0 when
    /// no predictor ran).
    pub predicted_latency_mae_us: f64,
    /// Share of predicted-fit jobs that actually missed their SLO
    /// (0 when no predictor ran).
    pub headroom_violation_rate: f64,
}

impl Summary {
    /// Renders the summary as pretty JSON. `worker_threads` is emitted
    /// only for rows that ran a pool — pool-less schedulers omit the
    /// key entirely rather than reporting a 0 that reads like a
    /// measurement.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(&str, String)> = vec![
            ("name", json::string(&self.name)),
            ("mean_accuracy", json::num(self.mean_accuracy)),
            ("mean_finish_rate", json::num(self.mean_finish_rate)),
            (
                "mean_inference_latency_ms",
                json::num(self.mean_inference_latency_ms),
            ),
            (
                "mean_retrain_latency_ms",
                json::num(self.mean_retrain_latency_ms),
            ),
            ("mean_utilization", json::num(self.mean_utilization)),
            ("total_requests", json::int(self.total_requests)),
            ("edge_cloud_gb", json::num(self.edge_cloud_gb)),
            ("period_overhead_ms", json::num(self.period_overhead_ms)),
            ("sched_overhead_ms", json::num(self.sched_overhead_ms)),
            ("cache_hit_rate", json::num(self.cache_hit_rate)),
            ("cache_evictions", json::int(self.cache_evictions)),
            ("drift_detect_us", json::num(self.drift_detect_us)),
            ("drift_detect_p99_us", json::num(self.drift_detect_p99_us)),
            (
                "drift_critical_path_us",
                json::num(self.drift_critical_path_us),
            ),
            ("serve_us", json::num(self.serve_us)),
            ("train_us", json::num(self.train_us)),
        ];
        if let Some(w) = self.worker_threads {
            fields.push(("worker_threads", json::int(w as u64)));
        }
        fields.extend([
            ("shed_requests", json::int(self.shed_requests)),
            ("degraded_jobs", json::int(self.degraded_jobs)),
            ("fault_sessions", json::int(self.fault_sessions)),
            (
                "predicted_latency_mae_us",
                json::num(self.predicted_latency_mae_us),
            ),
            (
                "headroom_violation_rate",
                json::num(self.headroom_violation_rate),
            ),
        ]);
        json::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrain_time_buckets_by_period() {
        let mut m = RunMetrics::new("x".into(), &[2]);
        m.add_retrain_gpu_time(SimTime::from_secs(10), 1.5);
        m.add_retrain_gpu_time(SimTime::from_secs(40), 0.5);
        m.add_retrain_gpu_time(SimTime::from_secs(60), 3.0);
        assert_eq!(m.retrain_gpu_seconds, vec![2.0, 3.0]);
    }

    #[test]
    fn summary_serialises() {
        let m = RunMetrics::new("AdaInf".into(), &[3, 2]);
        let s = m.summary();
        let json = s.to_json();
        assert!(json.contains("\"name\": \"AdaInf\""));
        assert!(json.contains("\"total_requests\": 0"));
    }

    #[test]
    fn drift_p99_is_nearest_rank() {
        let mut m = RunMetrics::new("x".into(), &[1]);
        // n = 0: no samples, 0 by definition.
        assert_eq!(m.drift_detect_p99_us(), 0.0);
        // n = 1: ceil(0.99·1) = 1 → the sole sample.
        m.drift_detect_period_us = vec![42.0];
        assert_eq!(m.drift_detect_p99_us(), 42.0);
        // n = 2: ceil(1.98) = 2 → the larger sample, whatever the order.
        m.drift_detect_period_us = vec![90.0, 10.0];
        assert_eq!(m.drift_detect_p99_us(), 90.0);
        // n = 100: ceil(99) = 99 → the 99th smallest of 1..=100.
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // Shuffle deterministically (reverse + interleave) so selection
        // does not get pre-sorted input.
        v.reverse();
        v.swap(0, 57);
        v.swap(3, 91);
        m.drift_detect_period_us = v;
        assert_eq!(m.drift_detect_p99_us(), 99.0);
    }

    #[test]
    fn latency_percentiles_are_bounds_checked_in_release() {
        let m = RunMetrics::new("x".into(), &[2]);
        // In-range app on an empty histogram: zeros.
        assert_eq!(m.latency_percentiles(0), (0.0, 0.0, 0.0));
        // Out-of-range app: zeros instead of a panic (debug builds
        // assert instead — this test documents the release contract).
        #[cfg(not(debug_assertions))]
        assert_eq!(m.latency_percentiles(7), (0.0, 0.0, 0.0));
    }

    #[test]
    fn calibration_accessors_handle_empty_and_filled_state() {
        let mut m = RunMetrics::new("x".into(), &[1]);
        assert_eq!(m.predicted_latency_mae_us(), 0.0);
        assert_eq!(m.headroom_violation_rate(), 0.0);
        assert_eq!(m.predicted_rel_err_quartile(0), 0.0);
        assert_eq!(m.predicted_rel_err_quartile(9), 0.0, "oob quartile");
        m.pred_abs_err_us.add(100.0);
        m.pred_abs_err_us.add(300.0);
        m.pred_rel_err_quartiles[0].add(0.4);
        m.pred_rel_err_quartiles[3].add(0.1);
        m.headroom_predicted_fit = 4;
        m.headroom_violations = 1;
        assert_eq!(m.predicted_latency_mae_us(), 200.0);
        assert_eq!(m.predicted_rel_err_quartile(0), 0.4);
        assert_eq!(m.predicted_rel_err_quartile(3), 0.1);
        assert_eq!(m.headroom_violation_rate(), 0.25);
        let json = m.summary().to_json();
        assert!(json.contains("\"predicted_latency_mae_us\": 200"));
        assert!(json.contains("\"headroom_violation_rate\": 0.25"));
    }

    #[test]
    fn full_export_round_trips_as_json() {
        let mut m = RunMetrics::new("AdaInf".into(), &[2]);
        m.accuracy.record(SimTime::from_secs(10), 90.0, 100.0);
        m.finish.record(SimTime::from_secs(10), 95.0, 100.0);
        m.add_retrain_gpu_time(SimTime::from_secs(10), 2.5);
        let json = m.export_json();
        assert!(json.contains("\"name\": \"AdaInf\""));
        assert!(json.contains("\"accuracy_per_period\": [0.9]"));
        assert!(json.contains("\"retrain_gpu_seconds\": [2.5]"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
        assert_eq!(json.matches('[').count(), json.matches(']').count(),);
    }
}
