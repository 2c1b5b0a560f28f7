//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload adainf-steady --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each workload is the default traffic (8 apps, 4 GPUs, 6400 req/s per
//! app, pool 6000, 5 ms sessions) under one scheduler, seeded from
//! `--seed`. It is driven only through the harness's public entry
//! points: `RunConfig` → `Simulation::new` → `Simulation::run` →
//! `RunMetrics`.
//!
//! * `--trace 0` repeats the workload (set-up and run, one process),
//!   cycling four simulation seeds derived from `--seed`, until
//!   `--seconds` have passed, and reports the end-to-end metrics:
//!   median simulated sessions per host second inside `run`, median
//!   set-up seconds, peak RSS, and the simulated accuracy and SLO
//!   attainment over the four seeds. The two host-time medians are
//!   scaled to a nominal host speed by a reference gauge sampled
//!   around every set-up and run (see [`gauge`]); the figures as
//!   measured are printed beside them.
//! * `--trace 1` probes each layer's kernels, runs the workload at the
//!   first derived seed once at the resolved pool width and once at
//!   width 1 with spans around the calls, once more without spans, and
//!   reports the per-layer metrics.
//!   The spans go to `perfbench/out/trace-<workload>-seed<seed>.json`
//!   (Chrome trace-event format).
//!
//! Every run checks the simulated outputs (see [`check`]) and ends its
//! standard output with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, where
//! `attempted` and `failed` count simulation repeats. `perfbench/record.json`
//! maps each per-layer metric to the end-to-end metric and workload it
//! should move, and records reference digests.

#![forbid(unsafe_code)]

mod check;
mod gauge;
mod probes;
mod stats;
mod trace;

use adainf_core::AdaInfConfig;
use adainf_driftgen::FaultSpec;
use adainf_harness::{json, ChaosConfig, Method, RunConfig, RunMetrics, Simulation};
use adainf_simcore::time::SESSION;
use adainf_simcore::walltime::WallTimer;
use adainf_simcore::SimDuration;
use check::Digest;
use gauge::Gauge;
use std::process::ExitCode;
use trace::Tracer;

/// Simulation seeds one run cycles through, derived from `--seed`. The
/// simulated quality of a single seed varies by several percent from
/// seed to seed; averaging a fixed set of seeds makes a run's figures
/// steadier, and every seed is run at least once however short
/// `--seconds` is.
const SEEDS_PER_RUN: usize = 4;

/// The `j`-th simulation seed of benchmark seed `seed`; distinct seeds
/// give disjoint sets.
fn sim_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(SEEDS_PER_RUN as u64)
        .wrapping_add(j as u64)
}

/// The scheduler a workload runs.
#[derive(Clone, Copy)]
enum Scheduler {
    /// AdaInf with predicted-latency admission on.
    AdaInf,
    /// Scrooge (bulk retraining, no drift detection, no decision cache).
    Scrooge,
}

/// One benchmark workload. The horizon is part of its definition:
/// per-period work grows with it, so sessions/s falls as it grows.
struct Workload {
    name: &'static str,
    scheduler: Scheduler,
    /// Inject `FaultSpec::chaos(seed)`: all four fault families.
    chaos: bool,
    horizon_s: u64,
}

const WORKLOADS: [Workload; 3] = [
    // The paper's system under steady drift: the only fault-free
    // workload where drift detection and the decision cache do work.
    Workload {
        name: "adainf-steady",
        scheduler: Scheduler::AdaInf,
        chaos: false,
        horizon_s: 200,
    },
    // Bulk retraining dominates the run; drift detection and the
    // decision cache are bypassed, so changes there must not move it.
    Workload {
        name: "scrooge-bulk",
        scheduler: Scheduler::Scrooge,
        chaos: false,
        horizon_s: 200,
    },
    // Admission sheds most requests on predicted latency and memory
    // pressure storms force reloads, paths no fault-free run reaches.
    Workload {
        name: "adainf-chaos",
        scheduler: Scheduler::AdaInf,
        chaos: true,
        horizon_s: 200,
    },
];

impl Workload {
    /// The run configuration at `seed`; `width` pins the drift and
    /// training pools (0 = the host's available parallelism).
    fn config(&self, seed: u64, width: usize) -> RunConfig {
        let method = match self.scheduler {
            Scheduler::AdaInf => Method::AdaInf(AdaInfConfig {
                predicted_latency: true,
                drift_workers: width,
                ..AdaInfConfig::default()
            }),
            Scheduler::Scrooge => Method::Scrooge,
        };
        RunConfig {
            seed,
            duration: SimDuration::from_secs(self.horizon_s),
            method,
            chaos: self
                .chaos
                .then(|| ChaosConfig::scenario(FaultSpec::chaos(seed))),
            train_workers: width,
            ..RunConfig::default()
        }
    }

    /// Sessions one run must plan: horizon / session length.
    fn sessions(&self) -> u64 {
        SimDuration::from_secs(self.horizon_s).as_micros() / SESSION.as_micros()
    }
}

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=120.0).contains(s))
                    .ok_or_else(|| format!("--seconds {value:?}: want 1 to 120"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?,
        seed,
        seconds,
        trace,
    })
}

/// One set-up and run of a workload.
struct Repeat {
    setup_s: f64,
    run_s: f64,
    metrics: RunMetrics,
    digest: Digest,
}

impl Repeat {
    fn sessions_per_s(&self) -> f64 {
        self.digest.sessions as f64 / self.run_s
    }
}

/// Sets up and runs `config`, with spans when `tracer` is given. The
/// `run` span carries the counter-derived phase split. The gauge is
/// sampled before the set-up and before the run.
fn repeat(config: RunConfig, gauge: &mut Gauge, mut tracer: Option<&mut Tracer>) -> Repeat {
    gauge.sample();
    let span = tracer.as_mut().map(|t| t.begin("harness::Simulation::new"));
    let t = WallTimer::start();
    let sim = Simulation::new(config);
    let setup_s = t.elapsed_secs();
    if let (Some(tracer), Some(id)) = (tracer.as_mut(), span) {
        tracer.end(id);
    }
    gauge.sample();
    let span = tracer.as_mut().map(|t| t.begin("harness::Simulation::run"));
    let t = WallTimer::start();
    let metrics = sim.run();
    let run_s = t.elapsed_secs();
    if let (Some(tracer), Some(id)) = (tracer, span) {
        tracer.end(id);
        for (key, ms) in Phases::of(&metrics, run_s).labelled_ms() {
            tracer.annotate(id, key, json::num(ms));
        }
    }
    let digest = Digest::of(&metrics);
    Repeat {
        setup_s,
        run_s,
        metrics,
        digest,
    }
}

/// The run wall split by the harness's phase counters. The counters
/// are disjoint: serving excludes the training it triggers, and drift
/// stalls happen in the period hook, outside session serving.
struct Phases {
    run_ms: f64,
    serve_ms: f64,
    train_ms: f64,
    drift_blocked_ms: f64,
}

impl Phases {
    fn of(m: &RunMetrics, run_s: f64) -> Self {
        Phases {
            run_ms: run_s * 1e3,
            serve_ms: m.serve_ns as f64 / 1e6,
            train_ms: m.train_ns as f64 / 1e6,
            drift_blocked_ms: m.drift_blocked_ns as f64 / 1e6,
        }
    }

    fn unattributed_ms(&self) -> f64 {
        self.run_ms - self.serve_ms - self.train_ms - self.drift_blocked_ms
    }

    /// Labelled phases; together they sum to the run span.
    fn labelled_ms(&self) -> [(&'static str, f64); 4] {
        [
            ("serve_ms", self.serve_ms),
            ("train_ms", self.train_ms),
            ("drift_blocked_ms", self.drift_blocked_ms),
            ("unattributed_ms", self.unattributed_ms()),
        ]
    }
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Repeats attempted, repeats that failed a check, and the metrics.
type Outcome = (usize, usize, Vec<Metric>);

/// The final stdout line.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Host facts printed beside every figure.
struct Host {
    nproc: usize,
    cpu: String,
}

impl Host {
    fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host { nproc, cpu }
    }
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn width_label(w: Option<usize>) -> String {
    w.map_or_else(|| "none (no pool ran)".to_string(), |w| w.to_string())
}

/// Checks one repeat against the laws and against `reference`; returns
/// the problems found.
fn problems(w: &Workload, r: &Repeat, reference: Option<&Digest>, what: &str) -> Vec<String> {
    let mut out: Vec<String> = r
        .digest
        .violations(w.sessions())
        .into_iter()
        .map(|v| format!("{what}: {v}"))
        .collect();
    if let Some(reference) = reference {
        out.extend(r.digest.mismatch(reference, what));
    }
    out
}

fn print_accounting(d: &Digest) {
    let met = d.met_requests();
    println!(
        "  requests: arrived {} met_slo {met} shed {} missed {} (slo_miss_rate {:.6})",
        d.total_requests,
        d.shed_requests,
        d.missed_requests(),
        1.0 - d.pooled_finish()
    );
}

/// `--trace 0`: cycle the run's simulation seeds until `seconds` pass
/// (each seed at least once); report end-to-end metrics.
fn run_untraced(args: &Args, host: &Host) -> Result<Outcome, String> {
    let w = args.workload;
    let clock = WallTimer::start();
    let mut gauge = Gauge::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut failed = 0;
    while repeats.len() < SEEDS_PER_RUN || clock.elapsed_secs() < args.seconds {
        let i = repeats.len();
        let seed = sim_seed(args.seed, i % SEEDS_PER_RUN);
        let r = repeat(w.config(seed, 0), &mut gauge, None);
        // Repeats past the first round rerun a seed: same digest.
        let reference = repeats
            .get(i % SEEDS_PER_RUN)
            .filter(|_| i >= SEEDS_PER_RUN);
        let found = problems(
            w,
            &r,
            reference.map(|f| &f.digest),
            &format!("repeat {} (seed {seed})", i + 1),
        );
        if !found.is_empty() {
            failed += 1;
            for e in &found {
                eprintln!("perfbench: INCORRECT {e}");
            }
        }
        repeats.push(r);
    }
    gauge.sample();
    let slowdown = gauge.slowdown();
    let width = repeats[0].metrics.worker_threads;
    println!(
        "perfbench {} seed {} horizon {} s ({} sessions) repeats {} nproc {} worker_threads {} cpu {:?}",
        w.name,
        args.seed,
        w.horizon_s,
        w.sessions(),
        repeats.len(),
        host.nproc,
        width_label(width),
        host.cpu
    );
    // Host time scaled to the gauge's nominal host speed.
    let rates: Vec<f64> = repeats
        .iter()
        .map(|r| r.sessions_per_s() * slowdown)
        .collect();
    let setups: Vec<f64> = repeats.iter().map(|r| r.setup_s / slowdown).collect();
    // Quality over the run's distinct seeds: the first round.
    let round: Vec<Digest> = repeats[..SEEDS_PER_RUN].iter().map(|r| r.digest).collect();
    let arrived: u64 = round.iter().map(|d| d.total_requests).sum();
    let met: u64 = round.iter().map(Digest::met_requests).sum();
    let metrics = vec![
        metric(
            "sessions_per_s",
            "1/s",
            stats::median(&rates).unwrap_or(f64::NAN),
        ),
        metric("setup_s", "s", stats::median(&setups).unwrap_or(f64::NAN)),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        metric(
            "mean_accuracy",
            "ratio",
            round.iter().map(Digest::mean_accuracy).sum::<f64>() / round.len() as f64,
        ),
        metric("slo_attainment", "ratio", met as f64 / arrived as f64),
    ];
    for (m, samples) in metrics
        .iter()
        .zip([Some(&rates), Some(&setups), None, None, None])
    {
        match samples.and_then(|s| stats::quartiles(s)) {
            Some((q1, q3)) => println!(
                "  {:<16} {:>6}  median {:<12.6} q1 {:<12.6} q3 {:<12.6} n {}",
                m.name,
                m.unit,
                m.value,
                q1,
                q3,
                repeats.len()
            ),
            None => println!("  {:<16} {:>6}  value  {:<12.6}", m.name, m.unit, m.value),
        }
    }
    println!(
        "  host gauge median {:.4} ms (nominal {} ms): sessions_per_s and setup_s are scaled by its square root, {slowdown:.4}, to nominal host speed; as measured, median {:.1} 1/s and {:.4} s",
        gauge.median_ms(),
        gauge::NOMINAL_MS,
        stats::median(&rates).unwrap_or(f64::NAN) / slowdown,
        stats::median(&setups).unwrap_or(f64::NAN) * slowdown
    );
    println!("  per repeat, scaled: sessions_per_s {rates:.1?} setup_s {setups:.4?}");
    for (j, d) in round.iter().enumerate() {
        let runs = repeats.iter().skip(j).step_by(SEEDS_PER_RUN).count();
        let agreement = match (runs, failed) {
            (1, _) => "",
            (_, 0) => ", identical",
            _ => ", see the INCORRECT lines",
        };
        println!(
            "  seed {:<6} digest {} ({runs} repeats{agreement})",
            sim_seed(args.seed, j),
            d.hash_hex()
        );
        print_accounting(d);
    }
    Ok((repeats.len(), failed, metrics))
}

/// `--trace 1`: probes, a traced repeat at the resolved width, one at
/// width 1 and an untraced one; report per-layer metrics.
fn run_traced(args: &Args, host: &Host) -> Result<Outcome, String> {
    let w = args.workload;
    let seed = sim_seed(args.seed, 0);
    let config = w.config(seed, 0);

    let mut gauge = Gauge::new();
    let untraced = repeat(config.clone(), &mut gauge, None);

    let mut tracer = Tracer::new();
    let root = tracer.begin("perfbench.traced_run");
    let traced_clock = WallTimer::start();
    let probe_span = tracer.begin("probes");
    let probes = probes::run_all(&config, &mut tracer);
    tracer.end(probe_span);
    let span = tracer.begin("repeat.resolved_width");
    let wide = repeat(config, &mut gauge, Some(&mut tracer));
    tracer.end(span);
    let span = tracer.begin("repeat.width_1");
    let narrow = repeat(w.config(seed, 1), &mut gauge, Some(&mut tracer));
    tracer.end(span);
    tracer.end(root);
    let traced_wall_s = traced_clock.elapsed_secs();
    let span_cost_ns = Tracer::span_cost_ns(100_000);

    let checks = [
        problems(w, &untraced, None, "untraced repeat"),
        problems(w, &wide, Some(&untraced.digest), "traced repeat"),
        problems(w, &narrow, Some(&untraced.digest), "width-1 repeat"),
    ];
    for e in checks.iter().flatten() {
        eprintln!("perfbench: INCORRECT {e}");
    }
    let failed = checks.iter().filter(|c| !c.is_empty()).count();

    let m = &wide.metrics;
    let d = wide.digest;
    let phases = Phases::of(m, wide.run_s);
    let periods = m.period_overhead.count().max(1) as f64;
    let per_period = |ns: u64| ns as f64 / 1e6 / periods;
    let adainf = matches!(w.scheduler, Scheduler::AdaInf);
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let decision_us = if m.sched_overhead.count() > 0 {
        m.sched_overhead.mean() * 1e3
    } else {
        0.0
    };
    let drift_work = per_period(m.drift_detect_ns);
    let drift_blocked = per_period(m.drift_blocked_ns);
    let retrain_samples = d.retrain_samples as f64;
    let met = d.met_requests();

    let mut out = vec![
        metric(
            "harness.serve_ms_per_period",
            "ms",
            phases.serve_ms / periods,
        ),
        metric(
            "harness.train_ms_per_period",
            "ms",
            phases.train_ms / periods,
        ),
        metric(
            "harness.unattributed_share",
            "ratio",
            phases.unattributed_ms() / phases.run_ms,
        ),
        metric("harness.requests_arrived", "count", d.total_requests as f64),
        metric("harness.requests_met_slo", "count", met as f64),
        metric("harness.requests_shed", "count", d.shed_requests as f64),
        metric(
            "harness.requests_missed",
            "count",
            d.missed_requests() as f64,
        ),
        metric("harness.slo_miss_rate", "ratio", 1.0 - d.pooled_finish()),
        metric(
            "core.decisions",
            "count",
            only(adainf, m.sched_overhead.count() as f64),
        ),
        metric("core.decision_us_mean", "us", only(adainf, decision_us)),
        metric("core.decision_cache_hit_rate", "ratio", m.cache_hit_rate()),
        metric(
            "core.decision_cache_lookups",
            "count",
            (m.cache_hits + m.cache_misses) as f64,
        ),
        metric(
            "core.decision_cache_evictions",
            "count",
            m.cache_evictions as f64,
        ),
        metric("core.drift_work_ms_per_period", "ms", drift_work),
        metric("core.drift_blocked_ms_per_period", "ms", drift_blocked),
        metric(
            "core.drift_hidden_share",
            "ratio",
            if drift_work > 0.0 {
                1.0 - drift_blocked / drift_work
            } else {
                0.0
            },
        ),
        metric(
            "core.period_plan_ms",
            "ms",
            only(adainf, m.period_overhead.mean()),
        ),
        metric("core.shed_requests", "count", m.shed_requests as f64),
        metric(
            "core.dropped_retrain_slices",
            "count",
            m.dropped_retrain_slices as f64,
        ),
        metric("core.predict_mae_us", "us", m.predicted_latency_mae_us()),
        metric(
            "core.headroom_violation_rate",
            "ratio",
            m.headroom_violation_rate(),
        ),
        metric(
            "baselines.decision_us_mean",
            "us",
            only(!adainf, decision_us),
        ),
        metric("modelzoo.retrain_samples", "count", retrain_samples),
        metric(
            "modelzoo.train_us_per_sample",
            "us",
            if retrain_samples > 0.0 {
                m.train_ns as f64 / 1e3 / retrain_samples
            } else {
                0.0
            },
        ),
        metric("gpusim.storm_evictions", "count", m.storm_evictions as f64),
        metric("gpusim.reload_retries", "count", m.reload_retries as f64),
        metric("gpusim.degraded_jobs", "count", m.degraded_jobs as f64),
        metric(
            "gpusim.fault_comm_ms_mean",
            "ms",
            if m.fault_comm.count() > 0 {
                m.fault_comm.mean()
            } else {
                0.0
            },
        ),
        metric(
            "apps.pretrain_s_per_app",
            "s",
            probes.pretrain_s.iter().sum::<f64>() / probes.pretrain_s.len() as f64,
        ),
    ];
    for p in &probes.kernels {
        out.push(metric(format!("{}_{}", p.name, p.unit), p.unit, p.median()));
        if p.op_unit == "MAC" {
            out.push(metric(format!("{}_macs", p.name), "count", p.ops_per_call));
            out.push(metric(
                format!("{}_bytes_computed", p.name),
                "B",
                p.bytes_per_call,
            ));
        }
    }
    let width = wide.metrics.worker_threads;
    out.extend([
        metric("harness.worker_threads", "count", width.unwrap_or(0) as f64),
        metric(
            "harness.width_1_sessions_per_s",
            "1/s",
            narrow.sessions_per_s(),
        ),
        metric(
            "harness.width_speedup",
            "ratio",
            wide.sessions_per_s() / narrow.sessions_per_s(),
        ),
        metric(
            "bench.trace_overhead_share",
            "ratio",
            1.0 - wide.sessions_per_s() / untraced.sessions_per_s(),
        ),
        metric("bench.span_cost_ns", "ns", span_cost_ns),
        metric("bench.host_gauge_ms", "ms", gauge.median_ms()),
    ]);

    println!(
        "perfbench {} seed {} traced (simulation seed {seed}): nproc {} worker_threads {} cpu {:?}",
        w.name,
        args.seed,
        host.nproc,
        width_label(width),
        host.cpu
    );
    for p in &probes.kernels {
        let (q1, q3) = stats::quartiles(&p.per_call_ns).unwrap_or((f64::NAN, f64::NAN));
        let tail = stats::highest_percentile(&p.per_call_ns)
            .map_or_else(|| "tail n/a".to_string(), |(pc, v)| format!("p{pc} {v:.1}"));
        println!(
            "  probe {:<24} median {:>11.1} ns  q1 {:.1} q3 {:.1} {tail}  n {} batches, {} calls; per call {} {}, {:.0} B {}",
            p.name,
            p.median_ns(),
            q1,
            q3,
            p.per_call_ns.len(),
            p.calls,
            p.ops_per_call,
            p.op_unit,
            p.bytes_per_call,
            p.bytes_kind
        );
    }
    for (key, ms) in phases.labelled_ms() {
        println!(
            "  run phase {key:<17} {ms:>10.1} ms  ({:.1} % of run)",
            100.0 * ms / phases.run_ms
        );
    }
    for m in &out {
        println!("  {:<40} {:>6}  {}", m.name, m.unit, m.value);
    }
    println!(
        "  tracing overhead: traced repeat {:.1} vs untraced {:.1} sessions/s ({:+.2} %, one repeat each, so within \
         host noise); recording cost {:.0} ns per span x {} spans = {:.2e} of the traced wall",
        wide.sessions_per_s(),
        untraced.sessions_per_s(),
        100.0 * (1.0 - wide.sessions_per_s() / untraced.sessions_per_s()),
        span_cost_ns,
        tracer.len(),
        span_cost_ns * tracer.len() as f64 / 1e9 / traced_wall_s
    );
    println!(
        "  digest {} (untraced, traced and width-1 repeats)",
        d.hash_hex()
    );
    print_accounting(&d);

    let other = json::object([
        ("workload", json::string(w.name)),
        ("seed", json::int(args.seed)),
        ("simulation_seed", json::int(seed)),
        ("horizon_s", json::int(w.horizon_s)),
        ("nproc", json::int(host.nproc)),
        ("cpu", json::string(&host.cpu)),
        (
            "worker_threads",
            width.map_or_else(|| "null".to_string(), json::int),
        ),
        ("digest", json::string(&d.hash_hex())),
        (
            "metrics",
            json::object(out.iter().map(|m| (m.name.as_str(), json::num(m.value)))),
        ),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", w.name, args.seed));
    std::fs::write(&path, tracer.to_chrome_json(other) + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  trace written to {}", path.display());
    Ok((checks.len(), failed, out))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let outcome = if args.trace {
        run_traced(&args, &host)
    } else {
        run_untraced(&args, &host)
    };
    match outcome {
        Ok((attempted, failed, metrics)) => {
            let correct = failed == 0;
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
