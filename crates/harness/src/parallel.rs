//! Parallel experiment execution.
//!
//! Simulation runs are completely independent (each owns its RNG streams,
//! applications and scheduler), so comparison suites and parameter sweeps
//! fan out across OS threads. Results return in input order.

use crate::metrics::RunMetrics;
use crate::sim::{run, RunConfig};
use adainf_simcore::parallel::fan_out_collect;

/// Runs every configuration, using up to `threads` worker threads
/// (0 = one per configuration, capped at the available parallelism).
///
/// Work distribution is the pool of [`adainf_simcore::parallel`]: each
/// configuration moves to the worker that claims it, and workers claim
/// dynamically, so a sweep mixing short and long runs stays balanced.
pub fn run_many(configs: Vec<RunConfig>, threads: usize) -> Vec<RunMetrics> {
    fan_out_collect(configs, threads, || (), |_, config, ()| run(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Method;
    use adainf_core::AdaInfConfig;
    use adainf_simcore::SimDuration;

    fn tiny(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            duration: SimDuration::from_secs(60),
            num_apps: 2,
            pool_size: 300,
            method: Method::AdaInf(AdaInfConfig::default()),
            ..RunConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs = vec![tiny(1), tiny(2), tiny(3)];
        let seq: Vec<_> = configs.clone().into_iter().map(crate::sim::run).collect();
        let par = run_many(configs, 3);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.total_requests, b.total_requests);
            assert!((a.mean_accuracy() - b.mean_accuracy()).abs() < 1e-12);
        }
    }

    #[test]
    fn preserves_input_order() {
        let par = run_many(vec![tiny(10), tiny(20)], 2);
        let a = crate::sim::run(tiny(10));
        assert_eq!(par[0].total_requests, a.total_requests);
    }

    #[test]
    fn empty_and_single_are_fine() {
        assert!(run_many(vec![], 4).is_empty());
        assert_eq!(run_many(vec![tiny(5)], 4).len(), 1);
    }
}
