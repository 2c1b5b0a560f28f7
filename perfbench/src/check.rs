//! Correctness checks on the simulated outputs.
//!
//! The simulator is a deterministic function of its configuration, so
//! every repeat of one workload and seed must produce the same
//! [`Digest`], at any pool width. The digest also carries the
//! conservation laws a run must obey on its own.

use adainf_harness::RunMetrics;

/// The simulated outputs a run must reproduce bit for bit. Floats are
/// kept as their bit patterns so equality is exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Sessions the scheduler was asked to plan.
    pub sessions: u64,
    /// Requests that arrived, served or not.
    pub total_requests: u64,
    /// Bits of the request-weighted mean per-period accuracy.
    pub mean_accuracy_bits: u64,
    /// Bits of the pooled SLO finish ratio (met / arrived).
    pub pooled_finish_bits: u64,
    /// Requests shed by admission control.
    pub shed_requests: u64,
    /// Retraining samples consumed over all (app, node) pairs.
    pub retrain_samples: u64,
    /// Decision-cache hits.
    pub cache_hits: u64,
    /// Decision-cache misses.
    pub cache_misses: u64,
}

impl Digest {
    /// The digest of one finished run.
    pub fn of(m: &RunMetrics) -> Self {
        Digest {
            sessions: m.sched_overhead.count(),
            total_requests: m.total_requests,
            mean_accuracy_bits: m.mean_accuracy().to_bits(),
            pooled_finish_bits: m.finish.pooled_ratio().to_bits(),
            shed_requests: m.shed_requests,
            retrain_samples: m.retrain_samples.iter().flatten().sum(),
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
        }
    }

    /// Request-weighted mean accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        f64::from_bits(self.mean_accuracy_bits)
    }

    /// Share of arrived requests that met their SLO.
    pub fn pooled_finish(&self) -> f64 {
        f64::from_bits(self.pooled_finish_bits)
    }

    /// Requests that met their SLO.
    pub fn met_requests(&self) -> u64 {
        (self.pooled_finish() * self.total_requests as f64).round() as u64
    }

    /// Requests that arrived, were not shed, and missed their SLO.
    pub fn missed_requests(&self) -> u64 {
        self.total_requests
            .saturating_sub(self.met_requests())
            .saturating_sub(self.shed_requests)
    }

    /// A 64-bit FNV-1a hash of every field, as 16 hex digits: one token
    /// to compare across builds.
    pub fn hash_hex(&self) -> String {
        let fields = [
            self.sessions,
            self.total_requests,
            self.mean_accuracy_bits,
            self.pooled_finish_bits,
            self.shed_requests,
            self.retrain_samples,
            self.cache_hits,
            self.cache_misses,
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Violations of the laws a single run must obey.
    pub fn violations(&self, expected_sessions: u64) -> Vec<String> {
        let mut out = Vec::new();
        if self.sessions != expected_sessions {
            out.push(format!(
                "{} sessions planned, horizon implies {expected_sessions}",
                self.sessions
            ));
        }
        let acc = self.mean_accuracy();
        if !(0.0..=1.0).contains(&acc) {
            out.push(format!("mean accuracy {acc} outside [0, 1]"));
        }
        let fin = self.pooled_finish();
        if !(0.0..=1.0).contains(&fin) {
            out.push(format!("finish ratio {fin} outside [0, 1]"));
        }
        if self.total_requests == 0 {
            out.push("no requests arrived".to_string());
        }
        if self.shed_requests > self.total_requests {
            out.push(format!(
                "{} requests shed of {} arrived",
                self.shed_requests, self.total_requests
            ));
        }
        if self.met_requests() + self.shed_requests > self.total_requests {
            out.push(format!(
                "{} met + {} shed exceeds {} arrived",
                self.met_requests(),
                self.shed_requests,
                self.total_requests
            ));
        }
        out
    }

    /// The difference to `reference`, if any, labelled with `what`.
    pub fn mismatch(&self, reference: &Digest, what: &str) -> Option<String> {
        (self != reference).then(|| {
            format!(
                "{what}: digest {} differs from reference {} ({self:?} vs {reference:?})",
                self.hash_hex(),
                reference.hash_hex()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> Digest {
        Digest {
            sessions: 40_000,
            total_requests: 1_000,
            mean_accuracy_bits: 0.87f64.to_bits(),
            pooled_finish_bits: 0.75f64.to_bits(),
            shed_requests: 200,
            retrain_samples: 5_000,
            cache_hits: 90,
            cache_misses: 10,
        }
    }

    #[test]
    fn a_consistent_run_passes() {
        let d = valid();
        assert!(d.violations(40_000).is_empty());
        assert_eq!(d.met_requests(), 750);
        assert_eq!(d.missed_requests(), 50);
        assert_eq!(d.mismatch(&valid(), "repeat"), None);
    }

    #[test]
    fn a_perturbed_digest_fails() {
        let reference = valid();
        let mut d = valid();
        d.mean_accuracy_bits += 1;
        assert!(d.mismatch(&reference, "repeat 2").is_some());
        assert_ne!(d.hash_hex(), reference.hash_hex());
        let mut d = valid();
        d.cache_hits += 1;
        assert!(d.mismatch(&reference, "width 1").is_some());
    }

    #[test]
    fn broken_conservation_laws_fail() {
        assert_eq!(valid().violations(39_999).len(), 1);
        let mut d = valid();
        d.shed_requests = 1_001;
        assert!(!d.violations(40_000).is_empty());
        let mut d = valid();
        d.mean_accuracy_bits = 1.5f64.to_bits();
        assert_eq!(d.violations(40_000).len(), 1);
        let mut d = valid();
        d.pooled_finish_bits = f64::NAN.to_bits();
        assert_eq!(d.violations(40_000).len(), 1);
        let mut d = valid();
        d.pooled_finish_bits = 0.9f64.to_bits();
        assert_eq!(d.violations(40_000).len(), 1, "900 met + 200 shed > 1000");
    }
}
