//! Scheduler decision caching.
//!
//! The §3.3 searches (SLO-demand inversion, batch re-adjustment and the
//! §3.3.2 time split) are pure functions of the session inputs and the
//! period's drift state, and the simulator's session states recur: the
//! request predictor is integer-quantised, space division rounds the
//! concurrent-session count `s` up to an integer and every allocation is
//! snapped onto the centi-GPU grid ([`crate::space`]), so gpu fractions
//! are drawn from a small recurrent set and after a short transient the
//! same `(gpu fraction, predicted requests)` pairs are presented over
//! and over. The cache memoises the search results keyed on the **exact
//! bit pattern** of the inputs, so a hit replays the identical decision.
//! The cache is always on; the scheduler has no uncached decision path.
//! Under the `strict-invariants` feature every hit reruns the search and
//! asserts that the stored value is bit-equal to the fresh one, so the
//! strict golden and chaos runs check every replay.
//!
//! Invalidation: per-app demand curves and joint batch/space choices
//! depend only on the immutable [`AppSpec`](adainf_apps::AppSpec)s, so
//! they live for the scheduler's lifetime. Time plans depend on the
//! period's RI-DAG and refreshed accuracy tables, so
//! [`DecisionCache::start_period`] drops them at every period boundary
//! (and thus on every drift-impact change).

use crate::timealloc::TimePlan;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Key for the gpu-fraction-dependent caches: `(app, requests,
/// gpu.to_bits())`. Keying on the exact bits (not a quantisation) is what
/// keeps cache hits decision-identical.
type FracKey = (usize, u32, u64);

/// Per-table entry bound. The tables memoise pure functions, so evicting
/// never changes a decision — only costs a recompute — and the bound
/// keeps a pathological key stream (e.g. non-recurrent float fractions)
/// from growing memory without limit. Eviction pops the smallest key,
/// which is deterministic for a deterministic key stream. The cap sits
/// well above the working set a quantised key stream produces (a few
/// thousand `(app, requests, fraction)` combinations): a cap *below* the
/// working set does not merely degrade — `pop_first` keeps deleting the
/// lowest-sorted live keys, so those keys miss on every lookup forever.
const TABLE_CAP: usize = 65_536;

/// A memoised value the `strict-invariants` replay check can compare
/// with a fresh computation, bit for bit.
trait Replay {
    fn same_bits(&self, fresh: &Self) -> bool;
}

impl Replay for f64 {
    fn same_bits(&self, fresh: &Self) -> bool {
        self.to_bits() == fresh.to_bits()
    }
}

impl Replay for u32 {
    fn same_bits(&self, fresh: &Self) -> bool {
        self == fresh
    }
}

impl Replay for (f64, u32) {
    fn same_bits(&self, fresh: &Self) -> bool {
        self.0.same_bits(&fresh.0) && self.1 == fresh.1
    }
}

/// Every field of a plan is an integer, a `SimDuration` or a `Vec` of
/// those, so field equality is bit equality.
impl Replay for TimePlan {
    fn same_bits(&self, fresh: &Self) -> bool {
        self == fresh
    }
}

/// The memo tables, apart from the counters so one lookup can borrow a
/// table and bump a counter at once.
#[derive(Clone, Debug, Default)]
struct Tables {
    /// `(app, requests)` → SLO-demand fraction (§3.3.1 inversion).
    /// Valid for the scheduler's lifetime.
    demand: BTreeMap<(usize, u32), f64>,
    /// `(app, requests)` → joint `(fraction, batch)` choice (§6).
    /// Valid for the scheduler's lifetime.
    joint: BTreeMap<(usize, u32), (f64, u32)>,
    /// `(app, requests, gpu)` → re-adjusted request batch (§3.3.1 step 2).
    /// Valid for the scheduler's lifetime (costs are spec-fixed).
    batch_at: BTreeMap<FracKey, u32>,
    /// `(app, requests, gpu)` → pool-independent §3.3.2 time plan.
    /// Cleared every period.
    plan: BTreeMap<FracKey, TimePlan>,
}

/// Memoisation tables for the per-session scheduling searches.
#[derive(Clone, Debug, Default)]
pub struct DecisionCache {
    tables: Tables,
    /// Lookups answered from a table.
    pub hits: u64,
    /// Lookups that ran the underlying search.
    pub misses: u64,
    /// Entries dropped to keep a table within the capacity bound
    /// (`TABLE_CAP`).
    pub evictions: u64,
}

impl DecisionCache {
    /// Drops every table whose inputs change at a period boundary.
    pub fn start_period(&mut self) {
        self.tables.plan.clear();
    }

    /// Fraction of lookups answered from a table.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// The one memo primitive behind every table: keeps the table within
    /// `TABLE_CAP`, then replays a hit or stores `compute()` on a miss.
    fn memo<K: Ord + 'static, V: Replay>(
        &mut self,
        table: fn(&mut Tables) -> &mut BTreeMap<K, V>,
        key: K,
        compute: impl FnOnce() -> V,
    ) -> &V {
        let table = table(&mut self.tables);
        // Evict *before* taking the entry: the returned reference must
        // point at the entry just looked up, never at one being dropped.
        if table.len() >= TABLE_CAP && !table.contains_key(&key) && table.pop_first().is_some() {
            self.evictions += 1;
        }
        match table.entry(key) {
            Entry::Occupied(e) => {
                self.hits += 1;
                let stored = e.into_mut();
                if cfg!(feature = "strict-invariants") {
                    assert!(
                        stored.same_bits(&compute()),
                        "strict-invariants: decision cache hit differs from a fresh computation"
                    );
                }
                stored
            }
            Entry::Vacant(e) => {
                self.misses += 1;
                e.insert(compute())
            }
        }
    }

    /// Memoised SLO-demand fraction for `(app, requests)`.
    pub fn demand(&mut self, app: usize, requests: u32, compute: impl FnOnce() -> f64) -> f64 {
        *self.memo(|t| &mut t.demand, (app, requests), compute)
    }

    /// Memoised joint `(fraction, batch)` choice for `(app, requests)`.
    pub fn joint(
        &mut self,
        app: usize,
        requests: u32,
        compute: impl FnOnce() -> (f64, u32),
    ) -> (f64, u32) {
        *self.memo(|t| &mut t.joint, (app, requests), compute)
    }

    /// `strict-invariants` check on a float cache key: the key must be a
    /// finite fraction whose bit pattern round-trips, or "same key" and
    /// "same decision inputs" stop being the same thing. Returns the bit
    /// pattern the tables key on.
    fn check_key(gpu: f64) -> u64 {
        if cfg!(feature = "strict-invariants") {
            assert!(
                gpu.is_finite(),
                "strict-invariants: non-finite gpu fraction {gpu} used as a cache key"
            );
            assert_eq!(
                f64::from_bits(gpu.to_bits()).to_bits(),
                gpu.to_bits(),
                "strict-invariants: cache key does not round-trip through to_bits"
            );
        }
        gpu.to_bits()
    }

    /// Memoised batch re-adjustment for `(app, requests, gpu)`.
    pub fn batch_at(
        &mut self,
        app: usize,
        requests: u32,
        gpu: f64,
        compute: impl FnOnce() -> u32,
    ) -> u32 {
        *self.memo(
            |t| &mut t.batch_at,
            (app, requests, Self::check_key(gpu)),
            compute,
        )
    }

    /// Memoised §3.3.2 time plan for `(app, requests, gpu)`. Returns a
    /// shared reference into the table; the caller clamps the proto
    /// slices against the live pool state.
    pub fn plan(
        &mut self,
        app: usize,
        requests: u32,
        gpu: f64,
        compute: impl FnOnce() -> TimePlan,
    ) -> &TimePlan {
        self.memo(
            |t| &mut t.plan,
            (app, requests, Self::check_key(gpu)),
            compute,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_simcore::SimDuration;

    #[test]
    fn demand_computes_once_per_key() {
        let mut cache = DecisionCache::default();
        let mut calls = 0;
        for _ in 0..3 {
            let d = cache.demand(0, 16, || {
                calls += 1;
                0.25
            });
            assert_eq!(d, 0.25);
        }
        // Strict builds rerun the search on each of the two hits to
        // check the replay; otherwise a hit never computes.
        let expected = if cfg!(feature = "strict-invariants") {
            3
        } else {
            1
        };
        assert_eq!(calls, expected);
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.misses, 1);
        // A different key computes again.
        cache.demand(0, 17, || {
            calls += 1;
            0.5
        });
        assert_eq!(calls, expected + 1);
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn plan_cleared_at_period_boundary_others_survive() {
        let mut cache = DecisionCache::default();
        let mk = || TimePlan {
            cuts: vec![2],
            batch: 8,
            inference_time: SimDuration::from_millis(10),
            proto: Vec::new(),
        };
        cache.plan(0, 16, 0.25, mk);
        cache.demand(0, 16, || 0.3);
        cache.start_period();
        let misses = cache.misses;
        cache.plan(0, 16, 0.25, mk);
        assert_eq!(
            cache.misses,
            misses + 1,
            "plans must not survive the period boundary"
        );
        let hits = cache.hits;
        cache.demand(0, 16, || 0.3);
        assert_eq!(cache.hits, hits + 1, "demand tables are spec-lifetime");
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "non-finite gpu fraction")]
    fn strict_rejects_nan_keys() {
        let mut cache = DecisionCache::default();
        cache.batch_at(0, 16, f64::NAN, || 8);
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "differs from a fresh computation")]
    fn strict_rejects_a_hit_that_replays_a_different_value() {
        let mut cache = DecisionCache::default();
        cache.batch_at(0, 16, 0.25, || 8);
        cache.batch_at(0, 16, 0.25, || 4);
    }

    #[test]
    fn tables_bounded_by_cap() {
        let mut cache = DecisionCache::default();
        let n = TABLE_CAP as u32 + 10;
        for r in 0..n {
            cache.demand(0, r, || f64::from(r));
        }
        assert_eq!(cache.evictions, 10);
        // The latest entry survives and replays its cached value.
        let hits = cache.hits;
        assert_eq!(
            cache.demand(0, n - 1, || f64::from(n - 1)),
            f64::from(n - 1)
        );
        assert_eq!(cache.hits, hits + 1);
        // Re-presenting an existing key at cap must not evict anything.
        let before = cache.evictions;
        cache.demand(0, n - 1, || f64::from(n - 1));
        assert_eq!(cache.evictions, before);
    }

    #[test]
    fn distinct_gpu_bits_are_distinct_keys() {
        let mut cache = DecisionCache::default();
        cache.batch_at(0, 16, 0.25, || 8);
        let b = cache.batch_at(0, 16, 0.250000001, || 4);
        assert_eq!(b, 4, "nearby fractions must not alias");
        let hits = cache.hits;
        assert_eq!(cache.batch_at(0, 16, 0.25, || 8), 8);
        assert_eq!(cache.hits, hits + 1);
    }
}
