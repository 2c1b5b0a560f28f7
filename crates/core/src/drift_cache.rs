//! Per-period drift artifact cache.
//!
//! The §3.2 detection loop and the §3.3.2 retraining-order selection
//! consume the same expensive artifacts — feature matrices, a PCA fit of
//! the old training data, projections, per-class means and deviation
//! rankings — and historically recomputed them per consumer: twice inside
//! `detect_drift` (pool + reference rankings each refit the PCA) and a
//! third time for every impacted node's retraining order. This module
//! computes each node's artifacts **exactly once per period** and shares
//! them.
//!
//! Determinism: PCA-fit randomness is routed through a child [`Prng`]
//! stream derived from the scheduler's root stream via [`Prng::split`],
//! keyed by `(period, node)`. A cached fit is therefore draw-identical to
//! a refit — the artifacts are a pure function of `(pool generation,
//! model version, root stream)`, which is exactly the cache key.
//!
//! Invalidation: entries are keyed by `(app, node)` and tagged with
//! `(pool generation, model version)`. The pool generation is the
//! runtime's period counter — `advance_period` wholesale-replaces pools
//! and reference sets, so any period bump invalidates. The model version
//! bumps on every retraining slice, so a retrained model never serves
//! stale rankings.

use adainf_apps::AppRuntime;
use adainf_driftgen::LabeledSamples;
use adainf_modelzoo::TrainableModel;
use adainf_nn::metrics::cosine_distance;
use adainf_nn::pca::{Pca, PcaScratch};
use adainf_nn::{InferScratch, Matrix};
use adainf_simcore::Prng;
use std::collections::BTreeMap;

/// Stream label base for the per-`(period, node)` PCA child streams.
/// Mixed (not added) so labels cannot collide with other subsystem
/// streams split from the same root.
const PCA_STREAM: u64 = 0xD21F_7000;

/// Everything the drift pipeline needs about one `(app, node)` in one
/// period, computed in a single pass over the data. `PartialEq`
/// compares the rankings exactly and the matrices element-wise — the
/// parallel ≡ sequential property tests additionally assert `to_bits`
/// equality on the float payloads to rule out signed-zero drift.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriftArtifacts {
    /// Pool-sample indices by descending deviation from the old training
    /// data (§3.2) — a permutation of `0..pool.len()`.
    pub deviation: Vec<usize>,
    /// The §3.3.2 retraining consumption order: the deviation ranking's
    /// most-deviating half interleaved 1:1 with the remainder.
    pub retrain: Vec<usize>,
    /// Held-out reference samples ranked by the same deviation metric.
    pub ref_order: Vec<usize>,
    /// `pool_prefix[i]` = correct predictions (at the full cut) among the
    /// first `i` samples of `deviation`, with `pool_prefix[0] == 0`.
    /// Prefix accuracy is `prefix[take] / take`, bit-equal to
    /// `accuracy_on` over the same prefix subset. Extended **lazily** via
    /// [`Self::pool_prefix_at`] to the deepest `take` any consumer has
    /// asked for — the `S`-growth loop usually stops well short of the
    /// full pool, so samples past its deepest cut are never predicted.
    pub pool_prefix: Vec<u32>,
    /// Same lazily-extended prefix-sum over `ref_order` for the held-out
    /// reference set (see [`Self::ref_prefix_at`]).
    pub ref_prefix: Vec<u32>,
    /// The fitted PCA basis (one unit row per component), kept as the
    /// warm-start seed for the next period's fit of the same
    /// `(app, node)`. Empty when the node had no old data to fit.
    pub basis: Matrix,
    /// The pool's feature matrix at this entry's model version, kept as
    /// the next period's old-feature matrix: `advance_period` moves the
    /// pool verbatim into `old_samples`, and features are a pure
    /// function of (model weights, samples) — so at an unchanged model
    /// version the carried matrix is bit-identical to recomputing
    /// `features(old)`. Empty when the node had no old data (the build
    /// early-returns before any feature pass).
    pub pool_features: Matrix,
}

/// Extends a correctness prefix-sum to cover `take` samples of `order`,
/// predicting only the not-yet-covered chunk. The head forward pass is
/// row-independent, so predicting `order[done..take]` as its own batch
/// yields the same per-sample predictions as any other batching — the
/// running count is bit-equal to a full-set pass however it is grown.
/// The chunk rows are gathered into `scratch` and predicted through the
/// scratch-based forward pass: no subset clone, no per-layer
/// allocations, bit-identical predictions.
///
/// When the caller holds the samples' first-layer feature matrix (the
/// artifact build already computed it for the ranking), `features`
/// short-circuits the forward pass: the chunk gathers feature rows
/// instead of input rows and the prediction resumes above the first
/// trunk layer — bit-identical by the feature-carry identity, one dense
/// layer cheaper per predicted sample.
#[allow(clippy::too_many_arguments)]
fn extend_prefix(
    prefix: &mut Vec<u32>,
    rt: &AppRuntime,
    node: usize,
    samples: &LabeledSamples,
    features: Option<&Matrix>,
    order: &[usize],
    take: usize,
    scratch: &mut DetectScratch,
) {
    if prefix.len() > take || samples.is_empty() {
        return;
    }
    let model = &rt.models[node];
    let done = prefix.len() - 1;
    let cut = model.profile.full_cut();
    let preds = match features.filter(|f| f.rows() == samples.len()) {
        Some(f) => {
            scratch.chunk.gather_rows_from(f, &order[done..take]);
            model.predict_from_features_with_scratch(&scratch.chunk, cut, &mut scratch.infer)
        }
        None => {
            scratch
                .chunk
                .gather_rows_from(&samples.inputs, &order[done..take]);
            model.predict_with_scratch(&scratch.chunk, cut, &mut scratch.infer)
        }
    };
    let mut acc = prefix[done];
    for (p, &i) in preds.iter().zip(&order[done..take]) {
        acc += u32::from(*p == samples.labels[i]);
        prefix.push(acc);
    }
}

impl DriftArtifacts {
    /// Correct-count over the first `take` samples of the deviation
    /// ranking, extending the lazy prefix-sum as far as needed.
    pub fn pool_prefix_at(
        &mut self,
        rt: &AppRuntime,
        node: usize,
        take: usize,
        scratch: &mut DetectScratch,
    ) -> u32 {
        let samples = rt.pools[node].samples();
        extend_prefix(
            &mut self.pool_prefix,
            rt,
            node,
            samples,
            Some(&self.pool_features),
            &self.deviation,
            take,
            scratch,
        );
        self.pool_prefix[take]
    }

    /// Correct-count over the first `take` samples of the reference
    /// ranking, extending the lazy prefix-sum as far as needed.
    pub fn ref_prefix_at(
        &mut self,
        rt: &AppRuntime,
        node: usize,
        take: usize,
        scratch: &mut DetectScratch,
    ) -> u32 {
        let samples = rt.ref_samples(node);
        extend_prefix(
            &mut self.ref_prefix,
            rt,
            node,
            samples,
            None,
            &self.ref_order,
            take,
            scratch,
        );
        self.ref_prefix[take]
    }

    /// `strict-invariants` structural checks: the orders are permutations
    /// of their sample ranges and the prefix-sums are monotone running
    /// counts no longer than their sample range — the properties the
    /// S-growth loop and the pool consumer rely on without re-validating
    /// per lookup.
    fn check_invariants(&self, pool_len: usize, ref_len: usize) {
        let is_permutation = |order: &[usize], n: usize| {
            let mut seen = vec![false; n];
            order.len() == n
                && order
                    .iter()
                    .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
        };
        assert!(
            is_permutation(&self.deviation, pool_len),
            "strict-invariants: deviation order is not a permutation of the pool"
        );
        assert!(
            is_permutation(&self.retrain, pool_len),
            "strict-invariants: retrain order is not a permutation of the pool"
        );
        assert!(
            is_permutation(&self.ref_order, ref_len),
            "strict-invariants: reference order is not a permutation of the held-out set"
        );
        let is_prefix_count = |prefix: &[u32], n: usize| {
            !prefix.is_empty()
                && prefix.len() <= n + 1
                && prefix[0] == 0
                && prefix.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1)
        };
        assert!(
            is_prefix_count(&self.pool_prefix, pool_len),
            "strict-invariants: pool prefix-sum is not a running correctness count"
        );
        assert!(
            is_prefix_count(&self.ref_prefix, ref_len),
            "strict-invariants: reference prefix-sum is not a running correctness count"
        );
    }
}

/// Reusable buffers for [`build_artifacts`]: PCA scratch, feature and
/// projection matrices, the scored index list and the inference
/// ping-pong buffers of the lazy prefix extension. One instance serves
/// every node of every app — artifacts are built one at a time.
#[derive(Clone, Debug, Default)]
pub struct DetectScratch {
    pca: PcaScratch,
    /// Reference-set feature matrix.
    ref_feats: Matrix,
    projected: Matrix,
    scored: Vec<(usize, f64)>,
    /// Gathered ranked-subset rows for the prefix extension.
    chunk: Matrix,
    /// Forward-pass ping-pong buffers for the prefix extension.
    infer: InferScratch,
}

/// The exact inputs one node's artifact build reads, factored out of
/// [`AppRuntime`] so the same build code runs against two sources:
/// live runtime borrows (the uncached [`build_artifacts`]) and owned
/// snapshots (every cache build, [`DriftSnapshot`]). A build is a pure
/// function of these five values plus the warm/carry state and the root
/// stream — the equality that makes a cached entry bit-identical to a
/// fresh build.
pub struct DriftInputs<'a> {
    /// Previous period's training pool — the distribution deviated from.
    pub old: &'a LabeledSamples,
    /// Current pool, ranked by deviation.
    pub pool: &'a LabeledSamples,
    /// Held-out reference set, ranked by the same metric.
    pub held_out: &'a LabeledSamples,
    /// The node's model at the build's version tag.
    pub model: &'a TrainableModel,
    /// Pool generation, keying the PCA child stream.
    pub period: u64,
}

impl<'a> DriftInputs<'a> {
    /// The live-borrow view of `(rt, node)` — what an uncached build
    /// reads directly out of the runtime.
    pub fn from_runtime(rt: &'a AppRuntime, node: usize) -> Self {
        DriftInputs {
            old: rt.old_samples(node),
            pool: rt.pools[node].samples(),
            held_out: rt.ref_samples(node),
            model: &rt.models[node],
            period: rt.period(),
        }
    }
}

/// Mean projected old-feature vector per class, accumulated in one
/// ascending pass over the labels. Classes unseen in the old data fall
/// back to the global mean. Bit-identical to a per-class rescan: each
/// class's sum still adds rows in ascending row order.
pub fn class_means(projected: &Matrix, labels: &[usize], classes: usize) -> Vec<Vec<f32>> {
    let k = projected.cols();
    let global_mean = projected.col_means();
    let mut sums = vec![0.0f32; classes * k];
    let mut counts = vec![0usize; classes];
    for (i, &label) in labels.iter().enumerate() {
        counts[label] += 1;
        for (m, v) in sums[label * k..(label + 1) * k]
            .iter_mut()
            .zip(projected.row(i))
        {
            *m += v;
        }
    }
    (0..classes)
        .map(|c| {
            if counts[c] == 0 {
                global_mean.clone()
            } else {
                sums[c * k..(c + 1) * k]
                    .iter()
                    .map(|&s| s / counts[c] as f32)
                    .collect()
            }
        })
        .collect()
}

/// Ranks `new` samples by descending cosine deviation of their projected
/// (pre-computed) feature vectors from the per-class means of the old
/// data.
fn rank_features(
    new: &LabeledSamples,
    features: &Matrix,
    pca: &Pca,
    means: &[Vec<f32>],
    projected: &mut Matrix,
    scored: &mut Vec<(usize, f64)>,
) -> Vec<usize> {
    if new.is_empty() {
        return Vec::new();
    }
    pca.transform_into(features, projected);
    scored.clear();
    scored.extend((0..new.len()).map(|i| {
        let mean = &means[new.labels[i]];
        (i, cosine_distance(projected.row(i), mean))
    }));
    // total_cmp would reorder signed zeros and perturb the golden metrics.
    // The unstable sort with the ascending-index tiebreak reproduces the
    // stable descending sort exactly: `scored` is built in ascending `i`,
    // so stable order within an equal-distance group IS ascending `i` —
    // the tiebreak — while skipping the stable sort's merge buffer.
    scored.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            // simlint: allow(no-unwrap-in-lib) — cosine distances of unit-normalised rows are finite by construction
            .expect("finite distances")
            .then(a.0.cmp(&b.0))
    });
    scored.iter().map(|&(i, _)| i).collect()
}

/// Interleaves the deviation ranking into the §3.3.2 retraining order:
/// most-deviating half 1:1 with the remainder, odd tail appended.
fn interleave(ranked: &[usize]) -> Vec<usize> {
    let n = ranked.len();
    let half = n / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..half {
        out.push(ranked[i]);
        if half + i < n {
            out.push(ranked[half + i]);
        }
    }
    if n % 2 == 1 {
        out.push(ranked[n - 1]);
    }
    out
}

/// The deviation rankings of the pool and the held-out reference set,
/// from one feature pass over the old data and **one** shared PCA fit,
/// plus the fitted basis for warm-starting the next period and the
/// pool's feature matrix for carrying into the next period's
/// old-feature slot.
///
/// `carry` is an owned buffer with two roles. When its row count matches
/// the old set, it is the previous period's pool-feature matrix at an
/// unchanged model version: `advance_period` moves the pool verbatim
/// into the old set and features are a pure function of (model weights,
/// samples), so reading it instead of recomputing `features(old)` is
/// bit-identical. Otherwise only its allocation is reused (callers clear
/// invalid carries to zero rows). Either way the same buffer is then
/// overwritten with the pool's features — the old features are dead once
/// the projections are done — and returned as the artifact's
/// next-period carry, so the steady state recycles one feature
/// allocation per `(app, node)` instead of faulting in a fresh matrix
/// every period.
fn rankings(
    inputs: &DriftInputs<'_>,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
    warm: Option<&Matrix>,
    carry: Matrix,
) -> (Vec<usize>, Vec<usize>, Matrix, Matrix) {
    let &DriftInputs {
        old,
        pool,
        held_out,
        model,
        period,
    } = inputs;
    if old.is_empty() {
        // No old data to deviate from: identity orders, nothing fitted.
        return (
            (0..pool.len()).collect(),
            (0..held_out.len()).collect(),
            Matrix::default(),
            Matrix::default(),
        );
    }
    let DetectScratch {
        pca: pca_scratch,
        ref_feats,
        projected,
        scored,
        ..
    } = scratch;
    let mut feats = carry;
    if feats.rows() != old.len() {
        model.features_into(old, &mut feats);
    }
    let mut rng = root.split(PCA_STREAM ^ (period << 16) ^ node as u64);
    let pca = Pca::fit_warm_with_scratch(&feats, pca_components, &mut rng, pca_scratch, warm);
    pca.transform_into(&feats, projected);
    let means = class_means(projected, &old.labels, model.classes());
    // The old features are dead from here on: overwrite the buffer with
    // the pool's features and hand it back as the next-period carry.
    model.features_into(pool, &mut feats);
    let deviation = rank_features(pool, &feats, &pca, &means, projected, scored);
    model.features_into(held_out, ref_feats);
    let ref_order = rank_features(held_out, ref_feats, &pca, &means, projected, scored);
    (deviation, ref_order, pca.into_components(), feats)
}

/// Builds one node's ranked artifact set — both deviation rankings and
/// the retraining interleave — with the correctness prefix-sums left at
/// their seed (`[0]`), to be extended lazily by
/// [`DriftArtifacts::pool_prefix_at`] / [`DriftArtifacts::ref_prefix_at`]
/// as deep as the detection loop actually reads.
///
/// PCA randomness comes from `root.split(...)` keyed by the runtime's
/// period and the node, never from an advancing caller stream — so the
/// result is reproducible from the key and the warm-start basis alone:
/// replaying a build with the same `warm` input is bit-identical.
fn build_ranked(
    inputs: &DriftInputs<'_>,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
    warm: Option<&Matrix>,
    carry: Matrix,
) -> DriftArtifacts {
    let (deviation, ref_order, basis, pool_features) =
        rankings(inputs, node, pca_components, root, scratch, warm, carry);
    let retrain = interleave(&deviation);
    let artifacts = DriftArtifacts {
        deviation,
        retrain,
        ref_order,
        pool_prefix: vec![0],
        ref_prefix: vec![0],
        basis,
        pool_features,
    };
    if cfg!(feature = "strict-invariants") {
        artifacts.check_invariants(inputs.pool.len(), inputs.held_out.len());
    }
    artifacts
}

/// Builds one node's complete artifact set: one feature pass over the old
/// data, **one** shared PCA fit, one projection per sample set, one
/// deviation ranking each for the pool and the held-out reference, the
/// retraining interleave and both correctness prefix-sums extended to
/// their full sample sets.
pub fn build_artifacts(
    rt: &AppRuntime,
    node: usize,
    pca_components: usize,
    root: &Prng,
    scratch: &mut DetectScratch,
) -> DriftArtifacts {
    let inputs = DriftInputs::from_runtime(rt, node);
    let mut artifacts = build_ranked(&inputs, node, pca_components, root, scratch, None, Matrix::default());
    let pool_len = artifacts.deviation.len();
    let ref_len = artifacts.ref_order.len();
    if pool_len > 0 {
        artifacts.pool_prefix_at(rt, node, pool_len, scratch);
    }
    if ref_len > 0 {
        artifacts.ref_prefix_at(rt, node, ref_len, scratch);
    }
    artifacts
}

/// An owned snapshot of everything one stale `(app, node)` artifact
/// build reads — the unit of work of every cache build: the background
/// stage gets them from [`DriftCache::snapshot_stale`], and a lookup
/// that misses builds one on the caller. Owning clones (rather than
/// borrowing the runtime) is what lets the build run on a worker while
/// the caller goes on mutating the runtime (the accuracy refresh, the
/// detection sweep's pool reorders): the snapshot's inputs are frozen
/// at the boundary key. The clone cost is a few feature-matrix-sized
/// `memcpy`s — ~2 % of the build it moves off the critical path.
#[derive(Clone)]
pub struct DriftSnapshot {
    /// The `(app, node)` cache slot this build refreshes.
    pub slot: (usize, usize),
    /// The `(pool generation, model version)` tag pinned at snapshot
    /// time.
    pub key: (u64, u64),
    period: u64,
    old: LabeledSamples,
    pool: LabeledSamples,
    held_out: LabeledSamples,
    model: TrainableModel,
    warm: Option<Matrix>,
    carry: Matrix,
    root: Prng,
}

/// A completed background build, ready for
/// [`DriftCache::insert_built`].
pub struct BuiltArtifacts {
    /// The `(app, node)` cache slot to install into.
    pub slot: (usize, usize),
    key: (u64, u64),
    /// Whether the build warm-started its PCA fit.
    warm_started: bool,
    /// The built artifact set.
    pub artifacts: DriftArtifacts,
}

impl DriftSnapshot {
    /// Runs the artifact build against the snapshotted inputs — the
    /// same build on a worker or on the caller, because it reads only
    /// the [`DriftInputs`] values the snapshot pinned.
    pub fn build(self, pca_components: usize, scratch: &mut DetectScratch) -> BuiltArtifacts {
        let inputs = DriftInputs {
            old: &self.old,
            pool: &self.pool,
            held_out: &self.held_out,
            model: &self.model,
            period: self.period,
        };
        let artifacts = build_ranked(
            &inputs,
            self.slot.1,
            pca_components,
            &self.root,
            scratch,
            self.warm.as_ref(),
            self.carry,
        );
        BuiltArtifacts {
            slot: self.slot,
            key: self.key,
            warm_started: self.warm.is_some(),
            artifacts,
        }
    }
}

/// One cache slot: the tag it was built for and the artifacts
/// themselves.
#[derive(Clone, Debug)]
struct CacheEntry {
    /// `(pool generation, model version)` the artifacts were built at.
    key: (u64, u64),
    artifacts: DriftArtifacts,
}

impl CacheEntry {
    /// The warm-start input a build at `key` should consume given this
    /// prior entry (only stale entries are rebuilt, so `key` is never
    /// this entry's own).
    ///
    /// * Next pool generation at an unchanged model version — the
    ///   previous period's basis is a valid warm start: the old-sample
    ///   distribution moves gradually, so the dominant subspace barely
    ///   rotates.
    /// * Anything else — a model-version bump (retraining rotated the
    ///   feature space) or a generation jump — invalidates the warm
    ///   state; the build falls back to the keyed random start.
    fn warm_for(&self, key: (u64, u64)) -> Option<Matrix> {
        let usable = self.key.1 == key.1
            && self.key.0 + 1 == key.0
            && self.artifacts.basis.rows() > 0;
        usable.then(|| self.artifacts.basis.clone())
    }

    /// Whether this entry's pool-feature matrix is a bit-valid
    /// old-feature carry for a build at `key`: adjacent pool generation
    /// at an unchanged model version — the exact condition under which
    /// `advance_period`'s pool→old move makes the carried matrix
    /// bit-identical to recomputing `features(old)`. An invalid carry
    /// never changes results (the build recomputes the identical
    /// matrix); the evicted matrix's *allocation* is recycled as the
    /// build's feature buffer either way.
    fn carry_valid(&self, key: (u64, u64)) -> bool {
        self.key.1 == key.1
            && self.key.0 + 1 == key.0
            && self.artifacts.pool_features.rows() > 0
    }

    /// Takes the evicted pool-feature matrix out of this entry for reuse
    /// by the replacing build: bit-valid carry contents when
    /// [`Self::carry_valid`] holds, otherwise a cleared buffer whose
    /// warmed-up allocation the build overwrites — either way the
    /// replacing build faults in no fresh feature pages.
    fn take_carry(&mut self, key: (u64, u64)) -> Matrix {
        let valid = self.carry_valid(key);
        let mut carry = std::mem::take(&mut self.artifacts.pool_features);
        if !valid {
            carry.reset_zeroed(0, 0);
        }
        carry
    }
}

/// The per-period artifact cache. Entries are keyed by `(app, node)` and
/// tagged with `(pool generation, model version)`; a tag mismatch
/// rebuilds in place, so the map never outgrows `apps × nodes` entries.
/// Rebuilds warm-start their PCA fit from the previous period's basis
/// when the model version is unchanged (see `CacheEntry::warm_for`).
#[derive(Clone, Debug, Default)]
pub struct DriftCache {
    entries: BTreeMap<(usize, usize), CacheEntry>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Artifact sets built, on a lookup or in the background stage.
    pub misses: u64,
    /// The subset of `misses` a lookup built on the caller's thread.
    pub lookup_builds: u64,
    /// Rebuilds that warm-started their PCA fit from a previous basis.
    pub warm_starts: u64,
    scratch: DetectScratch,
}

impl DriftCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The artifacts of `(app, node)` for the runtime's current period
    /// and model version, building them on the caller's thread on a
    /// miss — through the same snapshot → [`DriftSnapshot::build`] →
    /// [`Self::insert_built`] path the background stage takes.
    pub fn artifacts(
        &mut self,
        app: usize,
        rt: &AppRuntime,
        node: usize,
        pca_components: usize,
        root: &Prng,
    ) -> &DriftArtifacts {
        match self.snapshot(app, node, rt, root) {
            None => self.hits += 1,
            Some(snap) => {
                self.lookup_builds += 1;
                let built = snap.build(pca_components, &mut self.scratch);
                self.insert_built(built);
            }
        }
        &self.entries[&(app, node)].artifacts
    }

    /// An owned [`DriftSnapshot`] of `(app, node)` at the runtime's
    /// current `(pool generation, model version)` key, or `None` when
    /// the cached entry is already current. The warm/carry state is
    /// taken from the slot's evicted entry, so the slot must be
    /// refilled through [`Self::insert_built`] before its next lookup.
    fn snapshot(
        &mut self,
        app: usize,
        node: usize,
        rt: &AppRuntime,
        root: &Prng,
    ) -> Option<DriftSnapshot> {
        let key = (rt.period(), rt.models[node].version());
        let prior = self.entries.get_mut(&(app, node));
        if prior.as_ref().is_some_and(|e| e.key == key) {
            return None;
        }
        let (warm, carry) = match prior {
            Some(e) => (e.warm_for(key), e.take_carry(key)),
            None => (None, Matrix::default()),
        };
        Some(DriftSnapshot {
            slot: (app, node),
            key,
            period: rt.period(),
            old: rt.old_samples(node).clone(),
            pool: rt.pools[node].samples().clone(),
            held_out: rt.ref_samples(node).clone(),
            model: rt.models[node].clone(),
            warm,
            carry,
            root: root.clone(),
        })
    }

    /// Resolves the stale subset of `jobs` into **owned**
    /// [`DriftSnapshot`]s, in job order — the handoff step of the
    /// overlapped period pipeline. Each snapshot clones exactly the
    /// inputs its build reads (old/pool/reference sample sets, the
    /// model at its version tag) plus the warm/carry state taken from
    /// the evicted entry, so the build can run on a background worker
    /// while the caller keeps mutating the live runtime:
    /// the snapshot pins the `(pool generation, model version)` key the
    /// artifacts are defined over, which is why the background result
    /// is bit-identical to a lookup-time build at the same key. Entries
    /// that are already current are skipped (they hit on the next
    /// [`Self::artifacts`] lookup).
    ///
    /// Warm inputs and carries are resolved here, on the caller's
    /// thread, from the *previous* period's entries, so builds of the
    /// same period never feed each other and each build is an
    /// independent pure function of its snapshot.
    ///
    /// Every returned snapshot must come back through
    /// [`Self::insert_built`] before the next lookup of its slot —
    /// the background stage's ledger enforces the join, and the carry
    /// matrices taken here would otherwise be lost.
    pub fn snapshot_stale(
        &mut self,
        jobs: &[(usize, usize)],
        apps: &[AppRuntime],
        root: &Prng,
    ) -> Vec<DriftSnapshot> {
        jobs.iter()
            .filter_map(|&(app, node)| self.snapshot(app, node, &apps[app], root))
            .collect()
    }

    /// Installs one background-built result, bumping the same counters
    /// a build on a lookup miss would. Callers insert in job order, so
    /// the cache state (entries, counters, warm chains) ends
    /// bit-identical to sequential lookups'.
    pub fn insert_built(&mut self, built: BuiltArtifacts) {
        self.misses += 1;
        self.warm_starts += u64::from(built.warm_started);
        self.entries.insert(
            built.slot,
            CacheEntry {
                key: built.key,
                artifacts: built.artifacts,
            },
        );
    }

    /// Shared view of an already-built entry; `None` when
    /// [`Self::artifacts`] has not run for `(app, node)` yet.
    pub fn get(&self, app: usize, node: usize) -> Option<&DriftArtifacts> {
        self.entries.get(&(app, node)).map(|e| &e.artifacts)
    }

    /// Mutable view of an already-built entry, for lazily extending its
    /// prefix-sums in place (the extension is value-preserving, so a
    /// later hit replays exactly what a fresh build would produce).
    pub fn get_mut(&mut self, app: usize, node: usize) -> Option<&mut DriftArtifacts> {
        self.entries.get_mut(&(app, node)).map(|e| &mut e.artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adainf_apps::catalog;
    use adainf_driftgen::workload::ArrivalConfig;

    fn drifted_runtime(periods: usize) -> AppRuntime {
        let root = Prng::new(314);
        let mut rt = AppRuntime::new(
            catalog::video_surveillance(0),
            ArrivalConfig::default(),
            400,
            &root,
        );
        for _ in 0..periods {
            rt.advance_period();
        }
        rt
    }

    /// The old `rank_against` computed class means with one full rescan
    /// of the labels per class; the single-pass accumulator must produce
    /// bit-identical means.
    #[test]
    fn single_pass_class_means_match_per_class_rescan() {
        let mut rng = Prng::new(21);
        let n = 200;
        let k = 6;
        let classes = 5;
        let data: Vec<f32> = (0..n * k).map(|_| rng.gauss() as f32).collect();
        let projected = Matrix::from_slice(n, k, &data);
        // Class 4 deliberately unseen: must fall back to the global mean.
        let labels: Vec<usize> = (0..n).map(|i| i % (classes - 1)).collect();

        // Reference: the old per-class rescan, verbatim.
        let global_mean = projected.col_means();
        let mut expect = vec![global_mean.clone(); classes];
        let mut counts = vec![0usize; classes];
        for &label in &labels {
            counts[label] += 1;
        }
        for (c, out) in expect.iter_mut().enumerate() {
            if counts[c] == 0 {
                continue;
            }
            let mut mean = vec![0.0f32; k];
            for (i, &label) in labels.iter().enumerate() {
                if label == c {
                    for (m, v) in mean.iter_mut().zip(projected.row(i)) {
                        *m += v;
                    }
                }
            }
            for m in &mut mean {
                *m /= counts[c] as f32;
            }
            *out = mean;
        }

        let got = class_means(&projected, &labels, classes);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            let gb: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
            let eb: Vec<u32> = e.iter().map(|x| x.to_bits()).collect();
            assert_eq!(gb, eb, "class means diverge");
        }
    }

    #[test]
    fn prefix_sums_match_accuracy_on_prefix_subsets() {
        let rt = drifted_runtime(2);
        let root = Prng::new(99);
        let mut scratch = DetectScratch::default();
        for node in 0..rt.spec.nodes.len() {
            let art = build_artifacts(&rt, node, 8, &root, &mut scratch);
            let pool = rt.pools[node].samples();
            let model = &rt.models[node];
            assert_eq!(art.pool_prefix.len(), pool.len() + 1);
            for take in [1, pool.len() / 3, pool.len()] {
                if take == 0 {
                    continue;
                }
                let subset = pool.select(&art.deviation[..take]);
                let direct = model.accuracy_on(&subset, model.profile.full_cut());
                let via_prefix = art.pool_prefix[take] as f64 / take as f64;
                assert_eq!(
                    direct.to_bits(),
                    via_prefix.to_bits(),
                    "node {node} take {take}"
                );
            }
        }
    }

    #[test]
    fn cached_artifacts_bit_equal_fresh_build() {
        let rt = drifted_runtime(2);
        let root = Prng::new(7);
        let mut cache = DriftCache::new();
        let first = cache.artifacts(0, &rt, 1, 8, &root).clone();
        assert_eq!(cache.misses, 1);
        let hit = cache.artifacts(0, &rt, 1, 8, &root).clone();
        assert_eq!(cache.hits, 1);
        // A hit must replay the build exactly, and an independent fresh
        // build from the same root stream must agree bit-for-bit.
        let fresh = build_artifacts(&rt, 1, 8, &root, &mut DetectScratch::default());
        assert_eq!(first.deviation, fresh.deviation);
        assert_eq!(first.retrain, fresh.retrain);
        assert_eq!(first.ref_order, fresh.ref_order);
        assert_eq!(hit.deviation, fresh.deviation);
        // Lazily extending the cached entry — in two steps, through a
        // hit — must land on the same prefix-sums as the eager build.
        let art = cache.get_mut(0, 1).expect("entry present");
        let mut scratch = DetectScratch::default();
        let half = fresh.deviation.len() / 2;
        art.pool_prefix_at(&rt, 1, half, &mut scratch);
        art.pool_prefix_at(&rt, 1, fresh.deviation.len(), &mut scratch);
        art.ref_prefix_at(&rt, 1, fresh.ref_order.len(), &mut scratch);
        assert_eq!(art.pool_prefix, fresh.pool_prefix);
        assert_eq!(art.ref_prefix, fresh.ref_prefix);
    }

    #[test]
    fn cache_invalidates_on_period_and_version_bumps() {
        let mut rt = drifted_runtime(1);
        let root = Prng::new(7);
        let mut cache = DriftCache::new();
        cache.artifacts(0, &rt, 1, 8, &root);
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // Pool-generation bump: new period → rebuild.
        rt.advance_period();
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (1, 2));
        // Model-version bump: retraining → rebuild.
        let slice = rt.pools[1].samples().clone();
        rt.models[1].train_slice(&slice, 1);
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (1, 3));
        // Stable key afterwards: hit again.
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!((cache.hits, cache.misses), (2, 3));
    }

    /// The overlapped pipeline's handoff: boundary snapshots built on
    /// the background pool, joined in an adversarial (reverse) order and
    /// installed in job order, must leave the cache — entries, counters
    /// and warm chains — bit-identical to sequential lookups, at every
    /// thread count.
    #[test]
    fn background_snapshot_stage_bit_equal_sequential_lookups() {
        use adainf_simcore::parallel::fan_out;
        let root = Prng::new(7);
        for threads in [1, 2, 4, 8] {
            let mut rt = drifted_runtime(1);
            let mut seq = DriftCache::new();
            let mut bg = DriftCache::new();
            // Two generations so the second stage exercises warm starts
            // and feature carries through the snapshot path.
            for _ in 0..2 {
                let nodes = rt.spec.nodes.len();
                let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
                let snaps = bg.snapshot_stale(&jobs, std::slice::from_ref(&rt), &root);
                let n = snaps.len();
                assert_eq!(n, nodes, "all slots stale at a fresh generation");
                let built = fan_out(
                    snaps,
                    threads,
                    DetectScratch::default,
                    |_, snap: DriftSnapshot, scratch: &mut DetectScratch| snap.build(8, scratch),
                    |stage| {
                        let mut built: Vec<Option<BuiltArtifacts>> = (0..n).map(|_| None).collect();
                        for idx in (0..n).rev() {
                            built[idx] = Some(stage.take(idx));
                        }
                        built
                    },
                );
                for b in built.into_iter().flatten() {
                    bg.insert_built(b);
                }
                for node in 0..nodes {
                    let s = seq.artifacts(0, &rt, node, 8, &root).clone();
                    let p = bg.artifacts(0, &rt, node, 8, &root);
                    assert_eq!(&s, p, "threads {threads} node {node}");
                }
                rt.advance_period();
            }
            assert_eq!(seq.misses, bg.misses, "threads {threads}");
            assert_eq!(seq.warm_starts, bg.warm_starts, "threads {threads}");
            assert!(bg.warm_starts > 0, "second generation must warm-start");
        }
    }

    /// Adversarial schedule replay over the snapshot handoff: forced
    /// claim-order permutations and worker assignments (fan_out_check)
    /// over the snapshot builds must reproduce the lookup-time builds
    /// bit-for-bit — a build secretly depending on execution order or
    /// worker identity fails loudly here.
    #[test]
    fn snapshot_handoff_survives_adversarial_schedules() {
        use adainf_simcore::parallel::fan_out_check;
        let rt = drifted_runtime(2);
        let root = Prng::new(7);
        let mut cache = DriftCache::new();
        let nodes = rt.spec.nodes.len();
        let jobs: Vec<(usize, usize)> = (0..nodes).map(|n| (0, n)).collect();
        let snaps = cache.snapshot_stale(&jobs, std::slice::from_ref(&rt), &root);
        assert_eq!(snaps.len(), nodes);
        let built = fan_out_check(11, 3, &[1, 2, 4], snaps.len(), DetectScratch::default, |i, scratch| {
            snaps[i].clone().build(8, scratch).artifacts
        });
        let mut lookups = DriftCache::new();
        for (node, art) in built.iter().enumerate() {
            let reference = lookups.artifacts(0, &rt, node, 8, &root);
            assert_eq!(art, reference, "node {node}");
        }
    }

    /// Warm state survives exactly one period step at a fixed model
    /// version, and dies on a model-version bump or a generation jump.
    #[test]
    fn warm_start_invalidates_on_version_and_generation_bumps() {
        let root = Prng::new(7);

        // Adjacent periods, same model version: warm start.
        let mut rt = drifted_runtime(1);
        let mut cache = DriftCache::new();
        cache.artifacts(0, &rt, 1, 8, &root);
        rt.advance_period();
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!(cache.warm_starts, 1, "adjacent period must warm-start");

        // Model-version bump alongside the period step: cold restart.
        let mut rt = drifted_runtime(1);
        let mut cache = DriftCache::new();
        cache.artifacts(0, &rt, 1, 8, &root);
        rt.advance_period();
        let slice = rt.pools[1].samples().clone();
        rt.models[1].train_slice(&slice, 1);
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!(cache.warm_starts, 0, "version bump must invalidate");

        // Generation jump (two periods between builds): cold restart.
        let mut rt = drifted_runtime(1);
        let mut cache = DriftCache::new();
        cache.artifacts(0, &rt, 1, 8, &root);
        rt.advance_period();
        rt.advance_period();
        cache.artifacts(0, &rt, 1, 8, &root);
        assert_eq!(cache.warm_starts, 0, "generation jump must invalidate");
    }
}
