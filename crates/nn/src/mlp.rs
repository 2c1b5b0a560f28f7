//! Early-exit multi-layer perceptrons.
//!
//! An [`EarlyExitMlp`] is a trunk of ReLU dense layers with a softmax
//! classification head attached after *every* trunk layer (deep
//! supervision, the BranchyNet/SPINN construction the paper's early-exit
//! structures follow \[22\]). Inference can stop at any exit: earlier exits
//! are cheaper but less accurate — exactly the trade-off AdaInf's structure
//! selector (§3.3.2) exploits.
//!
//! Training uses SGD with momentum on a weighted sum of the per-exit
//! cross-entropy losses, so every exit remains usable after retraining.

use crate::layer::{Dense, GradScratch, Update};
use crate::matrix::Matrix;
use adainf_simcore::Prng;

/// Hyper-parameters of an [`EarlyExitMlp`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Width of each trunk layer; its length is the number of exits.
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub classes: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Loss weight per exit; later exits usually get more weight. Must
    /// have the same length as `hidden` (checked at build time).
    pub exit_weights: Vec<f32>,
    /// Optional update-rule override (e.g. [`Update::adam`]); `None`
    /// uses SGD with the `lr`/`momentum` fields above.
    pub update: Option<Update>,
}

impl MlpConfig {
    /// A reasonable default: two hidden layers, final exit weighted 1.0
    /// and the early exit 0.4.
    pub fn small(input_dim: usize, classes: usize) -> Self {
        MlpConfig {
            input_dim,
            hidden: vec![32, 32],
            classes,
            lr: 0.05,
            momentum: 0.9,
            exit_weights: vec![0.4, 1.0],
            update: None,
        }
    }

    /// The effective update rule.
    pub fn update_rule(&self) -> Update {
        self.update.unwrap_or(Update::SgdMomentum {
            lr: self.lr,
            momentum: self.momentum,
        })
    }
}

/// A labelled mini-batch.
#[derive(Clone, Debug)]
pub struct TrainBatch {
    /// Feature rows, `batch × input_dim`.
    pub inputs: Matrix,
    /// Class label per row.
    pub labels: Vec<usize>,
}

/// An MLP with an early-exit head after every trunk layer.
///
/// ```
/// use adainf_nn::{EarlyExitMlp, Matrix, MlpConfig, TrainBatch};
/// use adainf_simcore::Prng;
/// let mut rng = Prng::new(3);
/// let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
/// // Two separable blobs at ±1.
/// let data: Vec<f32> = (0..32).flat_map(|i| {
///     let c = if i % 2 == 0 { -1.0f32 } else { 1.0 };
///     vec![c; 4]
/// }).collect();
/// let batch = TrainBatch {
///     inputs: Matrix::from_slice(32, 4, &data),
///     labels: (0..32).map(|i| i % 2).collect(),
/// };
/// net.train_epochs(&batch, 20);
/// let acc = net.accuracy(&batch.inputs, &batch.labels, net.num_exits() - 1);
/// assert!(acc > 0.95);
/// ```
#[derive(Debug)]
pub struct EarlyExitMlp {
    trunk: Vec<Dense>,
    heads: Vec<Dense>,
    config: MlpConfig,
    scratch: TrainScratch,
}

impl Clone for EarlyExitMlp {
    /// Clones the parameters and optimizer state; the training scratch
    /// buffers start empty in the clone (they re-warm on first use).
    fn clone(&self) -> Self {
        EarlyExitMlp {
            trunk: self.trunk.clone(),
            heads: self.heads.clone(),
            config: self.config.clone(),
            scratch: TrainScratch::default(),
        }
    }
}

/// Ping-pong activation buffers for the allocation-free inference
/// entry points ([`EarlyExitMlp::predict_with_scratch`]). One instance
/// serves any number of forward passes; buffers reshape on first use.
#[derive(Clone, Debug, Default)]
pub struct InferScratch {
    ping: Matrix,
    pong: Matrix,
}

/// Preallocated buffers reused by every [`EarlyExitMlp::train_batch`]
/// call, so steady-state SGD retraining performs zero heap
/// allocations: forward activations and pre-activations per trunk
/// layer, softmax/gradient carriers, and per-layer parameter-gradient
/// scratch.
///
/// Public so parallel training fan-outs can hold one instance per
/// *worker* (via [`EarlyExitMlp::train_batch_parts_with`]) instead of
/// re-warming each model's embedded scratch; the buffers carry no
/// model state — every field is fully overwritten before it is read —
/// so sharing an instance across models is bit-safe.
#[derive(Debug, Default)]
pub struct TrainScratch {
    /// Post-activation output of each trunk layer.
    activations: Vec<Matrix>,
    /// Pre-activation output of each trunk layer (ReLU mask input).
    trunk_pre: Vec<Matrix>,
    /// Head logits, softmaxed in place into class probabilities.
    probs: Matrix,
    /// Gradient carrier flowing backward through the trunk.
    grad: Matrix,
    /// Per-layer backward output buffer, swapped with `grad`.
    grad_in: Matrix,
    /// Gradient each head injects into its trunk level.
    head_grads: Vec<Matrix>,
    /// Parameter-gradient buffers shared by every layer's update.
    layer: GradScratch,
}

impl EarlyExitMlp {
    /// Builds a randomly-initialised network.
    ///
    /// # Panics
    /// Panics if `hidden` is empty or `exit_weights` length mismatches.
    pub fn new(config: MlpConfig, rng: &mut Prng) -> Self {
        assert!(!config.hidden.is_empty(), "need at least one trunk layer");
        assert_eq!(
            config.hidden.len(),
            config.exit_weights.len(),
            "one exit weight per trunk layer"
        );
        let mut trunk = Vec::with_capacity(config.hidden.len());
        let mut heads = Vec::with_capacity(config.hidden.len());
        let mut in_dim = config.input_dim;
        for &h in &config.hidden {
            trunk.push(Dense::new(in_dim, h, true, rng));
            heads.push(Dense::new(h, config.classes, false, rng));
            in_dim = h;
        }
        EarlyExitMlp {
            trunk,
            heads,
            config,
            scratch: TrainScratch::default(),
        }
    }

    /// Number of exits (== trunk depth).
    pub fn num_exits(&self) -> usize {
        self.trunk.len()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.config.classes
    }

    /// Class-probability rows at the given exit (0-based; the last exit is
    /// the "full structure").
    ///
    /// # Panics
    /// Panics if `exit >= num_exits()`.
    pub fn probabilities(&self, inputs: &Matrix, exit: usize) -> Matrix {
        assert!(exit < self.num_exits(), "exit out of range");
        let mut x = inputs.clone();
        for layer in &self.trunk[..=exit] {
            x = layer.infer(&x);
        }
        self.heads[exit].infer(&x).softmax_rows()
    }

    /// Predicted class per row at the given exit.
    pub fn predict(&self, inputs: &Matrix, exit: usize) -> Vec<usize> {
        self.probabilities(inputs, exit).argmax_rows()
    }

    /// [`Self::predict`] through caller-provided ping-pong buffers: no
    /// input clone, no per-layer allocation, softmax in place. The
    /// forward kernels and the softmax/argmax math are the exact ones
    /// [`Self::predict`] runs, so predictions are bit-identical.
    ///
    /// # Panics
    /// Panics if `exit >= num_exits()`.
    pub fn predict_with_scratch(
        &self,
        inputs: &Matrix,
        exit: usize,
        scratch: &mut InferScratch,
    ) -> Vec<usize> {
        assert!(exit < self.num_exits(), "exit out of range");
        let InferScratch { ping, pong } = scratch;
        self.trunk[0].infer_into(inputs, ping);
        for layer in &self.trunk[1..=exit] {
            layer.infer_into(ping, pong);
            std::mem::swap(ping, pong);
        }
        self.heads[exit].infer_into(ping, pong);
        pong.softmax_rows_inplace();
        pong.argmax_rows()
    }

    /// [`Self::predict_with_scratch`] resumed from the first trunk
    /// layer's output: `features` must be the matrix
    /// [`Self::features_into`] produced for the same rows (it IS
    /// `trunk[0]`'s post-activation output, bit for bit), so the pass
    /// skips that layer and runs the identical remaining ladder —
    /// predictions are bit-equal to the full input pass at one dense
    /// layer less. Callers holding cached feature matrices (the drift
    /// detector's per-period artifacts) use this for their lazy
    /// prefix-accuracy extensions.
    ///
    /// # Panics
    /// Panics if `exit >= num_exits()` or the feature width mismatches.
    pub fn predict_from_features_with_scratch(
        &self,
        features: &Matrix,
        exit: usize,
        scratch: &mut InferScratch,
    ) -> Vec<usize> {
        assert!(exit < self.num_exits(), "exit out of range");
        assert_eq!(
            features.cols(),
            self.config.hidden[0],
            "feature width mismatch"
        );
        let InferScratch { ping, pong } = scratch;
        if exit == 0 {
            self.heads[0].infer_into(features, pong);
        } else {
            self.trunk[1].infer_into(features, ping);
            for layer in &self.trunk[2..=exit] {
                layer.infer_into(ping, pong);
                std::mem::swap(ping, pong);
            }
            self.heads[exit].infer_into(ping, pong);
        }
        pong.softmax_rows_inplace();
        pong.argmax_rows()
    }

    /// Fraction of rows classified correctly at the given exit.
    pub fn accuracy(&self, inputs: &Matrix, labels: &[usize], exit: usize) -> f64 {
        assert_eq!(inputs.rows(), labels.len(), "label count mismatch");
        if labels.is_empty() {
            return 0.0;
        }
        let preds = self.predict(inputs, exit);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / labels.len() as f64
    }

    /// The hidden representation at the *first* trunk layer — used as the
    /// "feature vector" of a sample by the drift detector (§3.2).
    pub fn features(&self, inputs: &Matrix) -> Matrix {
        self.trunk[0].infer(inputs)
    }

    /// [`Self::features`] into a caller-owned buffer (reshaped in
    /// place), for the drift data path's reusable feature matrices.
    pub fn features_into(&self, inputs: &Matrix, out: &mut Matrix) {
        self.trunk[0].infer_into(inputs, out);
    }

    /// One SGD step on a mini-batch with deep supervision: the loss is the
    /// exit-weighted sum of per-exit cross-entropies. Returns the mean
    /// (weighted) loss, for monitoring.
    ///
    /// All intermediate buffers live in the network's `TrainScratch`
    /// and are reused across calls, so steady-state retraining performs
    /// zero heap allocations once the buffers have warmed up.
    pub fn train_batch(&mut self, batch: &TrainBatch) -> f64 {
        self.train_batch_parts(&batch.inputs, &batch.labels)
    }

    /// [`Self::train_batch`] on borrowed inputs and labels, so callers
    /// slicing mini-batches out of a larger sample set need not assemble
    /// a [`TrainBatch`] (and clone rows into it) per step.
    pub fn train_batch_parts(&mut self, inputs: &Matrix, labels: &[usize]) -> f64 {
        assert_eq!(inputs.rows(), labels.len());
        if labels.is_empty() {
            return 0.0;
        }
        let update = self.config.update_rule();
        let n_exits = self.num_exits();
        let scratch = &mut self.scratch;
        scratch.activations.resize_with(n_exits, Matrix::default);
        scratch.trunk_pre.resize_with(n_exits, Matrix::default);
        scratch.head_grads.resize_with(n_exits, Matrix::default);

        // Forward through the trunk, keeping each layer's input
        // (previous activation) and pre-activation for the backward
        // pass.
        for e in 0..n_exits {
            let (earlier, rest) = scratch.activations.split_at_mut(e);
            let input = if e == 0 { inputs } else { &earlier[e - 1] };
            self.trunk[e].forward_into(input, &mut scratch.trunk_pre[e], &mut rest[0]);
        }

        // Per-exit head forward + softmax-CE gradient, updating heads and
        // collecting the gradient each head injects into its trunk level.
        let mut total_loss = 0.0f64;
        for e in 0..n_exits {
            let w = self.config.exit_weights[e];
            self.heads[e].infer_into(&scratch.activations[e], &mut scratch.probs);
            scratch.probs.softmax_rows_inplace();
            // Loss and gradient: dL/dlogits = (p − onehot) · w.
            scratch.grad.copy_from(&scratch.probs);
            for (r, &label) in labels.iter().enumerate() {
                let p = scratch.probs.get(r, label).max(1e-12);
                total_loss += -(p as f64).ln() * w as f64;
                scratch.grad.set(r, label, scratch.grad.get(r, label) - 1.0);
            }
            scratch.grad.scale(w);
            // Heads have no ReLU, so the pre-activation argument is
            // never read; pass the probs buffer to satisfy the shape.
            self.heads[e].backward_scratch(
                &scratch.activations[e],
                &scratch.probs,
                &mut scratch.grad,
                update,
                Some(&mut scratch.head_grads[e]),
                &mut scratch.layer,
            );
        }

        // Backward through the trunk, adding each head's contribution at
        // its level. Trunk layer 0's input is the raw batch, whose
        // gradient nothing reads, so its input-gradient GEMM is skipped.
        std::mem::swap(&mut scratch.grad, &mut scratch.head_grads[n_exits - 1]);
        for e in (1..n_exits).rev() {
            self.trunk[e].backward_scratch(
                &scratch.activations[e - 1],
                &scratch.trunk_pre[e],
                &mut scratch.grad,
                update,
                Some(&mut scratch.grad_in),
                &mut scratch.layer,
            );
            std::mem::swap(&mut scratch.grad, &mut scratch.grad_in);
            // `grad` now targets activation e-1; add the exit gradient
            // injected there.
            scratch.grad.axpy(1.0, &scratch.head_grads[e - 1]);
        }
        self.trunk[0].backward_scratch(
            inputs,
            &scratch.trunk_pre[0],
            &mut scratch.grad,
            update,
            None,
            &mut scratch.layer,
        );
        total_loss / labels.len() as f64
    }

    /// [`Self::train_batch_parts`] using a caller-owned scratch instead
    /// of the model's embedded one — the entry point for parallel
    /// training fan-outs, where one warmed [`TrainScratch`] per worker
    /// serves every model that worker trains. Implemented as two
    /// pointer swaps around the embedded-scratch path, so the math (and
    /// its result, bit for bit) is identical.
    pub fn train_batch_parts_with(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) -> f64 {
        std::mem::swap(&mut self.scratch, scratch);
        let loss = self.train_batch_parts(inputs, labels);
        std::mem::swap(&mut self.scratch, scratch);
        loss
    }

    /// Trains on `batch` for `epochs` passes; returns the final loss.
    pub fn train_epochs(&mut self, batch: &TrainBatch, epochs: usize) -> f64 {
        let mut loss = 0.0;
        for _ in 0..epochs {
            loss = self.train_batch(batch);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs; any working learner must reach
    /// high accuracy quickly.
    fn blob_batch(rng: &mut Prng, n: usize, dim: usize) -> TrainBatch {
        let mut data = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let center = if label == 0 { -1.5 } else { 1.5 };
            for _ in 0..dim {
                data.push((center + rng.gauss() * 0.5) as f32);
            }
            labels.push(label);
        }
        TrainBatch {
            inputs: Matrix::from_slice(n, dim, &data),
            labels,
        }
    }

    #[test]
    fn learns_separable_blobs_at_every_exit() {
        let mut rng = Prng::new(42);
        let cfg = MlpConfig::small(8, 2);
        let mut net = EarlyExitMlp::new(cfg, &mut rng);
        let train = blob_batch(&mut rng, 64, 8);
        let test = blob_batch(&mut rng, 128, 8);
        let before = net.accuracy(&test.inputs, &test.labels, 1);
        let mut last_loss = f64::INFINITY;
        for _ in 0..30 {
            last_loss = net.train_batch(&train);
        }
        for exit in 0..net.num_exits() {
            let acc = net.accuracy(&test.inputs, &test.labels, exit);
            assert!(acc > 0.95, "exit {exit} accuracy {acc}");
        }
        assert!(last_loss < 0.2, "loss {last_loss}");
        let after = net.accuracy(&test.inputs, &test.labels, 1);
        assert!(after > before, "training must improve accuracy");
    }

    #[test]
    fn adam_learns_blobs_too() {
        let mut rng = Prng::new(44);
        let mut cfg = MlpConfig::small(8, 2);
        cfg.update = Some(Update::adam(0.01));
        let mut net = EarlyExitMlp::new(cfg, &mut rng);
        let train = blob_batch(&mut rng, 64, 8);
        let test = blob_batch(&mut rng, 128, 8);
        for _ in 0..60 {
            net.train_batch(&train);
        }
        let acc = net.accuracy(&test.inputs, &test.labels, 1);
        assert!(acc > 0.95, "adam accuracy {acc}");
    }

    #[test]
    fn training_is_nan_safe_under_extreme_inputs() {
        // Gradient clipping must keep the network finite even on
        // pathological feature magnitudes.
        let mut rng = Prng::new(45);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let data: Vec<f32> = (0..64)
            .map(|i| if i % 3 == 0 { 1e6 } else { -1e6 })
            .collect();
        let batch = TrainBatch {
            inputs: Matrix::from_slice(16, 4, &data),
            labels: (0..16).map(|i| i % 2).collect(),
        };
        for _ in 0..50 {
            let loss = net.train_batch(&batch);
            assert!(loss.is_finite(), "loss diverged");
        }
        for layer in net.trunk.iter().chain(&net.heads) {
            let params = layer.weights.data().iter().chain(&layer.bias);
            for p in params {
                assert!(p.is_finite(), "parameter became non-finite");
            }
        }
        // Predictions still well-defined.
        let _ = net.predict(&batch.inputs, 1);
    }

    #[test]
    fn loss_decreases_monotonically_enough() {
        let mut rng = Prng::new(7);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 3), &mut rng);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = i % 3;
            for d in 0..4 {
                let center = if d == c { 2.0 } else { 0.0 };
                data.push((center + rng.gauss() * 0.3) as f32);
            }
            labels.push(c);
        }
        let batch = TrainBatch {
            inputs: Matrix::from_slice(60, 4, &data),
            labels,
        };
        let first = net.train_batch(&batch);
        let last = net.train_epochs(&batch, 40);
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    /// The scratch-based inference entry points must bit-match their
    /// allocating counterparts at every exit, with dirty reused buffers.
    #[test]
    fn scratch_inference_matches_allocating_paths() {
        let mut rng = Prng::new(13);
        let mut net = EarlyExitMlp::new(MlpConfig::small(8, 3), &mut rng);
        let train = blob_batch(&mut rng, 48, 8);
        net.train_epochs(&train, 10);
        let test = blob_batch(&mut rng, 96, 8);
        let mut scratch = InferScratch::default();
        for exit in 0..net.num_exits() {
            let plain = net.predict(&test.inputs, exit);
            let fast = net.predict_with_scratch(&test.inputs, exit, &mut scratch);
            assert_eq!(plain, fast, "exit {exit}");
        }
        let feats = net.features(&test.inputs);
        let mut out = Matrix::from_slice(1, 1, &[3.0]);
        net.features_into(&test.inputs, &mut out);
        assert_eq!(feats, out);
    }

    #[test]
    fn features_have_first_layer_width() {
        let mut rng = Prng::new(3);
        let net = EarlyExitMlp::new(MlpConfig::small(8, 2), &mut rng);
        let batch = blob_batch(&mut rng, 4, 8);
        let f = net.features(&batch.inputs);
        assert_eq!(f.rows(), 4);
        assert_eq!(f.cols(), 32);
    }

    #[test]
    #[should_panic(expected = "one exit weight per trunk layer")]
    fn mismatched_exit_weights_panic() {
        let mut rng = Prng::new(1);
        EarlyExitMlp::new(
            MlpConfig {
                input_dim: 4,
                hidden: vec![8, 8],
                classes: 2,
                lr: 0.1,
                momentum: 0.9,
                exit_weights: vec![1.0],
                update: None,
            },
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "at least one trunk layer")]
    fn empty_trunk_panics() {
        let mut rng = Prng::new(1);
        EarlyExitMlp::new(
            MlpConfig {
                input_dim: 4,
                hidden: vec![],
                classes: 2,
                lr: 0.1,
                momentum: 0.9,
                exit_weights: vec![],
                update: None,
            },
            &mut rng,
        );
    }

    #[test]
    fn empty_batch_train_is_zero_loss() {
        let mut rng = Prng::new(2);
        let mut net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let batch = TrainBatch {
            inputs: Matrix::zeros(0, 4),
            labels: vec![],
        };
        assert_eq!(net.train_batch(&batch), 0.0);
        assert_eq!(net.accuracy(&batch.inputs, &batch.labels, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "exit out of range")]
    fn bad_exit_panics() {
        let mut rng = Prng::new(1);
        let net = EarlyExitMlp::new(MlpConfig::small(4, 2), &mut rng);
        let x = Matrix::zeros(1, 4);
        net.probabilities(&x, 5);
    }
}
