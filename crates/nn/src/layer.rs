//! Dense layers with manual forward/backward passes.

use crate::matrix::Matrix;
use adainf_simcore::Prng;

/// The update rule applied by [`Dense::backward_scratch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update {
    /// Classic SGD with momentum: `v = m·v − lr·g ; w += v`.
    SgdMomentum {
        /// Learning rate.
        lr: f32,
        /// Velocity decay.
        momentum: f32,
    },
    /// Adam (Kingma & Ba): bias-corrected first/second moment estimates.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay (typ. 0.9).
        beta1: f32,
        /// Second-moment decay (typ. 0.999).
        beta2: f32,
        /// Numerical floor.
        eps: f32,
    },
}

impl Update {
    /// Adam with the textbook defaults at the given learning rate.
    pub fn adam(lr: f32) -> Update {
        Update::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// A fully-connected layer `y = x·W + b` with an optional ReLU.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias vector, length `out_dim`.
    pub bias: Vec<f32>,
    /// Whether a ReLU follows the affine map.
    pub relu: bool,
    // First-moment buffers (SGD velocity / Adam m).
    vel_w: Matrix,
    vel_b: Vec<f32>,
    // Adam second-moment buffers, allocated on first Adam step.
    adam_v_w: Option<Matrix>,
    adam_v_b: Vec<f32>,
    // Adam step counter (bias correction).
    steps: u64,
}

/// Reusable parameter-gradient buffers for [`Dense::backward_scratch`].
/// Holding one of these across SGD steps makes the backward pass free
/// of heap allocations in steady state.
#[derive(Clone, Debug, Default)]
pub struct GradScratch {
    grad_w: Matrix,
    grad_b: Vec<f32>,
}

impl Dense {
    /// Creates a He-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut Prng) -> Self {
        Dense {
            weights: Matrix::he_init(in_dim, out_dim, rng),
            bias: vec![0.0; out_dim],
            relu,
            vel_w: Matrix::zeros(in_dim, out_dim),
            vel_b: vec![0.0; out_dim],
            adam_v_w: None,
            adam_v_b: Vec::new(),
            steps: 0,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Forward pass writing the pre-activation into `pre` and the
    /// activation into `out`, both reshaped in place. Allocation-free
    /// once the buffers have warmed up.
    pub fn forward_into(&self, input: &Matrix, pre: &mut Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weights, pre);
        pre.add_row_vec(&self.bias);
        out.copy_from(pre);
        if self.relu {
            out.relu_inplace();
        }
    }

    /// Inference forward pass into a freshly allocated output.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.infer_into(input, &mut out);
        out
    }

    /// Inference forward pass into a caller-owned buffer, through the
    /// fused [`Matrix::affine_into`] kernel — bias and ReLU are applied
    /// per output row inside the GEMM instead of as two further
    /// full-matrix passes. Bit-identical to the unfused pipeline.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.affine_into(&self.weights, &self.bias, self.relu, out);
    }

    /// Backward pass: applies the given update rule to this layer's
    /// parameters, with the gradient averaged over the batch.
    /// `input`/`pre` are the layer input and pre-activation that
    /// [`Self::forward_into`] saw, `grad_out` is the gradient w.r.t.
    /// this layer's output (mutated in place by the ReLU mask),
    /// `grad_in` receives the gradient w.r.t. the input, and `scratch`
    /// holds the reusable parameter-gradient buffers, so the pass is
    /// allocation-free in steady state.
    ///
    /// Pass `grad_in: None` when no upstream layer reads the input
    /// gradient (the first layer of a network, whose input is the raw
    /// data): its `grad_out × Wᵀ` GEMM is then skipped. The input
    /// gradient never feeds this layer's own update, so the weights,
    /// bias and optimizer state come out bit-identical either way.
    pub fn backward_scratch(
        &mut self,
        input: &Matrix,
        pre: &Matrix,
        grad_out: &mut Matrix,
        update: Update,
        grad_in: Option<&mut Matrix>,
        scratch: &mut GradScratch,
    ) {
        if self.relu {
            grad_out.relu_backward_inplace(pre);
        }
        let batch = input.rows().max(1) as f32;
        // Gradient w.r.t. input, for the upstream layer (reads the
        // pre-update weights, so it must precede the optimizer step).
        if let Some(grad_in) = grad_in {
            grad_out.matmul_t_into(&self.weights, grad_in);
        }
        // Raw weight-gradient sums; the batch-mean scaling and
        // robustness clamp are fused into the optimizer kernels below,
        // saving two full passes over the gradient buffer per step.
        let grad_w = &mut scratch.grad_w;
        input.t_matmul_into(grad_out, grad_w);
        // The bias gradient is a short vector — scale and clamp in
        // place, exactly as before.
        let grad_b = &mut scratch.grad_b;
        grad_out.col_sums_into(grad_b);
        for g in grad_b.iter_mut() {
            *g = (*g / batch).clamp(-5.0, 5.0);
        }
        self.apply_update(update, &scratch.grad_w, 1.0 / batch, &scratch.grad_b);
    }

    /// Applies one optimizer step: `grad_w` holds *raw* gradient sums
    /// (scaled by `inv_batch` and clamped inside the fused kernels),
    /// `grad_b` is already batch-averaged and clamped.
    fn apply_update(
        &mut self,
        update: Update,
        grad_w: &Matrix,
        inv_batch: f32,
        grad_b: &[f32],
    ) {
        match update {
            Update::SgdMomentum { lr, momentum } => {
                // Momentum update: v = m·v − lr·g ; w += v.
                crate::matrix::momentum_step(
                    self.weights.data_mut(),
                    self.vel_w.data_mut(),
                    grad_w.data(),
                    inv_batch,
                    5.0,
                    lr,
                    momentum,
                );
                for ((b, v), g) in
                    self.bias.iter_mut().zip(&mut self.vel_b).zip(grad_b)
                {
                    *v = momentum * *v - lr * g;
                    *b += *v;
                }
            }
            Update::Adam { lr, beta1, beta2, eps } => {
                self.steps += 1;
                if self.adam_v_b.len() != self.bias.len() {
                    self.adam_v_b = vec![0.0; self.bias.len()];
                }
                let t = self.steps as f32;
                let c1 = 1.0 - beta1.powf(t);
                let c2 = 1.0 - beta2.powf(t);
                let (rows, cols) = (self.weights.rows(), self.weights.cols());
                let v_w = self.adam_v_w.get_or_insert_with(|| Matrix::zeros(rows, cols));
                crate::matrix::adam_step(
                    self.weights.data_mut(),
                    self.vel_w.data_mut(),
                    v_w.data_mut(),
                    grad_w.data(),
                    inv_batch,
                    5.0,
                    lr,
                    beta1,
                    beta2,
                    eps,
                    c1,
                    c2,
                );
                for ((b, m), (v, g)) in self
                    .bias
                    .iter_mut()
                    .zip(&mut self.vel_b)
                    .zip(self.adam_v_b.iter_mut().zip(grad_b))
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    *b -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_values() {
        let mut rng = Prng::new(1);
        let mut layer = Dense::new(3, 2, false, &mut rng);
        // Overwrite with known params.
        layer
            .weights
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        layer.bias = vec![0.5, -0.5];
        let x = Matrix::from_slice(1, 3, &[1.0, 2.0, 3.0]);
        let y = layer.infer(&x);
        // y0 = 1*1 + 2*0 + 3*1 + 0.5 = 4.5 ; y1 = 0 + 2 + 3 − 0.5 = 4.5
        assert_eq!(y.data(), &[4.5, 4.5]);
    }

    #[test]
    fn gradient_check_single_layer() {
        // Numerical gradient check of dLoss/dW for a tiny layer with
        // L = sum(y), so dL/dy = 1.
        let mut rng = Prng::new(2);
        let layer = Dense::new(2, 2, true, &mut rng);
        let x = Matrix::from_slice(2, 2, &[0.3, -0.7, 1.2, 0.4]);
        let eps = 1e-3;

        let loss = |l: &Dense| -> f32 { l.infer(&x).data().iter().sum() };

        // Analytic: run backward with grad_out = ones and lr so small the
        // update exposes the gradient: after update w' = w − lr·g, so
        // g ≈ (w − w')/lr. Use zero momentum.
        let mut l2 = layer.clone();
        let (mut pre, mut out) = (Matrix::default(), Matrix::default());
        l2.forward_into(&x, &mut pre, &mut out);
        let mut ones = Matrix::from_slice(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let lr = 1e-4;
        let w_before = l2.weights.clone();
        let update = Update::SgdMomentum { lr, momentum: 0.0 };
        l2.backward_scratch(
            &x,
            &pre,
            &mut ones,
            update,
            None,
            &mut GradScratch::default(),
        );
        for r in 0..2 {
            for c in 0..2 {
                let analytic = (w_before.get(r, c) - l2.weights.get(r, c)) / lr;
                // Numerical gradient (batch-mean convention: divide by batch).
                let mut lp = layer.clone();
                lp.weights.set(r, c, w_before.get(r, c) + eps);
                let mut lm = layer.clone();
                lm.weights.set(r, c, w_before.get(r, c) - eps);
                let numeric = (loss(&lp) - loss(&lm)) / (2.0 * eps) / 2.0;
                assert!(
                    (analytic - numeric).abs() < 0.02,
                    "grad mismatch at ({r},{c}): {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn adam_converges_on_a_linear_target() {
        // Fit y = sum(x) with a single linear layer under Adam.
        let mut rng = Prng::new(5);
        let mut layer = Dense::new(3, 1, false, &mut rng);
        let (mut pre, mut y) = (Matrix::default(), Matrix::default());
        let mut scratch = GradScratch::default();
        let mut last = f32::INFINITY;
        for step in 0..400 {
            let x = Matrix::from_slice(
                4,
                3,
                &(0..12)
                    .map(|i| ((i * 7 + step) % 11) as f32 / 11.0 - 0.5)
                    .collect::<Vec<_>>(),
            );
            let target: Vec<f32> = (0..4)
                .map(|r| x.row(r).iter().sum::<f32>())
                .collect();
            layer.forward_into(&x, &mut pre, &mut y);
            let mut grad = Matrix::zeros(4, 1);
            let mut loss = 0.0;
            for (r, &tgt) in target.iter().enumerate() {
                let e = y.get(r, 0) - tgt;
                loss += e * e;
                grad.set(r, 0, 2.0 * e);
            }
            last = loss;
            layer.backward_scratch(&x, &pre, &mut grad, Update::adam(0.02), None, &mut scratch);
        }
        assert!(last < 0.01, "adam did not converge: {last}");
        // Weights near the true [1, 1, 1].
        for c in 0..3 {
            assert!((layer.weights.get(c, 0) - 1.0).abs() < 0.15);
        }
    }

    /// Skipping the input gradient must not touch the update: weights,
    /// bias, first and second moments and the step counter all match
    /// the `Some(..)` call bit for bit, under both update rules.
    #[test]
    fn skipped_input_gradient_leaves_the_update_bit_identical() {
        fn bits(m: &[f32]) -> Vec<u32> {
            m.iter().map(|x| x.to_bits()).collect()
        }
        let mut rng = Prng::new(9);
        let x = Matrix::from_slice(
            5,
            4,
            &(0..20).map(|_| rng.gauss() as f32).collect::<Vec<_>>(),
        );
        for update in [
            Update::SgdMomentum {
                lr: 0.05,
                momentum: 0.9,
            },
            Update::adam(0.01),
        ] {
            let mut with = Dense::new(4, 3, true, &mut rng);
            let mut without = with.clone();
            let mut grad_in = Matrix::default();
            let mut scratch = GradScratch::default();
            for step in 0..3 {
                let mut pre = Matrix::default();
                let mut out = Matrix::default();
                with.forward_into(&x, &mut pre, &mut out);
                let g: Vec<f32> = (0..15).map(|i| ((i * 5 + step) % 7) as f32 - 3.0).collect();
                let mut g_with = Matrix::from_slice(5, 3, &g);
                let mut g_without = g_with.clone();
                with.backward_scratch(
                    &x,
                    &pre,
                    &mut g_with,
                    update,
                    Some(&mut grad_in),
                    &mut scratch,
                );
                without.backward_scratch(&x, &pre, &mut g_without, update, None, &mut scratch);
            }
            assert_eq!(grad_in.rows(), 5, "the Some(..) call filled grad_in");
            assert_eq!(bits(with.weights.data()), bits(without.weights.data()));
            assert_eq!(bits(&with.bias), bits(&without.bias));
            assert_eq!(bits(with.vel_w.data()), bits(without.vel_w.data()));
            assert_eq!(bits(&with.vel_b), bits(&without.vel_b));
            assert_eq!(
                with.adam_v_w.as_ref().map(|m| bits(m.data())),
                without.adam_v_w.as_ref().map(|m| bits(m.data()))
            );
            assert_eq!(bits(&with.adam_v_b), bits(&without.adam_v_b));
            assert_eq!(with.steps, without.steps);
        }
    }
}
