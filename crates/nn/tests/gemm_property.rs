//! Property tests pinning the blocked/unrolled GEMM kernels to the
//! naive triple-loop reference, bit for bit.
//!
//! The `_into` kernels unroll across *independent* output elements, so
//! every output element must still receive its contributions in plain
//! ascending-k order — exactly what the reference below computes. Any
//! reassociation (e.g. multi-lane partial sums of one dot product)
//! would change low-order bits and fail these tests. Shapes are drawn
//! past the unroll widths (8-wide k / j, 4-wide r) and, for the ×ᵀ
//! kernels, past two 64-column packed panels, so the blocked bodies,
//! the tails, and the degenerate 1×1 cases are all exercised.

use adainf_nn::Matrix;
use adainf_simcore::Prng;
use proptest::{prop_assert, proptest};

fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
    Matrix::from_slice(rows, cols, &data)
}

/// Plain i→j→k triple loop: the seed engine's accumulation order.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn transpose(a: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            t.set(j, i, a.get(i, j));
        }
    }
    t
}

fn assert_bit_identical(label: &str, got: &Matrix, want: &Matrix) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert!(got.rows() == want.rows(), "{} rows", label);
    prop_assert!(got.cols() == want.cols(), "{} cols", label);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{} element {}: {} != {}",
            label,
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    fn matmul_into_matches_reference(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = Prng::new(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let want = reference_matmul(&a, &b);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_bit_identical("matmul_into", &out, &want)?;
        // A reused buffer of the wrong shape and stale contents must
        // come out the same.
        let mut reused = Matrix::from_slice(1, 1, &[f32::NAN]);
        a.matmul_into(&b, &mut reused);
        assert_bit_identical("matmul_into (reused)", &reused, &want)?;
    }

    fn t_matmul_into_matches_reference(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = Prng::new(seed);
        // selfᵀ (k×m over m×k storage) × other (m×n): contraction over
        // the shared row index, ascending — same order as the reference
        // over materialised aᵀ.
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(m, n, &mut rng);
        let want = reference_matmul(&transpose(&a), &b);
        let mut out = Matrix::zeros(0, 0);
        a.t_matmul_into(&b, &mut out);
        assert_bit_identical("t_matmul_into", &out, &want)?;
    }

    fn matmul_t_into_matches_reference(
        m in 1usize..24,
        k in 1usize..150,
        n in 1usize..40,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = Prng::new(seed);
        // self (m×k) × otherᵀ (k×n over n×k storage). k reaches past
        // two 64-column panels and n spans several 8-row strips plus
        // tails.
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        let want = reference_matmul(&a, &transpose(&b));
        let mut out = Matrix::zeros(0, 0);
        a.matmul_t_into(&b, &mut out);
        assert_bit_identical("matmul_t_into", &out, &want)?;
    }

    fn centered_matmul_t_into_matches_reference(
        m in 1usize..24,
        k in 1usize..150,
        n in 1usize..40,
        eight in proptest::bool::ANY,
        seed in 0u64..1 << 32,
    ) {
        // Half the cases project onto exactly eight rows, the PCA
        // default width.
        let n = if eight { 8 } else { n };
        let mut rng = Prng::new(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(n, k, &mut rng);
        let mean: Vec<f32> = (0..k).map(|_| rng.gauss() as f32).collect();
        let mut centred = a.clone();
        for (x, &mu) in centred.data_mut().iter_mut().zip(mean.iter().cycle()) {
            *x -= mu;
        }
        let want = reference_matmul(&centred, &transpose(&b));
        let mut out = Matrix::zeros(0, 0);
        a.centered_matmul_t_into(&mean, &b, &mut out);
        assert_bit_identical("centered_matmul_t_into", &out, &want)?;
    }
}
