//! A minimal row-major `f32` matrix.
//!
//! Only the operations backpropagation needs are implemented. The GEMM
//! kernels are blocked so they vectorise, but every output element keeps
//! the plain triple loop's ascending-k accumulation, so their results
//! are bit-identical to it.

use adainf_simcore::Prng;
use std::fmt;

/// Columns per packed panel of the ×ᵀ kernel
/// ([`Matrix::panel_matmul_t_into`]): the stack tile holds
/// `PANEL_K × 8` floats (2 KiB).
const PANEL_K: usize = 64;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// He-style random initialisation: `N(0, sqrt(2 / fan_in))`. This is
    /// the standard choice for ReLU networks and keeps small MLPs
    /// trainable from the first step.
    pub fn he_init(rows: usize, cols: usize, rng: &mut Prng) -> Self {
        let std = (2.0 / rows as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| (rng.gauss() * std) as f32)
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the backing row-major storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A single row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes this matrix to `rows × cols` and fills it with zeros,
    /// reusing the existing allocation when capacity permits. This is
    /// the reset primitive behind the `*_into` GEMM variants, which lets
    /// scratch buffers be reused across SGD steps without reallocating.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Copies `src` into this matrix, reusing the existing allocation
    /// when capacity permits.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reshapes this matrix to the row range `r0..r1` of `src` and copies
    /// those rows — one contiguous slab in row-major layout — reusing the
    /// existing allocation when capacity permits. The chunked-slice
    /// primitive behind zero-alloc mini-batch training.
    ///
    /// # Panics
    /// Panics when `r0 > r1` or `r1 > src.rows()`.
    pub fn copy_rows_from(&mut self, src: &Matrix, r0: usize, r1: usize) {
        assert!(r0 <= r1 && r1 <= src.rows, "row range out of bounds");
        self.rows = r1 - r0;
        self.cols = src.cols;
        self.data.clear();
        self.data
            .extend_from_slice(&src.data[r0 * src.cols..r1 * src.cols]);
    }

    /// Reshapes this matrix to `indices.len() × src.cols()` and copies
    /// the selected rows of `src` in index order, reusing the existing
    /// allocation — the gather primitive behind zero-alloc ranked-subset
    /// passes (each row is the verbatim source row, so any row-wise
    /// computation over the gather bit-matches one over a cloned
    /// subset).
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn gather_rows_from(&mut self, src: &Matrix, indices: &[usize]) {
        self.rows = indices.len();
        self.cols = src.cols;
        self.data.clear();
        for &i in indices {
            self.data.extend_from_slice(src.row(i));
        }
    }

    /// `self × other`, written into `out` (reshaped and zeroed in
    /// place). The i→k→j loop order keeps the inner loop a straight
    /// `axpy` over contiguous rows, which the compiler autovectorises;
    /// per-element accumulation runs in ascending k. Two `self` rows
    /// share each pass over the `other` block, halving the B-row
    /// traffic; the per-element accumulators stay independent, so
    /// blocking changes nothing bitwise.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reset_zeroed(self.rows, other.cols);
        let w = other.cols;
        let d = self.cols;
        let mut i = 0;
        while i + 2 <= self.rows {
            let a0 = &self.data[i * d..(i + 1) * d];
            let a1 = &self.data[(i + 1) * d..(i + 2) * d];
            let (lo, hi) = out.data.split_at_mut((i + 1) * w);
            let o0 = &mut lo[i * w..];
            let o1 = &mut hi[..w];
            // Eight k steps per pass: each output element still receives
            // its contributions in ascending k order (bit-exact against
            // the one-step loop), while the B rows loaded for the block
            // feed both output rows.
            let mut k = 0;
            while k + 8 <= d {
                let a = &a0[k..k + 8];
                let c = &a1[k..k + 8];
                let b = &other.data[k * w..(k + 8) * w];
                let (b0, rest) = b.split_at(w);
                let (b1, rest) = rest.split_at(w);
                let (b2, rest) = rest.split_at(w);
                let (b3, rest) = rest.split_at(w);
                let (b4, rest) = rest.split_at(w);
                let (b5, rest) = rest.split_at(w);
                let (b6, b7) = rest.split_at(w);
                for (((((((((o, p), &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in o0
                    .iter_mut()
                    .zip(o1.iter_mut())
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let mut acc = *o;
                    acc += a[0] * v0;
                    acc += a[1] * v1;
                    acc += a[2] * v2;
                    acc += a[3] * v3;
                    acc += a[4] * v4;
                    acc += a[5] * v5;
                    acc += a[6] * v6;
                    acc += a[7] * v7;
                    *o = acc;
                    let mut bcc = *p;
                    bcc += c[0] * v0;
                    bcc += c[1] * v1;
                    bcc += c[2] * v2;
                    bcc += c[3] * v3;
                    bcc += c[4] * v4;
                    bcc += c[5] * v5;
                    bcc += c[6] * v6;
                    bcc += c[7] * v7;
                    *p = bcc;
                }
                k += 8;
            }
            for ((&a, &c), orow) in a0[k..]
                .iter()
                .zip(&a1[k..])
                .zip(other.data[k * w..].chunks_exact(w))
            {
                for ((o, p), &b) in o0.iter_mut().zip(o1.iter_mut()).zip(orow) {
                    *o += a * b;
                    *p += c * b;
                }
            }
            i += 2;
        }
        if i < self.rows {
            let arow = self.row(i);
            let out_row = out.row_mut(i);
            let mut k = 0;
            while k + 8 <= arow.len() {
                let a = &arow[k..k + 8];
                let b = &other.data[k * w..(k + 8) * w];
                let (b0, rest) = b.split_at(w);
                let (b1, rest) = rest.split_at(w);
                let (b2, rest) = rest.split_at(w);
                let (b3, rest) = rest.split_at(w);
                let (b4, rest) = rest.split_at(w);
                let (b5, rest) = rest.split_at(w);
                let (b6, b7) = rest.split_at(w);
                for ((((((((o, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in out_row
                    .iter_mut()
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let mut acc = *o;
                    acc += a[0] * v0;
                    acc += a[1] * v1;
                    acc += a[2] * v2;
                    acc += a[3] * v3;
                    acc += a[4] * v4;
                    acc += a[5] * v5;
                    acc += a[6] * v6;
                    acc += a[7] * v7;
                    *o = acc;
                }
                k += 8;
            }
            for (&a, orow) in arow[k..].iter().zip(other.data[k * w..].chunks_exact(w)) {
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
    }

    /// `relu?(self × weights + bias)`, written into `out` — the fused
    /// dense-layer forward pass. Runs the exact [`Self::matmul_into`]
    /// loop, then applies the bias add (and optional ReLU) to each output
    /// row as soon as its accumulation finishes, while the row is still
    /// cache-hot — instead of two further full-matrix passes. Every
    /// output element sees the same operations in the same order as
    /// `matmul_into` + `add_row_vec` + `relu_inplace`, so results are
    /// bit-identical.
    ///
    /// # Panics
    /// Panics on inner-dimension or bias-width mismatch.
    pub fn affine_into(&self, weights: &Matrix, bias: &[f32], relu: bool, out: &mut Matrix) {
        assert_eq!(self.cols, weights.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), weights.cols, "bias width mismatch");
        // The accumulation pass is the exact [`Self::matmul_into`] loop
        // (shared so the two-row blocking lives in one place).
        self.matmul_into(weights, out);
        // Row epilogue: bias, then the ReLU clamp — the exact order of
        // the unfused add_row_vec / relu_inplace passes.
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for (o, &b) in out_row.iter_mut().zip(bias) {
                *o += b;
            }
            if relu {
                for o in out_row.iter_mut() {
                    if *o < 0.0 {
                        *o = 0.0;
                    }
                }
            }
        }
    }

    /// `selfᵀ × other` without materialising the transpose, written into
    /// `out` (reshaped and zeroed in place). Each output element
    /// accumulates in the row order of the operands.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.reset_zeroed(self.cols, other.cols);
        let m = self.rows;
        // Eight r steps per pass; per-output-element accumulation stays
        // in ascending r order (bit-exact against the one-step loop)
        // while each output row is loaded/stored once per eight steps —
        // the backward gradient GEMM mirrors the forward kernels'
        // 8-wide blocking.
        let mut r = 0;
        while r + 8 <= m {
            let (a0, a1, a2, a3) = (
                self.row(r),
                self.row(r + 1),
                self.row(r + 2),
                self.row(r + 3),
            );
            let (a4, a5, a6, a7) = (
                self.row(r + 4),
                self.row(r + 5),
                self.row(r + 6),
                self.row(r + 7),
            );
            let (b0, b1, b2, b3) = (
                other.row(r),
                other.row(r + 1),
                other.row(r + 2),
                other.row(r + 3),
            );
            let (b4, b5, b6, b7) = (
                other.row(r + 4),
                other.row(r + 5),
                other.row(r + 6),
                other.row(r + 7),
            );
            for i in 0..self.cols {
                let (x0, x1, x2, x3) = (a0[i], a1[i], a2[i], a3[i]);
                let (x4, x5, x6, x7) = (a4[i], a5[i], a6[i], a7[i]);
                let out_row = out.row_mut(i);
                for ((((((((o, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in out_row
                    .iter_mut()
                    .zip(b0)
                    .zip(b1)
                    .zip(b2)
                    .zip(b3)
                    .zip(b4)
                    .zip(b5)
                    .zip(b6)
                    .zip(b7)
                {
                    let mut acc = *o;
                    acc += x0 * v0;
                    acc += x1 * v1;
                    acc += x2 * v2;
                    acc += x3 * v3;
                    acc += x4 * v4;
                    acc += x5 * v5;
                    acc += x6 * v6;
                    acc += x7 * v7;
                    *o = acc;
                }
            }
            r += 8;
        }
        while r < m {
            let arow = self.row(r);
            let brow = other.row(r);
            for (i, &a) in arow.iter().enumerate() {
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
            r += 1;
        }
    }

    /// `self × otherᵀ` without materialising the transpose, written into
    /// `out` (reshaped in place) — the backward input-gradient GEMM
    /// `grad_out × Wᵀ`. Each output element is the dot product of two
    /// rows, accumulated from `+0.0` in ascending k. A packed-panel
    /// loop, shared with [`Self::centered_matmul_t_into`], runs eight of
    /// them per vector lane group, so results are bit-identical to the
    /// one-at-a-time dot product.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        self.panel_matmul_t_into(None, other, out);
    }

    /// `(self − mean) × otherᵀ`, written into `out` — the PCA projection
    /// with the per-column mean subtraction fused into the GEMM instead
    /// of materialising a centred copy first. Each `self` element is
    /// centred (`x − mean[k]`) at the moment it enters the dot products,
    /// which is the identical f32 subtraction the standalone centring
    /// pass performs — per-element operation order matches
    /// `center_into` + [`Self::matmul_t_into`] exactly, so results are
    /// bit-identical at one full matrix write+read less.
    ///
    /// # Panics
    /// Panics on column-count or mean-width mismatch.
    pub fn centered_matmul_t_into(&self, mean: &[f32], other: &Matrix, out: &mut Matrix) {
        assert_eq!(mean.len(), self.cols, "mean width mismatch");
        self.panel_matmul_t_into(Some(mean), other, out);
    }

    /// The one ×ᵀ kernel behind [`Self::matmul_t_into`] and
    /// [`Self::centered_matmul_t_into`]: `(self − mean?) × otherᵀ`.
    ///
    /// For each strip of eight `other` rows, a block of up to
    /// [`PANEL_K`] columns is packed k-major into a stack tile, so the
    /// eight dot products of one `self` row become one `[f32; 8]`
    /// accumulator fed a broadcast `x · tile[k]` per k — a single vector
    /// multiply and add instead of eight scalar chains over strided
    /// rows. The accumulator is loaded from and stored back to `out`
    /// around each block, so any row width works, and every output
    /// element still starts at `+0.0` and receives its products in
    /// ascending k: bit-exact against the scalar dot product, which
    /// handles the `n % 8` tail rows.
    fn panel_matmul_t_into(&self, mean: Option<&[f32]>, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        out.reset_zeroed(self.rows, other.rows);
        let (n, d) = (other.rows, self.cols);
        let mut tile = [[0.0f32; 8]; PANEL_K];
        let mut j = 0;
        while j + 8 <= n {
            let strip = &other.data[j * d..(j + 8) * d];
            let mut k0 = 0;
            while k0 < d {
                let kb = (d - k0).min(PANEL_K);
                let tile = &mut tile[..kb];
                for (lane, row) in strip.chunks_exact(d).enumerate() {
                    for (t, &v) in tile.iter_mut().zip(&row[k0..k0 + kb]) {
                        t[lane] = v;
                    }
                }
                for (arow, orow) in self.data.chunks_exact(d).zip(out.data.chunks_exact_mut(n)) {
                    let arow = &arow[k0..k0 + kb];
                    let o = &mut orow[j..j + 8];
                    let mut acc = [0.0f32; 8];
                    acc.copy_from_slice(o);
                    match mean {
                        None => {
                            for (&x, t) in arow.iter().zip(tile.iter()) {
                                for (s, &c) in acc.iter_mut().zip(t) {
                                    *s += x * c;
                                }
                            }
                        }
                        Some(mean) => {
                            for ((&a, &m), t) in
                                arow.iter().zip(&mean[k0..k0 + kb]).zip(tile.iter())
                            {
                                let x = a - m;
                                for (s, &c) in acc.iter_mut().zip(t) {
                                    *s += x * c;
                                }
                            }
                        }
                    }
                    o.copy_from_slice(&acc);
                }
                k0 += kb;
            }
            j += 8;
        }
        // No tail rows; this also keeps `chunks_exact_mut` off `n == 0`.
        if j == n {
            return;
        }
        for (arow, orow) in self.data.chunks_exact(d).zip(out.data.chunks_exact_mut(n)) {
            for (o, brow) in orow[j..]
                .iter_mut()
                .zip(other.data[j * d..].chunks_exact(d))
            {
                let mut acc = 0.0;
                match mean {
                    None => {
                        for (&a, &b) in arow.iter().zip(brow) {
                            acc += a * b;
                        }
                    }
                    Some(mean) => {
                        for ((&a, &m), &b) in arow.iter().zip(mean).zip(brow) {
                            acc += (a - m) * b;
                        }
                    }
                }
                *o = acc;
            }
        }
    }

    /// `self × v`, written into `out` (resized in place) — the
    /// power-iteration matvec of the PCA fit, in the same blocked family
    /// as [`Self::matmul_t_into`].
    ///
    /// Rows are processed eight at a time with one independent
    /// accumulator each, so every output element is still a plain
    /// ascending-`k` dot product — bit-exact against the scalar
    /// row-by-row loop — while eight FP add latency chains overlap and
    /// eight matrix rows stream through the cache per pass.
    ///
    /// # Panics
    /// Panics when `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f32], out: &mut Vec<f32>) {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        out.clear();
        out.resize(self.rows, 0.0);
        let w = self.cols;
        let mut i = 0;
        while i + 8 <= self.rows {
            let b = &self.data[i * w..(i + 8) * w];
            let (b0, rest) = b.split_at(w);
            let (b1, rest) = rest.split_at(w);
            let (b2, rest) = rest.split_at(w);
            let (b3, rest) = rest.split_at(w);
            let (b4, rest) = rest.split_at(w);
            let (b5, rest) = rest.split_at(w);
            let (b6, b7) = rest.split_at(w);
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let (mut s4, mut s5, mut s6, mut s7) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for ((((((((&a, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in v
                .iter()
                .zip(b0)
                .zip(b1)
                .zip(b2)
                .zip(b3)
                .zip(b4)
                .zip(b5)
                .zip(b6)
                .zip(b7)
            {
                s0 += a * v0;
                s1 += a * v1;
                s2 += a * v2;
                s3 += a * v3;
                s4 += a * v4;
                s5 += a * v5;
                s6 += a * v6;
                s7 += a * v7;
            }
            out[i] = s0;
            out[i + 1] = s1;
            out[i + 2] = s2;
            out[i + 3] = s3;
            out[i + 4] = s4;
            out[i + 5] = s5;
            out[i + 6] = s6;
            out[i + 7] = s7;
            i += 8;
        }
        for (o, row) in out[i..]
            .iter_mut()
            .zip(self.data[i * w..].chunks_exact(w))
        {
            let mut acc = 0.0;
            for (a, b) in v.iter().zip(row) {
                acc += a * b;
            }
            *o = acc;
        }
    }

    /// Adds a row vector (bias) to every row.
    pub fn add_row_vec(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (x, b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Element-wise in-place ReLU.
    pub fn relu_inplace(&mut self) {
        for x in &mut self.data {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    /// Element-wise in-place multiply by the ReLU mask of `pre` (the
    /// backward pass of ReLU): entries where `pre <= 0` are zeroed.
    pub fn relu_backward_inplace(&mut self, pre: &Matrix) {
        assert_eq!(self.data.len(), pre.data.len(), "shape mismatch");
        for (g, p) in self.data.iter_mut().zip(&pre.data) {
            if *p <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// Row-wise softmax, numerically stabilised.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// In-place row-wise softmax, numerically stabilised.
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut total = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                total += *x;
            }
            for x in row.iter_mut() {
                *x /= total;
            }
        }
    }

    /// `self += k * other`, the SGD update primitive.
    pub fn axpy(&mut self, k: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Scales every element by `k`.
    pub fn scale(&mut self, k: f32) {
        for x in &mut self.data {
            *x *= k;
        }
    }

    /// Column sums returned as a vector (bias gradient).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.col_sums_into(&mut out);
        out
    }

    /// Column sums written into `out` (resized in place), reusing its
    /// allocation across calls.
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Mean of each column (used for mean feature vectors in §3.2).
    pub fn col_means(&self) -> Vec<f32> {
        let mut out = self.col_sums();
        if self.rows > 0 {
            for x in &mut out {
                *x /= self.rows as f32;
            }
        }
        out
    }

    /// Index of the maximum entry of each row (argmax classification).
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    // simlint: allow(no-unwrap-in-lib) — logits come out of finite-weight GEMMs; NaN means a training bug worth a loud stop
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the natural seed for `*_into` scratch
    /// buffers, which reshape on first use.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// Fused SGD-momentum step over one parameter block: per element,
/// `gc = clamp(g·inv_batch, ±bound)`, `v = momentum·v − lr·gc`,
/// `w += v` — the batch-mean scaling, robustness clamp and update
/// applied in a single pass instead of two full-buffer rewrites
/// followed by three vector ops. Per-element arithmetic matches the
/// unfused pipeline exactly (`momentum·v − lr·gc` is the IEEE-identical
/// reassociation of `v·momentum + (−lr)·gc`), so weights are
/// bit-identical; only the raw-gradient buffer is left unscaled, which
/// no caller reads back.
pub fn momentum_step(
    weights: &mut [f32],
    vel: &mut [f32],
    grad: &[f32],
    inv_batch: f32,
    bound: f32,
    lr: f32,
    momentum: f32,
) {
    assert_eq!(weights.len(), grad.len(), "momentum_step shape mismatch");
    assert_eq!(weights.len(), vel.len(), "momentum_step shape mismatch");
    for ((w, v), g) in weights.iter_mut().zip(vel).zip(grad) {
        let gc = (g * inv_batch).clamp(-bound, bound);
        *v = momentum * *v - lr * gc;
        *w += *v;
    }
}

/// Fused Adam step over one parameter block: per element,
/// `gc = clamp(g·inv_batch, ±bound)`, then the bias-corrected moment
/// updates `m = β₁·m + (1−β₁)·gc`, `v = β₂·v + (1−β₂)·gc·gc`,
/// `w −= lr·(m/c1)/(√(v/c2) + ε)` — one pass over four buffers instead
/// of a scale pass, a clamp pass and the update. `c1`/`c2` are the
/// step-count bias corrections `1 − βᵢᵗ`, computed once by the caller.
/// Per-element expressions are unchanged from the unfused pipeline, so
/// parameters and optimizer state are bit-identical.
#[allow(clippy::too_many_arguments)]
pub fn adam_step(
    weights: &mut [f32],
    m1: &mut [f32],
    m2: &mut [f32],
    grad: &[f32],
    inv_batch: f32,
    bound: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    c1: f32,
    c2: f32,
) {
    assert_eq!(weights.len(), grad.len(), "adam_step shape mismatch");
    assert_eq!(weights.len(), m1.len(), "adam_step shape mismatch");
    assert_eq!(weights.len(), m2.len(), "adam_step shape mismatch");
    for (((w, m), v), g) in weights.iter_mut().zip(m1).zip(m2).zip(grad) {
        let gc = (g * inv_batch).clamp(-bound, bound);
        *m = beta1 * *m + (1.0 - beta1) * gc;
        *v = beta2 * *v + (1.0 - beta2) * gc * gc;
        *w -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_slice(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = Matrix::default();
        a.matmul_into(&b, &mut c);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit() {
        let a = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_slice(2, 2, &[1.0, 0.5, -1.0, 2.0]);
        // aᵀ (3x2) × b (2x2) = 3x2
        let mut c = Matrix::default();
        a.t_matmul_into(&b, &mut c);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        // check element (0,0): col0 of a · col0 of b = 1*1 + 4*(-1) = -3
        assert_eq!(c.get(0, 0), -3.0);

        let d = Matrix::from_slice(2, 3, &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // a (2x3) × dᵀ (3x2) = 2x2; element (0,1) = row0(a)·row1(d) = 6*2
        let mut e = Matrix::default();
        a.matmul_t_into(&d, &mut e);
        assert_eq!(e.get(0, 1), 12.0);
    }

    #[test]
    fn into_variants_overwrite_reused_buffers() {
        let mut rng = Prng::new(17);
        let data_a: Vec<f32> = (0..4 * 5).map(|_| rng.gauss() as f32).collect();
        let data_b: Vec<f32> = (0..5 * 3).map(|_| rng.gauss() as f32).collect();
        let a = Matrix::from_slice(4, 5, &data_a);
        let b = Matrix::from_slice(5, 3, &data_b);

        // A reused buffer starts with the wrong shape and stale
        // contents; every `_into` must reshape and overwrite it, giving
        // what a fresh buffer gets.
        let fresh = |f: &dyn Fn(&mut Matrix)| {
            let mut m = Matrix::default();
            f(&mut m);
            m
        };
        let mut out = Matrix::from_slice(1, 2, &[9.0, 9.0]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, fresh(&|m| a.matmul_into(&b, m)));

        let data_c: Vec<f32> = (0..4 * 3).map(|_| rng.gauss() as f32).collect();
        let c = Matrix::from_slice(4, 3, &data_c);
        a.t_matmul_into(&c, &mut out);
        assert_eq!(out, fresh(&|m| a.t_matmul_into(&c, m)));

        let data_d: Vec<f32> = (0..2 * 5).map(|_| rng.gauss() as f32).collect();
        let d = Matrix::from_slice(2, 5, &data_d);
        a.matmul_t_into(&d, &mut out);
        assert_eq!(out, fresh(&|m| a.matmul_t_into(&d, m)));

        // Zero entries in the left operand must not perturb results
        // (the old implementation skipped them; the branch-free one
        // multiplies through).
        let sparse = Matrix::from_slice(2, 2, &[0.0, 1.0, 0.0, 0.0]);
        let dense = Matrix::from_slice(2, 2, &[3.0, -4.0, 5.0, 6.0]);
        sparse.matmul_into(&dense, &mut out);
        assert_eq!(out.data(), &[5.0, 6.0, 0.0, 0.0]);
    }

    /// The fused dense forward must bit-match the unfused three-pass
    /// pipeline at every shape, including k-block remainders.
    #[test]
    fn affine_into_bit_matches_unfused_pipeline() {
        let mut rng = Prng::new(23);
        for rows in [1usize, 7, 9, 33] {
            for (k, w) in [(16usize, 32usize), (5, 3), (8, 8), (17, 24)] {
                let a_data: Vec<f32> = (0..rows * k).map(|_| rng.gauss() as f32).collect();
                let w_data: Vec<f32> = (0..k * w).map(|_| rng.gauss() as f32).collect();
                let bias: Vec<f32> = (0..w).map(|_| rng.gauss() as f32).collect();
                let a = Matrix::from_slice(rows, k, &a_data);
                let weights = Matrix::from_slice(k, w, &w_data);
                for relu in [false, true] {
                    let mut expect = Matrix::default();
                    a.matmul_into(&weights, &mut expect);
                    expect.add_row_vec(&bias);
                    if relu {
                        expect.relu_inplace();
                    }
                    let mut got = Matrix::from_slice(1, 1, &[5.0]);
                    a.affine_into(&weights, &bias, relu, &mut got);
                    let eb: Vec<u32> = expect.data().iter().map(|x| x.to_bits()).collect();
                    let gb: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
                    assert_eq!(gb, eb, "{rows}x{k}x{w} relu={relu}");
                }
            }
        }
    }

    /// The fused centred projection must bit-match centring into a
    /// scratch matrix first and then running the plain `matmul_t_into`.
    #[test]
    fn centered_matmul_t_bit_matches_two_pass() {
        let mut rng = Prng::new(29);
        for rows in [1usize, 8, 21] {
            for (w, n) in [(32usize, 8usize), (6, 3), (12, 11)] {
                let a_data: Vec<f32> = (0..rows * w).map(|_| rng.gauss() as f32).collect();
                let b_data: Vec<f32> = (0..n * w).map(|_| rng.gauss() as f32).collect();
                let mean: Vec<f32> = (0..w).map(|_| rng.gauss() as f32).collect();
                let a = Matrix::from_slice(rows, w, &a_data);
                let b = Matrix::from_slice(n, w, &b_data);
                let centered_data: Vec<f32> = a
                    .data()
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| x - mean[i % w])
                    .collect();
                let centered = Matrix::from_slice(rows, w, &centered_data);
                let mut expect = Matrix::default();
                centered.matmul_t_into(&b, &mut expect);
                let mut got = Matrix::from_slice(1, 1, &[5.0]);
                a.centered_matmul_t_into(&mean, &b, &mut got);
                let eb: Vec<u32> = expect.data().iter().map(|x| x.to_bits()).collect();
                let gb: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, eb, "{rows}x{w} by {n}");
            }
        }
    }

    /// The 8-row-blocked gradient GEMM must bit-match a one-step
    /// ascending-r accumulation at every block remainder (m % 8).
    #[test]
    fn t_matmul_blocked_bit_matches_one_step_loop() {
        let mut rng = Prng::new(37);
        for m in [1usize, 3, 4, 7, 8, 9, 15, 16, 17, 33] {
            for (k, n) in [(5usize, 4usize), (16, 24), (1, 1), (32, 6)] {
                let a_data: Vec<f32> = (0..m * k).map(|_| rng.gauss() as f32).collect();
                let b_data: Vec<f32> = (0..m * n).map(|_| rng.gauss() as f32).collect();
                let a = Matrix::from_slice(m, k, &a_data);
                let b = Matrix::from_slice(m, n, &b_data);
                let mut expect = Matrix::zeros(k, n);
                for r in 0..m {
                    let arow = a.row(r);
                    let brow = b.row(r);
                    for (i, &x) in arow.iter().enumerate() {
                        for (o, &v) in expect.row_mut(i).iter_mut().zip(brow) {
                            *o += x * v;
                        }
                    }
                }
                let mut got = Matrix::from_slice(1, 1, &[5.0]);
                a.t_matmul_into(&b, &mut got);
                let eb: Vec<u32> = expect.data().iter().map(|x| x.to_bits()).collect();
                let gb: Vec<u32> = got.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, eb, "{m}x{k} by {m}x{n}");
            }
        }
    }

    /// The fused momentum kernel must bit-match the unfused pipeline:
    /// scale pass, clamp pass, then `v·momentum`, `v += −lr·g`,
    /// `w += v` as separate vector ops.
    #[test]
    fn momentum_step_bit_matches_unfused_sequence() {
        let mut rng = Prng::new(41);
        for n in [1usize, 8, 37, 256] {
            let grad: Vec<f32> = (0..n).map(|_| rng.gauss() as f32 * 40.0).collect();
            let w0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
            let v0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
            let (lr, momentum, batch) = (0.05f32, 0.9f32, 24.0f32);
            // Unfused reference.
            let mut g_ref = Matrix::from_slice(1, n, &grad);
            g_ref.scale(1.0 / batch);
            for g in g_ref.data_mut() {
                *g = g.clamp(-5.0, 5.0);
            }
            let mut w_ref = Matrix::from_slice(1, n, &w0);
            let mut v_ref = Matrix::from_slice(1, n, &v0);
            v_ref.scale(momentum);
            v_ref.axpy(-lr, &g_ref);
            w_ref.axpy(1.0, &v_ref);
            // Fused.
            let (mut w, mut v) = (w0.clone(), v0.clone());
            momentum_step(&mut w, &mut v, &grad, 1.0 / batch, 5.0, lr, momentum);
            let eq = |a: &[f32], b: &[f32]| {
                a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()))
            };
            assert!(eq(&w, w_ref.data()), "weights diverge at n={n}");
            assert!(eq(&v, v_ref.data()), "velocity diverges at n={n}");
        }
    }

    /// The fused Adam kernel must bit-match the unfused pipeline
    /// (scale pass, clamp pass, per-element moment/parameter updates).
    #[test]
    fn adam_step_bit_matches_unfused_sequence() {
        let mut rng = Prng::new(43);
        for n in [1usize, 8, 37, 256] {
            let grad: Vec<f32> = (0..n).map(|_| rng.gauss() as f32 * 40.0).collect();
            let w0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32).collect();
            let m0: Vec<f32> = (0..n).map(|_| rng.gauss() as f32 * 0.1).collect();
            let v0: Vec<f32> = (0..n).map(|_| (rng.gauss() as f32 * 0.1).abs()).collect();
            let (lr, beta1, beta2, eps, batch) = (0.02f32, 0.9f32, 0.999f32, 1e-8f32, 24.0f32);
            let (c1, c2) = (1.0 - beta1.powf(3.0), 1.0 - beta2.powf(3.0));
            // Unfused reference.
            let mut g_ref = Matrix::from_slice(1, n, &grad);
            g_ref.scale(1.0 / batch);
            for g in g_ref.data_mut() {
                *g = g.clamp(-5.0, 5.0);
            }
            let (mut w_ref, mut m_ref, mut v_ref) = (w0.clone(), m0.clone(), v0.clone());
            for (((w, m), v), g) in w_ref
                .iter_mut()
                .zip(&mut m_ref)
                .zip(&mut v_ref)
                .zip(g_ref.data())
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *w -= lr * (*m / c1) / ((*v / c2).sqrt() + eps);
            }
            // Fused.
            let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
            adam_step(
                &mut w, &mut m, &mut v, &grad, 1.0 / batch, 5.0, lr, beta1, beta2, eps, c1, c2,
            );
            let eq = |a: &[f32], b: &[f32]| {
                a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()))
            };
            assert!(eq(&w, &w_ref), "weights diverge at n={n}");
            assert!(eq(&m, &m_ref), "first moment diverges at n={n}");
            assert!(eq(&v, &v_ref), "second moment diverges at n={n}");
        }
    }

    #[test]
    fn matvec_bit_matches_scalar_row_dots() {
        let mut rng = Prng::new(31);
        // Cover the 8-wide blocks and every remainder lane (rows % 8).
        for rows in [1usize, 3, 7, 8, 9, 16, 19, 64] {
            for cols in [1usize, 5, 8, 33] {
                let data: Vec<f32> = (0..rows * cols).map(|_| rng.gauss() as f32).collect();
                let m = Matrix::from_slice(rows, cols, &data);
                let v: Vec<f32> = (0..cols).map(|_| rng.gauss() as f32).collect();
                let expect: Vec<u32> = (0..rows)
                    .map(|r| {
                        let mut acc = 0.0f32;
                        for (a, b) in v.iter().zip(m.row(r)) {
                            acc += a * b;
                        }
                        acc.to_bits()
                    })
                    .collect();
                // Dirty, wrongly-sized output buffer must be reshaped.
                let mut out = vec![9.0f32; 3];
                m.matvec_into(&v, &mut out);
                let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expect, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn copy_from_and_reset_reuse_capacity() {
        let src = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut dst = Matrix::zeros(8, 8);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_zeroed(3, 2);
        assert_eq!(dst.rows(), 3);
        assert_eq!(dst.cols(), 2);
        assert!(dst.data().iter().all(|&x| x == 0.0));
        let mut sums = vec![7.0; 9];
        src.col_sums_into(&mut sums);
        assert_eq!(sums, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gather_rows_from_selects_in_index_order() {
        let src = Matrix::from_slice(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut dst = Matrix::zeros(9, 9);
        dst.gather_rows_from(&src, &[3, 0, 3]);
        assert_eq!(
            dst,
            Matrix::from_slice(3, 2, &[7.0, 8.0, 1.0, 2.0, 7.0, 8.0])
        );
        dst.gather_rows_from(&src, &[]);
        assert_eq!(dst.rows(), 0);
    }

    #[test]
    fn copy_rows_from_extracts_contiguous_chunks() {
        let src = Matrix::from_slice(4, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut dst = Matrix::zeros(9, 9);
        dst.copy_rows_from(&src, 1, 3);
        assert_eq!(dst, Matrix::from_slice(2, 2, &[3.0, 4.0, 5.0, 6.0]));
        // Empty range and full range both work; allocation is reused.
        dst.copy_rows_from(&src, 2, 2);
        assert_eq!(dst.rows(), 0);
        dst.copy_rows_from(&src, 0, 4);
        assert_eq!(dst, src);
    }

    #[test]
    fn softmax_rows_normalises() {
        let m = Matrix::from_slice(2, 3, &[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
        // Large logits must not overflow.
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn relu_forward_backward() {
        let pre = Matrix::from_slice(1, 4, &[-1.0, 0.0, 2.0, -3.0]);
        let mut act = pre.clone();
        act.relu_inplace();
        assert_eq!(act.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut grad = Matrix::from_slice(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        grad.relu_backward_inplace(&pre);
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn col_stats_and_argmax() {
        let m = Matrix::from_slice(2, 2, &[1.0, 5.0, 3.0, 1.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_updates() {
        let mut a = Matrix::zeros(1, 3);
        let g = Matrix::from_slice(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[-0.5, -1.0, -1.5]);
    }

    #[test]
    fn he_init_statistics() {
        let mut rng = Prng::new(11);
        let m = Matrix::he_init(64, 64, &mut rng);
        let mean: f32 = m.data().iter().sum::<f32>() / 4096.0;
        let var: f32 = m
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 4096.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 2.0 / 64.0).abs() < 0.01, "var {var}");
    }
}
