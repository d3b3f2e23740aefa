//! Blocked matrix-multiplication kernels in the three orientations a
//! manual-backward transformer needs.
//!
//! All matrices are row-major slices. Kernels *accumulate* into `out`
//! (`out += a·b`), which lets backward passes add gradient contributions
//! without temporaries; callers that need assignment zero the buffer first
//! (see [`matmul`] which does this for convenience via `matmul_acc` +
//! `fill`).
//!
//! [`matmul_acc`] and [`matmul_at_b_acc`] loop in `i-k-j` order: the
//! innermost loop walks contiguous rows of `b` and `out`, an AXPY the
//! compiler auto-vectorises. A cache block over `k` keeps the working set
//! of `b` rows resident in L1/L2 for large matrices.
//!
//! [`matmul_a_bt_acc`] — every f32 linear-layer forward, training and
//! serving alike — is a register-tiled SSE2 micro-kernel on x86-64: 2×4 output
//! tiles (1×4, 2×1 and 1×1 at the edges), one `__m128` accumulator per
//! output element. Its contract is [`dot`]'s lane order: lane `l` sums
//! the products at `k ≡ l (mod 4)` over the 4-aligned prefix, the lanes
//! reduce as `(s0 + s1) + (s2 + s3)`, the scalar tail adds in order, and
//! the result is added into `out`. Each element is therefore bit-identical
//! to `out += dot(a_i, b_j)` whatever the tile, the row count or the
//! chunking.

/// Cache block size over the shared dimension. 64 f32 rows of a typical
/// `n ≤ 512` matrix fit comfortably in L2.
const KB: usize = 64;

/// `out = a · b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n`.
pub fn matmul(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_acc(out, a, b, m, k, n);
}

/// `out += a · b` where `a` is `m×k`, `b` is `k×n`, `out` is `m×n`.
pub fn matmul_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a has wrong size");
    assert_eq!(b.len(), k * n, "b has wrong size");
    assert_eq!(out.len(), m * n, "out has wrong size");
    for k0 in (0..k).step_by(KB) {
        let k1 = (k0 + KB).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let aik = arow[kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * bv;
                }
            }
        }
    }
}

/// `out = a · bᵀ` where `a` is `m×k`, `b` is `n×k`, `out` is `m×n`.
///
/// This is the natural orientation for `x · Wᵀ` with row-major weight
/// matrices `W[out_features, in_features]` — i.e. every linear-layer
/// forward pass.
pub fn matmul_a_bt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_a_bt_acc(out, a, b, m, k, n);
}

/// `out += a · bᵀ` (see [`matmul_a_bt`]).
///
/// Every output element is bit-identical to `out[i·n + j] += dot(a_i, b_j)`
/// with [`dot`]'s lane order: four partial sums `s0..s3` over the
/// 4-aligned prefix of `k`, reduced as `(s0 + s1) + (s2 + s3)`, then the
/// scalar tail in order. Results therefore do not depend on tiling, row
/// count or chunking — single-row calls and chunked calls agree exactly.
///
/// On x86-64 the work runs in an SSE2 micro-kernel (SSE2 is part of the
/// baseline, so there is no runtime dispatch): 2×4 output tiles, each
/// element in its own `__m128` whose lanes are `s0..s3`, with 1×4, 2×1
/// and 1×1 edge tiles. Eight independent accumulators hide the add
/// latency that bounds a single [`dot`] chain, and each loaded `a` / `b`
/// vector is reused across the tile.
pub fn matmul_a_bt_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    // Checked products: a wrapped `m * k` must not pass for a short slice.
    assert_eq!(Some(a.len()), m.checked_mul(k), "a has wrong size");
    assert_eq!(Some(b.len()), n.checked_mul(k), "b has wrong size");
    assert_eq!(Some(out.len()), m.checked_mul(n), "out has wrong size");
    // SAFETY: SSE2 is part of the x86-64 baseline, and the asserts above
    // prove the extents of `out`, `a` and `b` that the kernel reads.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::matmul_a_bt_acc(out, a, b, m, k, n)
    };
    #[cfg(not(target_arch = "x86_64"))]
    matmul_a_bt_acc_scalar(out, a, b, m, k, n);
}

/// Portable [`matmul_a_bt_acc`]: one [`dot`] per output element. The
/// fallback off x86-64 and the reference the SSE2 kernel is tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn matmul_a_bt_acc_scalar(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] += dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
}

/// SSE2 register-tiled `a · bᵀ`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_setzero_ps, _mm_storeu_ps,
    };

    /// Tile loop: 2-row pairs, then the odd last row; within each, 4-column
    /// groups, then single columns.
    ///
    /// # Safety
    /// `a`, `b` and `out` must hold `m·k`, `n·k` and `m·n` elements.
    pub(super) unsafe fn matmul_a_bt_acc(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut i = 0;
        while i + 2 <= m {
            let mut j = 0;
            while j + 4 <= n {
                tile::<2, 4>(out, a, b, i, j, k, n);
                j += 4;
            }
            while j < n {
                tile::<2, 1>(out, a, b, i, j, k, n);
                j += 1;
            }
            i += 2;
        }
        if i < m {
            let mut j = 0;
            while j + 4 <= n {
                tile::<1, 4>(out, a, b, i, j, k, n);
                j += 4;
            }
            while j < n {
                tile::<1, 1>(out, a, b, i, j, k, n);
                j += 1;
            }
        }
    }

    /// `out[i..i+R, j..j+C] += a[i..i+R] · b[j..j+C]ᵀ`, one `__m128`
    /// accumulator per element holding [`super::dot`]'s `s0..s3`.
    ///
    /// # Safety
    /// Rows `i..i+R` of `a` (`m×k`), rows `j..j+C` of `b` (`n×k`) and the
    /// tile of `out` (`m×n`) must be in bounds.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)]
    unsafe fn tile<const R: usize, const C: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        i: usize,
        j: usize,
        k: usize,
        n: usize,
    ) {
        let ap = a.as_ptr().add(i * k);
        let bp = b.as_ptr().add(j * k);
        let k4 = k / 4 * 4;
        let mut acc = [[_mm_setzero_ps(); C]; R];
        let mut t = 0;
        while t < k4 {
            let mut bv = [_mm_setzero_ps(); C];
            for c in 0..C {
                bv[c] = _mm_loadu_ps(bp.add(c * k + t));
            }
            for r in 0..R {
                let av = _mm_loadu_ps(ap.add(r * k + t));
                for c in 0..C {
                    acc[r][c] = _mm_add_ps(acc[r][c], _mm_mul_ps(av, bv[c]));
                }
            }
            t += 4;
        }
        for r in 0..R {
            for c in 0..C {
                let mut s = lanes_sum(acc[r][c]);
                for t in k4..k {
                    s += a[(i + r) * k + t] * b[(j + c) * k + t];
                }
                out[(i + r) * n + j + c] += s;
            }
        }
    }

    /// `(s0 + s1) + (s2 + s3)` — [`super::dot`]'s reduction order.
    ///
    /// # Safety
    /// Needs SSE, which every x86-64 CPU has.
    #[inline(always)]
    unsafe fn lanes_sum(v: __m128) -> f32 {
        let mut l = [0.0f32; 4];
        _mm_storeu_ps(l.as_mut_ptr(), v);
        (l[0] + l[1]) + (l[2] + l[3])
    }
}

/// `out = aᵀ · b` where `a` is `k×m`, `b` is `k×n`, `out` is `m×n`.
///
/// This is the weight-gradient orientation: `dW = dyᵀ · x`.
pub fn matmul_at_b(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_at_b_acc(out, a, b, m, k, n);
}

/// `out += aᵀ · b` (see [`matmul_at_b`]).
pub fn matmul_at_b_acc(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "a has wrong size");
    assert_eq!(b.len(), k * n, "b has wrong size");
    assert_eq!(out.len(), m * n, "out has wrong size");
    // Loop over the shared dim outermost; inner loop is again an AXPY over
    // contiguous rows of b and out.
    for kk in 0..k {
        let arow = &a[kk * m..(kk + 1) * m];
        let brow = &b[kk * n..(kk + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Dot product of two equal-length slices, unrolled 4-wide so the compiler
/// keeps independent accumulator chains (hides FP latency).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for c in 0..chunks {
        let i = c * 4;
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in (chunks * 4)..n {
        s += a[i] * b[i];
    }
    s
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x.iter()) {
        *yv += alpha * xv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference multiply used to validate the blocked kernels.
    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn arange(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * 37 % 23) as f32 - 11.0) * scale).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_reference_various_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 64, 8), (3, 130, 5), (16, 16, 16)] {
            let a = arange(m * k, 0.1);
            let b = arange(k * n, 0.05);
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul(&mut got, &a, &b, m, k, n);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![2.0, 3.0, 4.0, 5.0];
        let mut out = vec![10.0; 4];
        matmul_acc(&mut out, &a, &b, 2, 2, 2);
        assert_eq!(out, vec![12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn a_bt_matches_reference() {
        for &(m, k, n) in &[(2, 3, 4), (5, 65, 3), (7, 8, 7)] {
            let a = arange(m * k, 0.07);
            let bt = arange(n * k, 0.03); // b is n×k, we want a·bᵀ
            // build b = btᵀ as k×n for the reference
            let mut b = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    b[kk * n + j] = bt[j * k + kk];
                }
            }
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul_a_bt(&mut got, &a, &bt, m, k, n);
            assert_close(&got, &want, 1e-4);
        }
    }

    /// Bit equality, except that any NaN matches any NaN: Rust does not
    /// specify NaN payloads, so only NaN-ness is part of the contract.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} idx {idx}: {g:e} ({:#x}) vs {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Values whose products and sums round differently under any other
    /// accumulation order, so a lane-order slip changes bits.
    fn mixed(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2_654_435_761) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                let mant = (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
                mant * f32::powi(2.0, (s % 23) as i32 - 11)
            })
            .collect()
    }

    #[test]
    fn tiled_a_bt_is_bitwise_identical_to_scalar_dot() {
        // Every remainder class of the 2×4 tile and the 4-lane k loop:
        // m odd and even, n mod 4 = 0..3, k mod 4 = 0..3, k < 4 and k = 0,
        // accumulating into a non-zero `out`.
        for m in 1..=5 {
            for n in 1..=9 {
                for &k in &[0usize, 1, 2, 3, 4, 5, 6, 7, 8, 13, 64, 145, 146, 147] {
                    let seed = (m * 100 + n * 10 + k) as u32;
                    let a = mixed(m * k, seed);
                    let b = mixed(n * k, seed + 7);
                    let init = mixed(m * n, seed + 13);
                    let mut got = init.clone();
                    matmul_a_bt_acc(&mut got, &a, &b, m, k, n);
                    let mut want = init;
                    matmul_a_bt_acc_scalar(&mut want, &a, &b, m, k, n);
                    assert_same_bits(&got, &want, &format!("m={m} n={n} k={k}"));
                }
            }
        }
    }

    #[test]
    fn tiled_a_bt_matches_scalar_on_special_values() {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::from_bits(1),
            f32::MAX,
            1.5,
        ];
        let (m, n) = (3, 6);
        for &k in &[3usize, 9, 12] {
            for (si, &sp) in specials.iter().enumerate() {
                let mut a = mixed(m * k, si as u32 + 1);
                let mut b = mixed(n * k, si as u32 + 50);
                // Seed the special value into both the vector lanes and
                // the scalar tail, in each operand.
                for (idx, v) in a.iter_mut().enumerate() {
                    if idx % 5 == si % 5 {
                        *v = sp;
                    }
                }
                for (idx, v) in b.iter_mut().enumerate() {
                    if idx % 7 == si % 7 {
                        *v = -sp;
                    }
                }
                let init: Vec<f32> = (0..m * n).map(|x| specials[x % specials.len()]).collect();
                let mut got = init.clone();
                matmul_a_bt_acc(&mut got, &a, &b, m, k, n);
                let mut want = init;
                matmul_a_bt_acc_scalar(&mut want, &a, &b, m, k, n);
                assert_same_bits(&got, &want, &format!("special {sp:e} k={k}"));
                // Subnormal-only operands: no flush-to-zero on either path.
                let tiny = vec![f32::MIN_POSITIVE / 4.0; m * k];
                let one = vec![1.0; n * k];
                let mut got = vec![0.0; m * n];
                matmul_a_bt(&mut got, &tiny, &one, m, k, n);
                let mut want = vec![0.0; m * n];
                matmul_a_bt_acc_scalar(&mut want, &tiny, &one, m, k, n);
                assert_same_bits(&got, &want, "subnormal");
                assert!(got.iter().all(|&v| v > 0.0));
            }
        }
    }

    #[test]
    fn single_row_a_bt_equals_assigned_dot_matvec() {
        // A one-row `matmul_a_bt` (fill with 0.0, then accumulate) gives
        // the same bits as assigning `dot` per output into a buffer full of
        // garbage — the single-token decode contract.
        for &(k, n) in &[(144usize, 576usize), (144, 392), (392, 144), (7, 5), (0, 3)] {
            let x = mixed(k, k as u32 + 3);
            let w = mixed(n * k, n as u32 + 5);
            let mut y = vec![f32::NAN; n];
            for (o, yo) in y.iter_mut().enumerate() {
                *yo = dot(&x, &w[o * k..(o + 1) * k]);
            }
            let mut got = vec![-1.0e30; n];
            matmul_a_bt(&mut got, &x, &w, 1, k, n);
            assert_same_bits(&got, &y, &format!("k={k} n={n}"));
        }
    }

    #[test]
    fn at_b_matches_reference() {
        for &(m, k, n) in &[(3, 2, 4), (4, 70, 3), (6, 9, 6)] {
            let at = arange(k * m, 0.09); // a is k×m, we want aᵀ·b
            let b = arange(k * n, 0.02);
            // build aT = aᵀ as m×k for the reference
            let mut a = vec![0.0; m * k];
            for kk in 0..k {
                for i in 0..m {
                    a[i * k + kk] = at[kk * m + i];
                }
            }
            let want = reference(&a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul_at_b(&mut got, &at, &b, m, k, n);
            assert_close(&got, &want, 1e-4);
        }
    }

    #[test]
    fn dot_matches_reference() {
        for len in [0, 1, 3, 4, 5, 8, 13, 100] {
            let a = arange(len, 0.2);
            let b = arange(len, 0.3);
            let want: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - want).abs() < 1e-3, "len {len}");
        }
    }

    #[test]
    fn axpy_known() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_rejects_bad_shapes() {
        let mut out = vec![0.0; 4];
        matmul(&mut out, &[1.0; 5], &[1.0; 4], 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "a has wrong size")]
    fn a_bt_rejects_shapes_whose_size_wraps() {
        // 2^63 · 2 wraps to 0 = a.len() in release arithmetic.
        matmul_a_bt_acc(&mut [], &[], &[], 1 << 63, 2, 0);
    }
}
