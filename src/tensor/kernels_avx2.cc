/**
 * @file
 * AVX2 implementations of the dispatched tensor kernels.
 *
 * Bit-identical to kernels_scalar.cc by construction: the same
 * operand groupings, separate mul/add instructions (this TU compiles
 * with -mavx2 but *not* -mfma, plus -ffp-contract=off, so no fused
 * multiply-add can change a rounding), and the same reduction tree —
 * the scalar `reduce8` is a transliteration of the extract / movehl /
 * shuffle sequence in `hsum8` below. All loads are unaligned-safe
 * (`loadu`); `Matrix` data is 64-byte aligned so full-tensor sweeps
 * stay line-aligned, but row pointers inherit only the alignment
 * `cols` provides.
 *
 * This file is only compiled when the toolchain targets x86-64 with
 * AVX2 available (CEGMA_HAVE_AVX2); callers gate on
 * `cpuSupportsAvx2()` at runtime.
 */

#include "tensor/kernels.hh"

#ifdef CEGMA_HAVE_AVX2

#include <immintrin.h>

namespace cegma {

namespace {

/** The fixed 8-lane tree: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)). */
inline float
hsum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
    __m128 t = _mm_add_ps(s, _mm_movehl_ps(s, s)); // [s0+s2, s1+s3]
    __m128 r = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x1));
    return _mm_cvtss_f32(r);
}

float
dotAvx2(const float *a, const float *b, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_add_ps(
            acc0, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                _mm256_loadu_ps(b + i)));
        acc1 = _mm256_add_ps(
            acc1, _mm256_mul_ps(_mm256_loadu_ps(a + i + 8),
                                _mm256_loadu_ps(b + i + 8)));
        acc2 = _mm256_add_ps(
            acc2, _mm256_mul_ps(_mm256_loadu_ps(a + i + 16),
                                _mm256_loadu_ps(b + i + 16)));
        acc3 = _mm256_add_ps(
            acc3, _mm256_mul_ps(_mm256_loadu_ps(a + i + 24),
                                _mm256_loadu_ps(b + i + 24)));
    }
    // 8..31-element remainder drains into lane group 0 (as in scalar).
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_add_ps(
            acc0, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                _mm256_loadu_ps(b + i)));
    }
    __m256 m = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                             _mm256_add_ps(acc2, acc3));
    float sum = hsum8(m);
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

void
ntRowAvx2(const float *arow, const float *b, size_t k, size_t j0,
          size_t j1, float *crow)
{
    for (size_t j = j0; j < j1; ++j)
        crow[j] = dotAvx2(arow, b + j * k, k);
}

void
quadAxpyAvx2(float *c, const float a[4], const float *b0,
             const float *b1, const float *b2, const float *b3,
             size_t n)
{
    const __m256 a0 = _mm256_set1_ps(a[0]);
    const __m256 a1 = _mm256_set1_ps(a[1]);
    const __m256 a2 = _mm256_set1_ps(a[2]);
    const __m256 a3 = _mm256_set1_ps(a[3]);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 t01 = _mm256_add_ps(
            _mm256_mul_ps(a0, _mm256_loadu_ps(b0 + j)),
            _mm256_mul_ps(a1, _mm256_loadu_ps(b1 + j)));
        __m256 t23 = _mm256_add_ps(
            _mm256_mul_ps(a2, _mm256_loadu_ps(b2 + j)),
            _mm256_mul_ps(a3, _mm256_loadu_ps(b3 + j)));
        _mm256_storeu_ps(c + j,
                         _mm256_add_ps(_mm256_loadu_ps(c + j),
                                       _mm256_add_ps(t01, t23)));
    }
    for (; j < n; ++j) {
        float t01 = a[0] * b0[j] + a[1] * b1[j];
        float t23 = a[2] * b2[j] + a[3] * b3[j];
        c[j] += t01 + t23;
    }
}

void
axpyAvx2(float *c, float a, const float *b, size_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            c + j,
            _mm256_add_ps(_mm256_loadu_ps(c + j),
                          _mm256_mul_ps(av, _mm256_loadu_ps(b + j))));
    }
    for (; j < n; ++j)
        c[j] += a * b[j];
}

/** Lanes r = 0..7 hold A[r][kk .. kk+3] of rows `k` floats apart,
 *  one register per input: an 8x4 transpose of the panel's quad. */
inline void
loadQuad(const float *a, size_t k, __m256 &q0, __m256 &q1, __m256 &q2,
         __m256 &q3)
{
    __m128 r0 = _mm_loadu_ps(a), r1 = _mm_loadu_ps(a + k);
    __m128 r2 = _mm_loadu_ps(a + 2 * k), r3 = _mm_loadu_ps(a + 3 * k);
    __m128 r4 = _mm_loadu_ps(a + 4 * k), r5 = _mm_loadu_ps(a + 5 * k);
    __m128 r6 = _mm_loadu_ps(a + 6 * k), r7 = _mm_loadu_ps(a + 7 * k);
    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
    _MM_TRANSPOSE4_PS(r4, r5, r6, r7);
    q0 = _mm256_set_m128(r4, r0);
    q1 = _mm256_set_m128(r5, r1);
    q2 = _mm256_set_m128(r6, r2);
    q3 = _mm256_set_m128(r7, r3);
}

/**
 * NJ <= 8 output columns of one 8-row panel: a = &A[0][0] (row stride
 * k), b = &B[0][j0] and c = &C[0][j0] (row stride n). Lane r is row
 * r, so one instruction updates one column of all eight rows with the
 * row loop's quadAxpy / axpy expression for that cell, starting from
 * the +0 the row loop's fresh C holds. A lane whose quad (or tail
 * value) is zero keeps its old value through the select, exactly as
 * the row loop's skip leaves the cell alone — even where the product
 * would be NaN (0 * inf). `_CMP_EQ_OQ` is false for NaN, like
 * `== 0.0f`.
 */
template <size_t NJ>
inline void
panelColumns(const float *a, size_t k, const float *b, size_t n,
             float *c)
{
    const __m256 zero = _mm256_setzero_ps();
    __m256 acc[NJ];
    for (size_t j = 0; j < NJ; ++j)
        acc[j] = zero;
    size_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
        __m256 a0, a1, a2, a3;
        loadQuad(a + kk, k, a0, a1, a2, a3);
        const __m256 skip = _mm256_and_ps(
            _mm256_and_ps(_mm256_cmp_ps(a0, zero, _CMP_EQ_OQ),
                          _mm256_cmp_ps(a1, zero, _CMP_EQ_OQ)),
            _mm256_and_ps(_mm256_cmp_ps(a2, zero, _CMP_EQ_OQ),
                          _mm256_cmp_ps(a3, zero, _CMP_EQ_OQ)));
        const float *b0 = b + kk * n;
        const float *b1 = b0 + n;
        const float *b2 = b1 + n;
        const float *b3 = b2 + n;
        for (size_t j = 0; j < NJ; ++j) {
            __m256 t01 = _mm256_add_ps(
                _mm256_mul_ps(a0, _mm256_broadcast_ss(b0 + j)),
                _mm256_mul_ps(a1, _mm256_broadcast_ss(b1 + j)));
            __m256 t23 = _mm256_add_ps(
                _mm256_mul_ps(a2, _mm256_broadcast_ss(b2 + j)),
                _mm256_mul_ps(a3, _mm256_broadcast_ss(b3 + j)));
            acc[j] = _mm256_blendv_ps(
                _mm256_add_ps(acc[j], _mm256_add_ps(t01, t23)), acc[j],
                skip);
        }
    }
    for (; kk < k; ++kk) {
        const __m256 av = _mm256_set_ps(
            a[7 * k + kk], a[6 * k + kk], a[5 * k + kk], a[4 * k + kk],
            a[3 * k + kk], a[2 * k + kk], a[k + kk], a[kk]);
        const __m256 skip = _mm256_cmp_ps(av, zero, _CMP_EQ_OQ);
        const float *bk = b + kk * n;
        for (size_t j = 0; j < NJ; ++j) {
            acc[j] = _mm256_blendv_ps(
                _mm256_add_ps(acc[j],
                              _mm256_mul_ps(av, _mm256_broadcast_ss(bk + j))),
                acc[j], skip);
        }
    }
    alignas(32) float out[8 * NJ];
    for (size_t j = 0; j < NJ; ++j)
        _mm256_store_ps(out + 8 * j, acc[j]);
    for (size_t r = 0; r < 8; ++r)
        for (size_t j = 0; j < NJ; ++j)
            c[r * n + j] = out[8 * j + r];
}

void
gemmPanelsAvx2(const float *a, size_t k, const float *b, size_t n,
               float *c, size_t panels)
{
    constexpr size_t kRows = kGemmPanelRows;
    for (size_t p = 0; p < panels; ++p) {
        const float *ap = a + p * kRows * k;
        float *cp = c + p * kRows * n;
        for (size_t j0 = 0; j0 < n; j0 += 8) {
            const float *bj = b + j0;
            float *cj = cp + j0;
            switch (n - j0 < 8 ? n - j0 : 8) {
              case 1: panelColumns<1>(ap, k, bj, n, cj); break;
              case 2: panelColumns<2>(ap, k, bj, n, cj); break;
              case 3: panelColumns<3>(ap, k, bj, n, cj); break;
              case 4: panelColumns<4>(ap, k, bj, n, cj); break;
              case 5: panelColumns<5>(ap, k, bj, n, cj); break;
              case 6: panelColumns<6>(ap, k, bj, n, cj); break;
              case 7: panelColumns<7>(ap, k, bj, n, cj); break;
              default: panelColumns<8>(ap, k, bj, n, cj); break;
            }
        }
    }
}

void
cosineScaleRowAvx2(float *s, float inv_x, const float *inv_y, size_t n)
{
    const __m256 ix = _mm256_set1_ps(inv_x);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(
            s + j,
            _mm256_mul_ps(
                _mm256_loadu_ps(s + j),
                _mm256_mul_ps(ix, _mm256_loadu_ps(inv_y + j))));
    }
    for (; j < n; ++j)
        s[j] *= inv_x * inv_y[j];
}

void
euclidFinishRowAvx2(float *s, float sq_x, const float *sq_y, size_t n)
{
    const __m256 two = _mm256_set1_ps(2.0f);
    const __m256 sx = _mm256_set1_ps(sq_x);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        __m256 v = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(two, _mm256_loadu_ps(s + j)),
                          sx),
            _mm256_loadu_ps(sq_y + j));
        _mm256_storeu_ps(s + j, v);
    }
    for (; j < n; ++j)
        s[j] = 2.0f * s[j] - sq_x - sq_y[j];
}

} // namespace

const TensorKernels kAvx2Kernels = {
    dotAvx2,  ntRowAvx2,      quadAxpyAvx2,
    axpyAvx2, gemmPanelsAvx2, cosineScaleRowAvx2,
    euclidFinishRowAvx2,
};

} // namespace cegma

#endif // CEGMA_HAVE_AVX2
