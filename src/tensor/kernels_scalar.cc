/**
 * @file
 * Scalar reference implementations of the dispatched tensor kernels —
 * the bit-exactness oracle for the AVX2 path.
 *
 * The accumulation structure deliberately mirrors the AVX2 kernels
 * lane for lane (see kernels.hh); this TU compiles with
 * -ffp-contract=off and auto-vectorization disabled so "scalar" means
 * scalar: one IEEE-754 operation per source expression, giving the
 * tests a SIMD-free oracle and the benches an honest baseline.
 */

#include "tensor/kernels.hh"

namespace cegma {

namespace {

/**
 * The fixed 8-lane reduction tree both levels share: pairs across the
 * 128-bit halves first (l0+l4 ...), then across quarters, then the
 * final pair — exactly the extract/movehl/shuffle sequence the AVX2
 * kernel performs.
 */
inline float
reduce8(const float lane[8])
{
    float s0 = lane[0] + lane[4];
    float s1 = lane[1] + lane[5];
    float s2 = lane[2] + lane[6];
    float s3 = lane[3] + lane[7];
    float t0 = s0 + s2;
    float t1 = s1 + s3;
    return t0 + t1;
}

float
dotScalar(const float *a, const float *b, size_t n)
{
    // Four groups of eight lanes: group g's lane r accumulates
    // elements i with i mod 32 == 8g + r.
    float acc[32] = {};
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        for (size_t g = 0; g < 4; ++g)
            for (size_t r = 0; r < 8; ++r)
                acc[8 * g + r] += a[i + 8 * g + r] * b[i + 8 * g + r];
    }
    // 8..31-element remainder drains into lane group 0.
    for (; i + 8 <= n; i += 8) {
        for (size_t r = 0; r < 8; ++r)
            acc[r] += a[i + r] * b[i + r];
    }
    // Pairwise group merge, per lane: (g0+g1) + (g2+g3).
    float lane[8];
    for (size_t r = 0; r < 8; ++r)
        lane[r] = (acc[r] + acc[8 + r]) + (acc[16 + r] + acc[24 + r]);
    float sum = reduce8(lane);
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

void
ntRowScalar(const float *arow, const float *b, size_t k, size_t j0,
            size_t j1, float *crow)
{
    for (size_t j = j0; j < j1; ++j)
        crow[j] = dotScalar(arow, b + j * k, k);
}

void
quadAxpyScalar(float *c, const float a[4], const float *b0,
               const float *b1, const float *b2, const float *b3,
               size_t n)
{
    for (size_t j = 0; j < n; ++j) {
        float t01 = a[0] * b0[j] + a[1] * b1[j];
        float t23 = a[2] * b2[j] + a[3] * b3[j];
        c[j] += t01 + t23;
    }
}

void
axpyScalar(float *c, float a, const float *b, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        c[j] += a * b[j];
}

void
cosineScaleRowScalar(float *s, float inv_x, const float *inv_y,
                     size_t n)
{
    for (size_t j = 0; j < n; ++j)
        s[j] *= inv_x * inv_y[j];
}

void
euclidFinishRowScalar(float *s, float sq_x, const float *sq_y, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        s[j] = 2.0f * s[j] - sq_x - sq_y[j];
}

} // namespace

const TensorKernels kScalarKernels = {
    dotScalar,  ntRowScalar,          quadAxpyScalar,
    axpyScalar, nullptr,              cosineScaleRowScalar,
    euclidFinishRowScalar,
};

const TensorKernels &
tensorKernels(SimdLevel level)
{
#ifdef CEGMA_HAVE_AVX2
    if (level == SimdLevel::Avx2 && cpuSupportsAvx2())
        return kAvx2Kernels;
#else
    (void)level;
#endif
    return kScalarKernels;
}

const TensorKernels &
tensorKernels()
{
    return tensorKernels(simdLevel());
}

} // namespace cegma
