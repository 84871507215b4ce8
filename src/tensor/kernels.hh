/**
 * @file
 * The dispatched inner kernels behind the tensor / similarity hot
 * loops: one implementation per `SimdLevel`, selected at runtime
 * (common/simd.hh).
 *
 * Bit-identity contract (the repo's determinism bar): for every
 * kernel, the scalar and AVX2 implementations perform *the same*
 * floating-point operations on *the same* operand groupings —
 *
 *  - `dot` splits the reduction over 32 partial accumulators (four
 *    groups of eight lanes), drains the 8..31-element remainder into
 *    the first lane group, merges groups pairwise
 *    ((g0+g1) + (g2+g3), per lane), reduces the eight lanes with the
 *    fixed tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), and folds the
 *    final <8 tail serially — in both implementations;
 *  - the elementwise kernels use the same expression tree per element
 *    (lane width cannot change the bits of independent elements);
 *  - `gemmPanels` exists at the AVX2 level only; each of its cells
 *    evaluates the `quadAxpy` / `axpy` expressions `matmul`'s row loop
 *    would, with the row loop's zero skips as per-lane selects;
 *  - no implementation uses FMA contraction (the kernel TUs compile
 *    with -ffp-contract=off, and the AVX2 TU enables -mavx2 only).
 *
 * So `CEGMA_SIMD=avx2` and `CEGMA_SIMD=scalar` produce bit-identical
 * tensors everywhere, and the scalar path doubles as the oracle in
 * tests/simd_test.cc.
 *
 * One carve-out: NaN *payload* bits. x86 propagates the first NaN
 * operand's payload, and the compiler may legally commute scalar
 * multiplies and adds, so when two different NaNs meet (e.g. a
 * propagated input NaN against an inf-minus-inf "indefinite") the
 * surviving payload is codegen-dependent. The contract is therefore:
 * every finite and infinite value is bit-exact across levels, and a
 * cell is NaN under one level iff it is NaN under the other. Real
 * model tensors never contain NaN, so end-to-end outputs stay fully
 * bit-identical (the model grid in simd_test asserts exact equality).
 *
 * This header is internal to src/tensor and src/gmn; everything else
 * goes through the `Matrix` kernels (matrix.hh) or the similarity API.
 */

#ifndef CEGMA_TENSOR_KERNELS_HH
#define CEGMA_TENSOR_KERNELS_HH

#include <cstddef>

#include "common/simd.hh"

namespace cegma {

/** Rows per `gemmPanels` panel, and the widest output it takes. */
constexpr size_t kGemmPanelRows = 8;
constexpr size_t kGemmPanelMaxCols = 16;

/** One SimdLevel's implementations of the inner kernels. */
struct TensorKernels
{
    /** Reduction: sum_i a[i] * b[i] (lane-split order, see above). */
    float (*dot)(const float *a, const float *b, size_t n);

    /**
     * A*B^T row sweep: crow[j] = dot(arow, b + j*k, k) for j in
     * [j0, j1). One indirect call covers a whole j-tile of a row.
     */
    void (*ntRow)(const float *arow, const float *b, size_t k,
                  size_t j0, size_t j1, float *crow);

    /**
     * GEMM quad update: c[j] += (a[0]*b0[j] + a[1]*b1[j]) +
     * (a[2]*b2[j] + a[3]*b3[j]) — four B rows per pass, the fixed
     * pairwise grouping in both implementations.
     */
    void (*quadAxpy)(float *c, const float a[4], const float *b0,
                     const float *b1, const float *b2, const float *b3,
                     size_t n);

    /** GEMM k-tail update: c[j] += a * b[j]. */
    void (*axpy)(float *c, float a, const float *b, size_t n);

    /**
     * Narrow-output GEMM panels: C = A * B for `panels` consecutive
     * 8-row panels of A (stride k) and a freshly zeroed C (stride n),
     * n <= 16, with every cell running exactly the `quadAxpy` / `axpy`
     * sequence of `matmul`'s row loop over all of k, its zero-quad and
     * zero-tail skips included (as a per-lane select, so a skipped
     * update leaves the cell's bits untouched even where multiplying
     * would give NaN). Null at the scalar level, whose row loop is the
     * oracle.
     */
    void (*gemmPanels)(const float *a, size_t k, const float *b,
                       size_t n, float *c, size_t panels);

    /** Cosine normalization: s[j] *= inv_x * inv_y[j]. */
    void (*cosineScaleRow)(float *s, float inv_x, const float *inv_y,
                           size_t n);

    /** Euclidean finish: s[j] = 2*s[j] - sq_x - sq_y[j]. */
    void (*euclidFinishRow)(float *s, float sq_x, const float *sq_y,
                            size_t n);
};

/** The kernel table of the *active* level (one relaxed load). */
const TensorKernels &tensorKernels();

/** The kernel table of an explicit level (tests, benches). */
const TensorKernels &tensorKernels(SimdLevel level);

/** The scalar reference table (always available). */
extern const TensorKernels kScalarKernels;

#ifdef CEGMA_HAVE_AVX2
/** The AVX2 table (gate behind `cpuSupportsAvx2()` before calling). */
extern const TensorKernels kAvx2Kernels;
#endif

} // namespace cegma

#endif // CEGMA_TENSOR_KERNELS_HH
