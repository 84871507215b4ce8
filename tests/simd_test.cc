/**
 * @file
 * The SIMD dispatch contract (common/simd.hh, tensor/kernels.hh): the
 * AVX2 kernels are *bit-identical* to the restructured scalar oracle
 * on every shape — ragged tails, zero sizes, NaN / infinity /
 * denormal inputs — at every thread count, through every layer that
 * consumes them: raw dots, GEMMs, similarity (dense, windowed and
 * dedup'd), EMF tags, and whole model forward passes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "gmn/model.hh"
#include "gmn/similarity.hh"
#include "gmn/window_sched.hh"
#include "graph/generators.hh"
#include "hash/xxhash.hh"
#include "tensor/kernels.hh"
#include "tensor/matrix.hh"

namespace cegma {
namespace {

const SimilarityKind kAllKinds[] = {
    SimilarityKind::DotProduct,
    SimilarityKind::Cosine,
    SimilarityKind::Euclidean,
};

const uint32_t kThreadCounts[] = {1, 2, 8};

/** Lengths that hit every tail path: step-32 main loop, the step-8
 *  drain, the serial <8 tail, and n mod 8 != 0 raggedness. */
const size_t kLengths[] = {0,  1,  3,  7,  8,  9,  15, 16,  17,
                           31, 32, 33, 40, 63, 64, 65, 100, 129};

struct Shape
{
    size_t n, m, f;
};

/** Matrix shapes with ragged rows, columns and depths (f mod 8 != 0
 *  included), plus empty extents. */
const Shape kShapes[] = {
    {1, 1, 1},  {3, 5, 7},    {8, 8, 8},    {9, 17, 33}, {16, 32, 64},
    {37, 53, 133}, {64, 64, 40}, {5, 64, 96}, {0, 5, 8},  {5, 0, 8},
};

class SimdTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!cpuSupportsAvx2())
            GTEST_SKIP() << "CPU/build has no AVX2; nothing to compare";
    }

    void TearDown() override
    {
        ThreadPool::instance().setThreads(1);
        setSimdLevel(cpuSupportsAvx2() ? SimdLevel::Avx2
                                       : SimdLevel::Scalar);
        setWindowPolicy(WindowPolicy::Auto);
    }
};

bool
bitEqual(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/**
 * The cross-level contract for tensors that may contain NaN: finite
 * and infinite cells bit-exact, NaN cells NaN on both sides. NaN
 * *payloads* are excluded — the compiler may commute scalar FP ops,
 * and x86 keeps the first operand's payload when two different NaNs
 * meet, so payload bits are codegen-dependent (see kernels.hh).
 */
bool
bitOrNanEqual(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return bitEqual(a, b);
}

bool
matricesBitOrNanEqual(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!bitOrNanEqual(a.data()[i], b.data()[i]))
            return false;
    }
    return true;
}

/** Random values with specials scattered in: NaN, +/-inf, a
 *  denormal, and a negative zero — every bit pattern must propagate
 *  identically through both kernel sets. */
void
fillWithSpecials(Matrix &m, Rng &rng)
{
    m.fillXavier(rng);
    const float specials[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        1e-42f, // denormal
        -0.0f,
    };
    for (size_t i = 0; i < m.size(); i += 17)
        m.data()[i] = specials[(i / 17) % 5];
}

TEST_F(SimdTest, DotBitExactEveryTailShape)
{
    Rng rng(101);
    const TensorKernels &scalar = tensorKernels(SimdLevel::Scalar);
    const TensorKernels &avx2 = tensorKernels(SimdLevel::Avx2);
    for (size_t n : kLengths) {
        std::vector<float> a(n), b(n);
        for (size_t i = 0; i < n; ++i) {
            a[i] = static_cast<float>(rng.nextDouble() * 2.0 - 1.0);
            b[i] = static_cast<float>(rng.nextDouble() * 2.0 - 1.0);
        }
        EXPECT_TRUE(bitEqual(scalar.dot(a.data(), b.data(), n),
                             avx2.dot(a.data(), b.data(), n)))
            << "n=" << n;
    }
}

TEST_F(SimdTest, DotBitExactWithSpecials)
{
    Rng rng(102);
    const TensorKernels &scalar = tensorKernels(SimdLevel::Scalar);
    const TensorKernels &avx2 = tensorKernels(SimdLevel::Avx2);
    for (size_t n : kLengths) {
        Matrix a(1, n), b(1, n);
        fillWithSpecials(a, rng);
        fillWithSpecials(b, rng);
        float s = scalar.dot(a.data(), b.data(), n);
        float v = avx2.dot(a.data(), b.data(), n);
        EXPECT_TRUE(bitOrNanEqual(s, v)) << "n=" << n << " scalar=" << s
                                         << " avx2=" << v;
    }
}

TEST_F(SimdTest, GemmBitExactAcrossLevelsAndThreads)
{
    Rng rng(103);
    for (const Shape &sh : kShapes) {
        Matrix a(sh.n, sh.f), bt(sh.m, sh.f), b(sh.f, sh.m);
        a.fillXavier(rng);
        bt.fillXavier(rng);
        b.fillXavier(rng);

        ThreadPool::instance().setThreads(1);
        setSimdLevel(SimdLevel::Scalar);
        Matrix nt_ref = matmulNT(a, bt);
        Matrix mm_ref = matmul(a, b);

        for (uint32_t threads : kThreadCounts) {
            ThreadPool::instance().setThreads(threads);
            for (SimdLevel level :
                 {SimdLevel::Scalar, SimdLevel::Avx2}) {
                setSimdLevel(level);
                EXPECT_TRUE(matmulNT(a, bt).equals(nt_ref))
                    << sh.n << "x" << sh.m << "x" << sh.f
                    << " level=" << simdLevelName(level)
                    << " threads=" << threads;
                EXPECT_TRUE(matmul(a, b).equals(mm_ref))
                    << sh.n << "x" << sh.m << "x" << sh.f
                    << " level=" << simdLevelName(level)
                    << " threads=" << threads;
            }
        }
    }
}

/**
 * Narrow-output GEMM inputs that exercise the panel kernel's select:
 * rows whose first quad, tail or whole row is zero (mixed signs), a
 * row with one zero in its first quad only, NaN in A, and +/-inf in
 * the B rows the zero quads and tails multiply.
 */
void
fillNarrowGemmInputs(Matrix &a, Matrix &b, Rng &rng)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    a.fillXavier(rng);
    b.fillXavier(rng);
    const size_t k = a.cols();
    for (size_t i = 0; i < a.rows(); ++i) {
        float *row = a.row(i);
        switch (i % 5) {
          case 0: // first quad and k-tail zero
            for (size_t kk = 0; kk < std::min<size_t>(4, k); ++kk)
                row[kk] = kk % 2 != 0 ? -0.0f : 0.0f;
            for (size_t kk = k / 4 * 4; kk < k; ++kk)
                row[kk] = -0.0f;
            break;
          case 1: // every input zero
            for (size_t kk = 0; kk < k; ++kk)
                row[kk] = (kk + i) % 2 != 0 ? -0.0f : 0.0f;
            break;
          case 2:
            row[i % k] = nan;
            break;
          case 3: // a zero in the first quad only
            row[0] = -0.0f;
            break;
          default:
            break;
        }
    }
    for (size_t j = 0; j < b.cols(); j += 3) {
        b.at(0, j) = j % 2 != 0 ? inf : -inf;
        b.at(b.rows() - 1, j) = j % 2 != 0 ? -inf : inf;
    }
}

/**
 * Outputs at most kGemmPanelMaxCols wide take the 8-row panel kernel
 * under AVX2 (whole panels of each chunk; leftover rows keep the row
 * loop). Every cell must equal the scalar row loop's: zero quads and
 * zero tails skipped (an inf in B under them never turns the cell
 * NaN), NaN in A propagated, signed zeros kept.
 */
TEST_F(SimdTest, NarrowGemmBitExactAcrossLevelsAndThreads)
{
    Rng rng(108);
    const size_t ms[] = {0, 1, 7, 8, 9, 512, 513};
    const size_t ks[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64};
    for (size_t m : ms) {
        for (size_t k : ks) {
            for (size_t n = 1; n <= kGemmPanelMaxCols + 1; ++n) {
                Matrix a(m, k), b(k, n);
                fillNarrowGemmInputs(a, b, rng);

                ThreadPool::instance().setThreads(1);
                setSimdLevel(SimdLevel::Scalar);
                const Matrix ref = matmul(a, b);
                for (size_t i = 1; i < m; i += 5) { // all-zero rows
                    for (size_t j = 0; j < n; ++j)
                        ASSERT_TRUE(bitEqual(ref.at(i, j), 0.0f));
                }

                for (uint32_t threads : kThreadCounts) {
                    ThreadPool::instance().setThreads(threads);
                    for (SimdLevel level :
                         {SimdLevel::Scalar, SimdLevel::Avx2}) {
                        setSimdLevel(level);
                        EXPECT_TRUE(matricesBitOrNanEqual(matmul(a, b), ref))
                            << m << "x" << k << "x" << n
                            << " level=" << simdLevelName(level)
                            << " threads=" << threads;
                    }
                }
            }
        }
    }
}

TEST_F(SimdTest, SimilarityBitExactIncludingSpecials)
{
    Rng rng(104);
    for (const Shape &sh : kShapes) {
        for (bool specials : {false, true}) {
            Matrix x(sh.n, sh.f), y(sh.m, sh.f);
            if (specials) {
                fillWithSpecials(x, rng);
                fillWithSpecials(y, rng);
            } else {
                x.fillXavier(rng);
                y.fillXavier(rng);
            }
            for (SimilarityKind kind : kAllKinds) {
                setSimdLevel(SimdLevel::Scalar);
                Matrix ref = similarityMatrix(x, y, kind);
                setSimdLevel(SimdLevel::Avx2);
                Matrix got = similarityMatrix(x, y, kind);
                // Specials inject NaNs, where only position (not
                // payload) is pinned down; without them the compare
                // degenerates to exact bit equality.
                EXPECT_TRUE(matricesBitOrNanEqual(got, ref))
                    << similarityName(kind) << " " << sh.n << "x"
                    << sh.m << "x" << sh.f
                    << " specials=" << specials;
                if (!specials)
                    EXPECT_TRUE(got.equals(ref));
            }
        }
    }
}

TEST_F(SimdTest, WindowedSimilarityBitExactEveryBudgetAndOrder)
{
    Rng rng(105);
    Matrix x(61, 45), y(83, 45);
    x.fillXavier(rng);
    y.fillXavier(rng);
    for (SimilarityKind kind : kAllKinds) {
        setSimdLevel(SimdLevel::Scalar);
        setWindowPolicy(WindowPolicy::Stream);
        Matrix ref = similarityMatrix(x, y, kind);
        for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
            setSimdLevel(level);
            for (size_t budget : {size_t(2048), size_t(1) << 14,
                                  size_t(0) /* real L2 */}) {
                for (bool aoe : {true, false}) {
                    WindowSchedConfig cfg;
                    cfg.cacheBytes = budget;
                    cfg.useAoe = aoe;
                    WindowSchedStats st;
                    Matrix win = similarityMatrixWindowed(x, y, kind,
                                                          cfg, &st);
                    EXPECT_TRUE(win.equals(ref))
                        << similarityName(kind) << " budget=" << budget
                        << " aoe=" << aoe
                        << " level=" << simdLevelName(level);
                    // Every joint window computed exactly once.
                    size_t ntx =
                        (x.rows() + st.tileRowsX - 1) / st.tileRowsX;
                    size_t nty =
                        (y.rows() + st.tileRowsY - 1) / st.tileRowsY;
                    EXPECT_EQ(st.windows, ntx * nty);
                    EXPECT_EQ(st.slides + st.jumps + 1, st.windows);
                }
            }
            EXPECT_TRUE(similarityMatrixStreamed(x, y, kind).equals(ref))
                << similarityName(kind)
                << " level=" << simdLevelName(level);
        }
    }
}

TEST_F(SimdTest, EmfTagsBitExactRaggedRowsAndStrides)
{
    Rng rng(106);
    for (size_t rows : {size_t(1), size_t(7), size_t(8), size_t(9),
                        size_t(23), size_t(64)}) {
        for (size_t cols : {size_t(1), size_t(3), size_t(4), size_t(5),
                            size_t(16), size_t(33), size_t(64)}) {
            Matrix f(rows, cols);
            f.fillXavier(rng);
            const size_t row_bytes = cols * sizeof(float);

            setSimdLevel(SimdLevel::Scalar);
            std::vector<uint32_t> ref(rows);
            xxhash32Rows(f.data(), row_bytes, row_bytes, rows, 1234,
                         ref.data());
            for (size_t r = 0; r < rows; ++r)
                EXPECT_EQ(ref[r], xxhash32(f.row(r), row_bytes, 1234));

            setSimdLevel(SimdLevel::Avx2);
            std::vector<uint32_t> vec(rows);
            xxhash32Rows(f.data(), row_bytes, row_bytes, rows, 1234,
                         vec.data());
            EXPECT_EQ(vec, ref) << rows << "x" << cols;

            // Strided layout (rows wider apart than their content).
            const size_t stride = row_bytes + 12;
            std::vector<uint8_t> buf(rows * stride, 0xa5);
            for (size_t r = 0; r < rows; ++r)
                std::memcpy(buf.data() + r * stride, f.row(r),
                            row_bytes);
            std::vector<uint32_t> strided(rows);
            xxhash32Rows(buf.data(), row_bytes, stride, rows, 1234,
                         strided.data());
            EXPECT_EQ(strided, ref) << rows << "x" << cols << " strided";
        }
    }
}

/**
 * The end-to-end guarantee: whole forward passes produce bit-equal
 * scores across SIMD level x thread count x dedup on/off x window
 * policy, for all three models.
 */
TEST_F(SimdTest, ModelScoresBitIdenticalAcrossTheGrid)
{
    Rng rng(107);
    Graph g = threadGraph(32, 38, rng);
    GraphPair pair = makePairFromOriginal(g, true, rng);

    for (ModelId id : allModels()) {
        auto model = makeModel(id, 55);

        ThreadPool::instance().setThreads(1);
        setSimdLevel(SimdLevel::Scalar);
        setWindowPolicy(WindowPolicy::Stream);
        const double ref = model->score(pair);

        for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
            for (uint32_t threads : kThreadCounts) {
                for (bool dedup : {false, true}) {
                    for (WindowPolicy policy :
                         {WindowPolicy::Stream, WindowPolicy::Joint}) {
                        setSimdLevel(level);
                        ThreadPool::instance().setThreads(threads);
                        setWindowPolicy(policy);
                        InferenceOptions opts;
                        opts.dedupMatching = dedup;
                        model->setInferenceOptions(opts);
                        EXPECT_EQ(model->score(pair), ref)
                            << modelConfig(id).name
                            << " level=" << simdLevelName(level)
                            << " threads=" << threads
                            << " dedup=" << dedup << " policy="
                            << static_cast<int>(policy);
                    }
                }
            }
        }
    }
}

/** CEGMA_SIMD / setSimdLevel plumbing basics. */
TEST(SimdDispatch, LevelNamesAndOverride)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    setSimdLevel(SimdLevel::Scalar);
    EXPECT_EQ(simdLevel(), SimdLevel::Scalar);
    // Requesting AVX2 either takes effect or clamps to scalar with a
    // warning — never an invalid level.
    setSimdLevel(SimdLevel::Avx2);
    EXPECT_EQ(simdLevel(), cpuSupportsAvx2() ? SimdLevel::Avx2
                                             : SimdLevel::Scalar);
    setSimdLevel(cpuSupportsAvx2() ? SimdLevel::Avx2
                                   : SimdLevel::Scalar);
}

} // namespace
} // namespace cegma
