/**
 * @file
 * Unit tests for the dense matrix substrate and the size-bucketed
 * workspace pool backing its storage.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "tensor/matrix.hh"
#include "tensor/workspace.hh"

namespace cegma {
namespace {

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    m.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(Matrix, FromData)
{
    Matrix m(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
}

TEST(Matrix, RowsEqual)
{
    Matrix m(3, 2, {1, 2, 1, 2, 3, 4});
    EXPECT_TRUE(m.rowsEqual(0, 1));
    EXPECT_FALSE(m.rowsEqual(0, 2));
}

TEST(Matrix, Matmul)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
    Matrix c = matmul(a, b);
    ASSERT_EQ(c.rows(), 2u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matrix, MatmulNTMatchesExplicitTranspose)
{
    Rng rng(4);
    Matrix a(5, 7);
    Matrix b(6, 7);
    a.fillXavier(rng);
    b.fillXavier(rng);
    Matrix direct = matmulNT(a, b);
    Matrix via_t = matmul(a, transpose(b));
    EXPECT_TRUE(direct.approxEquals(via_t, 1e-5f));
}

TEST(Matrix, AddAndBias)
{
    Matrix a(2, 2, {1, 2, 3, 4});
    Matrix b(2, 2, {10, 20, 30, 40});
    Matrix c = add(a, b);
    EXPECT_FLOAT_EQ(c.at(1, 1), 44.0f);

    Matrix bias(1, 2, {100, 200});
    addBiasInPlace(c, bias);
    EXPECT_FLOAT_EQ(c.at(0, 0), 111.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 244.0f);
}

TEST(Matrix, HConcat)
{
    Matrix a(2, 1, {1, 2});
    Matrix b(2, 2, {3, 4, 5, 6});
    Matrix c = hconcat({&a, &b});
    ASSERT_EQ(c.cols(), 3u);
    EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(c.at(0, 2), 4.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 5.0f);
}

TEST(Matrix, Activations)
{
    Matrix m(1, 4, {-1.0f, 0.0f, 0.5f, 2.0f});
    Matrix r = m;
    reluInPlace(r);
    EXPECT_FLOAT_EQ(r.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(r.at(0, 3), 2.0f);

    Matrix s = m;
    sigmoidInPlace(s);
    EXPECT_NEAR(s.at(0, 1), 0.5f, 1e-6f);
    EXPECT_GT(s.at(0, 3), 0.85f);

    Matrix t = m;
    tanhInPlace(t);
    EXPECT_NEAR(t.at(0, 1), 0.0f, 1e-6f);
    EXPECT_NEAR(t.at(0, 0), -std::tanh(1.0f), 1e-6f);
}

TEST(Matrix, SoftmaxRowsSumToOne)
{
    Matrix m(2, 3, {1, 2, 3, -5, 0, 5});
    softmaxRowsInPlace(m);
    for (size_t r = 0; r < 2; ++r) {
        float sum = 0.0f;
        for (size_t c = 0; c < 3; ++c) {
            EXPECT_GT(m.at(r, c), 0.0f);
            sum += m.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
    // Softmax is monotone in its input.
    EXPECT_LT(m.at(0, 0), m.at(0, 2));
}

TEST(Matrix, Norms)
{
    Matrix m(2, 2, {3, 4, 0, 0});
    Matrix l2 = rowL2Norms(m);
    EXPECT_FLOAT_EQ(l2.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(l2.at(1, 0), 0.0f);
    Matrix sq = rowSquaredNorms(m);
    EXPECT_FLOAT_EQ(sq.at(0, 0), 25.0f);
}

TEST(Matrix, ColumnReductions)
{
    Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix sums = columnSums(m);
    EXPECT_FLOAT_EQ(sums.at(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(sums.at(0, 2), 9.0f);
    Matrix means = columnMeans(m);
    EXPECT_FLOAT_EQ(means.at(0, 1), 3.5f);
}

TEST(Matrix, TransposeRoundTrip)
{
    Rng rng(8);
    Matrix m(4, 6);
    m.fillXavier(rng);
    EXPECT_TRUE(transpose(transpose(m)).equals(m));
}

TEST(Matrix, XavierRange)
{
    Rng rng(15);
    Matrix m(64, 64);
    m.fillXavier(rng);
    float limit = std::sqrt(6.0f / 128.0f);
    for (size_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(std::fabs(m.data()[i]), limit);
    }
    // Should not be all zeros.
    EXPECT_FALSE(m.equals(Matrix(64, 64)));
}

TEST(Matrix, MatmulAssociativityProperty)
{
    Rng rng(21);
    Matrix a(3, 4), b(4, 5), c(5, 2);
    a.fillXavier(rng);
    b.fillXavier(rng);
    c.fillXavier(rng);
    Matrix left = matmul(matmul(a, b), c);
    Matrix right = matmul(a, matmul(b, c));
    EXPECT_TRUE(left.approxEquals(right, 1e-4f));
}

TEST(Matrix, MatmulRowDependsOnItsOwnInputRowOnly)
{
    // The MGNN layer batches distinct edge-message and node-update
    // rows into one GEMM chain and relies on every output row being
    // bitwise what a 1-row matmul of its input row gives. A multi-row
    // micro-kernel that breaks this must fail here.
    struct Shape
    {
        size_t m, k, n;
    };
    // The MGNN MLPs' first layers (2*64 and 3*64 -> 64), a k past one
    // 256-row k-block, and ragged k/n tails.
    const Shape shapes[] = {{37, 128, 64}, {37, 192, 64}, {21, 300, 33},
                            {9, 7, 5}};
    const SimdLevel before = simdLevel();
    Rng rng(71);
    for (const Shape &sh : shapes) {
        Matrix a(sh.m, sh.k), b(sh.k, sh.n);
        a.fillXavier(rng);
        b.fillXavier(rng);
        // Post-ReLU-style zeros: whole quads and single entries, so
        // both zero-skip branches run on some rows and not others.
        for (size_t i = 0; i < sh.m; i += 3) {
            for (size_t kk = 0; kk + 4 <= sh.k; kk += 8)
                std::memset(a.row(i) + kk, 0, 4 * sizeof(float));
            a.at(i, sh.k - 1) = 0.0f;
        }
        for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
            if (level == SimdLevel::Avx2 && !cpuSupportsAvx2())
                continue;
            setSimdLevel(level);
            for (uint32_t threads : {1u, 2u, 8u}) {
                ThreadPool::instance().setThreads(threads);
                Matrix stacked = matmul(a, b);
                for (size_t i = 0; i < sh.m; ++i) {
                    Matrix ai(1, sh.k);
                    std::memcpy(ai.row(0), a.row(i),
                                sh.k * sizeof(float));
                    Matrix ci = matmul(ai, b);
                    EXPECT_EQ(std::memcmp(ci.row(0), stacked.row(i),
                                          sh.n * sizeof(float)),
                              0)
                        << sh.m << "x" << sh.k << "x" << sh.n
                        << " row " << i << " " << simdLevelName(level)
                        << " threads " << threads;
                }
            }
        }
    }
    ThreadPool::instance().setThreads(1);
    setSimdLevel(before);
}

// ---- WorkspacePool --------------------------------------------------

TEST(WorkspacePool, BucketRoundingIsExactPowersOfTwo)
{
    EXPECT_EQ(WorkspacePool::bucketIndex(1), 0);
    EXPECT_EQ(WorkspacePool::bucketIndex(64), 0);
    EXPECT_EQ(WorkspacePool::bucketIndex(65), 1);
    EXPECT_EQ(WorkspacePool::bucketIndex(128), 1);
    EXPECT_EQ(WorkspacePool::bucketIndex(129), 2);
    EXPECT_EQ(WorkspacePool::bucketBytes(0), 64u);
    EXPECT_EQ(WorkspacePool::bucketBytes(1), 128u);
    // Every bucket's block size maps back to that bucket, and one byte
    // past the previous bucket already rounds up into it — the two
    // edges that keep release() recovering the exact acquire() bucket.
    for (int idx = 1; idx < WorkspacePool::kNumBuckets; ++idx) {
        size_t bytes = WorkspacePool::bucketBytes(idx);
        EXPECT_EQ(WorkspacePool::bucketIndex(bytes), idx);
        EXPECT_EQ(WorkspacePool::bucketIndex(bytes / 2 + 1), idx);
    }
    EXPECT_EQ(WorkspacePool::bucketBytes(WorkspacePool::kNumBuckets - 1),
              WorkspacePool::kMaxBucketBytes);
}

TEST(WorkspacePool, RecyclesSameThreadBlocksWithHitMissAccounting)
{
    WorkspacePool &pool = WorkspacePool::instance();
    if (!pool.enabled())
        GTEST_SKIP() << "CEGMA_WORKSPACE=off";
    // Empty this thread's free lists and the shared pool so the first
    // acquire below is deterministically a miss. (Other threads'
    // caches are untouched — they cannot serve this thread anyway.)
    size_t budget = pool.sharedBudgetBytes();
    pool.setSharedBudgetBytes(0);
    pool.drainThreadCache();
    pool.trimShared();

    WorkspaceStats t0 = pool.stats();
    void *p = pool.acquire(1000); // -> the 1024-byte bucket
    ASSERT_NE(p, nullptr);
    WorkspaceStats t1 = pool.stats();
    EXPECT_EQ(t1.misses, t0.misses + 1);
    EXPECT_EQ(t1.hits, t0.hits);

    // Release parks in this thread's free list; a different request
    // size mapping to the same bucket gets the identical block back.
    pool.release(p, 1000);
    void *q = pool.acquire(900);
    EXPECT_EQ(q, p);
    WorkspaceStats t2 = pool.stats();
    EXPECT_EQ(t2.hits, t1.hits + 1);
    EXPECT_EQ(t2.misses, t1.misses);

    pool.release(q, 900);
    pool.drainThreadCache(); // budget 0: freed, not parked
    pool.setSharedBudgetBytes(budget);
}

TEST(WorkspacePool, EveryBlockIs64ByteAligned)
{
    WorkspacePool &pool = WorkspacePool::instance();
    for (size_t bytes : {size_t{1}, size_t{64}, size_t{100},
                         size_t{4096}, size_t{1} << 20,
                         WorkspacePool::kMaxBucketBytes + 1}) {
        void *p = pool.acquire(bytes);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) %
                      WorkspacePool::kAlignment,
                  0u)
            << "bytes=" << bytes;
        pool.release(p, bytes);
    }
}

TEST(WorkspacePool, OversizedRequestsBypassTheBuckets)
{
    WorkspacePool &pool = WorkspacePool::instance();
    if (!pool.enabled())
        GTEST_SKIP() << "CEGMA_WORKSPACE=off";
    const size_t big = WorkspacePool::kMaxBucketBytes + 1;
    WorkspaceStats before = pool.stats();
    void *p = pool.acquire(big);
    ASSERT_NE(p, nullptr);
    pool.release(p, big);
    // Released straight to the OS, never cached: a second round trips
    // the oversized counter again instead of hitting a free list.
    void *q = pool.acquire(big);
    ASSERT_NE(q, nullptr);
    pool.release(q, big);
    WorkspaceStats after = pool.stats();
    EXPECT_EQ(after.oversized, before.oversized + 2);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.cachedBytes, before.cachedBytes);
}

TEST(WorkspacePool, MatrixStorageComesFromThePool)
{
    WorkspacePool &pool = WorkspacePool::instance();
    if (!pool.enabled())
        GTEST_SKIP() << "CEGMA_WORKSPACE=off";
    // Warm the bucket with one Matrix, then rebuild the same shape:
    // the second construction must be a pool hit (the hot-path pattern
    // — per-pair temporaries of a fixed shape, batch after batch).
    {
        Matrix warm(32, 32);
        warm.at(0, 0) = 1.0f;
    }
    WorkspaceStats before = pool.stats();
    Matrix again(32, 32);
    EXPECT_FLOAT_EQ(again.at(0, 0), 0.0f); // recycled bytes are zeroed
    WorkspaceStats after = pool.stats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
}

} // namespace
} // namespace cegma
