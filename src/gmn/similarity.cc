#include "gmn/similarity.hh"

#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gmn/window_sched.hh"
#include "obs/trace.hh"
#include "tensor/kernels.hh"

namespace cegma {

const char *
similarityName(SimilarityKind kind)
{
    switch (kind) {
      case SimilarityKind::DotProduct:
        return "dot-product";
      case SimilarityKind::Cosine:
        return "cosine";
      case SimilarityKind::Euclidean:
        return "euclidean";
    }
    return "?";
}

Matrix
similarityMatrix(const Matrix &x, const Matrix &y, SimilarityKind kind)
{
    CEGMA_TRACE_SCOPE_CAT("similarityMatrix", "kernel");
    cegma_assert(x.cols() == y.cols());
    // Large pairs take the L2-resident joint-window path (CGC in
    // software); bit-identical, so the policy is purely a locality
    // decision. See window_sched.hh for the CEGMA_WINDOW override.
    if (shouldWindow(x, y))
        return similarityMatrixWindowed(x, y, kind);
    Matrix s = matmulNT(x, y);

    switch (kind) {
      case SimilarityKind::DotProduct:
        break;
      case SimilarityKind::Cosine: {
        // Precompute 1/norm per row once instead of a divide per cell;
        // a zero-norm row gets inverse 0, so its cells come out 0
        // exactly as the old `denom > 0` guard produced.
        Matrix nx = rowL2Norms(x);
        Matrix ny = rowL2Norms(y);
        std::vector<float> inv_nx(s.rows()), inv_ny(s.cols());
        for (size_t i = 0; i < s.rows(); ++i)
            inv_nx[i] = nx.at(i, 0) > 0.0f ? 1.0f / nx.at(i, 0) : 0.0f;
        for (size_t j = 0; j < s.cols(); ++j)
            inv_ny[j] = ny.at(j, 0) > 0.0f ? 1.0f / ny.at(j, 0) : 0.0f;
        const TensorKernels &kern = tensorKernels();
        size_t grain = grainForRows(s.rows(), 2 * s.cols());
        parallelFor(0, s.rows(), grain, [&](size_t r0, size_t r1) {
            for (size_t i = r0; i < r1; ++i) {
                kern.cosineScaleRow(s.row(i), inv_nx[i], inv_ny.data(),
                                    s.cols());
            }
        });
        break;
      }
      case SimilarityKind::Euclidean: {
        Matrix sx = rowSquaredNorms(x);
        Matrix sy = rowSquaredNorms(y);
        const TensorKernels &kern = tensorKernels();
        size_t grain = grainForRows(s.rows(), 3 * s.cols());
        parallelFor(0, s.rows(), grain, [&](size_t r0, size_t r1) {
            for (size_t i = r0; i < r1; ++i) {
                // sy is (m x 1), so its buffer is the contiguous
                // per-column squared-norm array.
                kern.euclidFinishRow(s.row(i), sx.at(i, 0), sy.data(),
                                     s.cols());
            }
        });
        break;
      }
    }
    return s;
}

uint64_t
similarityFlops(uint64_t n, uint64_t m, uint64_t f, SimilarityKind kind)
{
    uint64_t base = 2 * n * m * f; // the X Y^T MACs
    switch (kind) {
      case SimilarityKind::DotProduct:
        return base;
      case SimilarityKind::Cosine:
        // Row norms (2f MACs per row) + one divide and multiply per cell.
        return base + 2 * f * (n + m) + 2 * n * m;
      case SimilarityKind::Euclidean:
        return base + 2 * f * (n + m) + 3 * n * m;
    }
    return base;
}

uint64_t
similarityFlopsDedup(uint64_t n, uint64_t m, uint64_t u_n, uint64_t u_m,
                     uint64_t f, SimilarityKind kind)
{
    cegma_assert(u_n <= n && u_m <= m);
    // The arithmetic is exactly the dense kernel on the unique block;
    // the n x m scatter moves bytes but performs no FLOPs.
    return similarityFlops(u_n, u_m, f, kind);
}

DedupMap
confirmDedup(const Matrix &features, const EmfResult &emf)
{
    CEGMA_TRACE_SCOPE_CAT("confirmDedup", "kernel");
    const size_t n = features.rows();
    cegma_assert(emf.uniqueOf.size() == n);
    const size_t row_bytes = features.cols() * sizeof(float);

    // Parallel memcmp pass: per-row verdicts are independent and the
    // writes disjoint, so this is bit-deterministic at any thread
    // count. The (rare) collision bookkeeping stays in the serial
    // assembly below.
    std::vector<uint8_t> confirmed(n, 1);
    size_t grain = grainForRows(n, features.cols());
    parallelFor(0, n, grain, [&](size_t v0, size_t v1) {
        for (size_t v = v0; v < v1; ++v) {
            uint32_t u = emf.uniqueOf[v];
            if (u != v) {
                confirmed[v] = std::memcmp(features.row(v),
                                           features.row(u),
                                           row_bytes) == 0;
            }
        }
    });

    DedupMap map;
    map.repOf.resize(n);
    map.uniqueRows.reserve(emf.recordSet.size());
    // Rows promoted because their tag collided, grouped by the
    // representative they failed to match (empty in the common case).
    std::unordered_map<uint32_t, std::vector<uint32_t>> promoted;
    for (uint32_t v = 0; v < n; ++v) {
        uint32_t u = emf.uniqueOf[v];
        cegma_assert(u <= v);
        if (u == v) {
            map.repOf[v] = map.numUnique();
            map.uniqueRows.push_back(v);
            continue;
        }
        if (confirmed[v]) {
            map.repOf[v] = map.repOf[u];
            continue;
        }
        // Tag collision: the row is *not* the bits its representative
        // carries. Reuse an earlier promoted row if one matches
        // bitwise, else promote this row to a unique of its own.
        auto it = promoted.find(u);
        uint32_t block_row = UINT32_MAX;
        if (it != promoted.end()) {
            for (uint32_t w : it->second) {
                if (std::memcmp(features.row(v), features.row(w),
                                row_bytes) == 0) {
                    block_row = map.repOf[w];
                    break;
                }
            }
        }
        if (block_row == UINT32_MAX) {
            block_row = map.numUnique();
            map.uniqueRows.push_back(v);
            promoted[u].push_back(v);
        }
        map.repOf[v] = block_row;
    }
    return map;
}

Matrix
gatherRows(const Matrix &m, const std::vector<uint32_t> &rows)
{
    Matrix out(rows.size(), m.cols());
    const size_t row_bytes = m.cols() * sizeof(float);
    for (size_t i = 0; i < rows.size(); ++i)
        std::memcpy(out.row(i), m.row(rows[i]), row_bytes);
    return out;
}

Matrix
gatherColumns(const Matrix &m, const std::vector<uint32_t> &cols)
{
    Matrix out(cols.size(), m.rows());
    for (size_t i = 0; i < m.rows(); ++i) {
        const float *src = m.row(i);
        for (size_t j = 0; j < cols.size(); ++j)
            out.at(j, i) = src[cols[j]];
    }
    return out;
}

Matrix
scatterRows(const Matrix &block, const DedupMap &map)
{
    Matrix out(map.repOf.size(), block.cols());
    const size_t row_bytes = block.cols() * sizeof(float);
    size_t grain = grainForRows(out.rows(), block.cols());
    parallelFor(0, out.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i)
            std::memcpy(out.row(i), block.row(map.repOf[i]), row_bytes);
    });
    return out;
}

Matrix
similarityMatrixDedup(const Matrix &x, const Matrix &y,
                      SimilarityKind kind, const DedupMap &dx,
                      const DedupMap &dy)
{
    CEGMA_TRACE_SCOPE_CAT("similarityMatrixDedup", "kernel");
    cegma_assert(dx.repOf.size() == x.rows());
    cegma_assert(dy.repOf.size() == y.rows());
    if (!dx.anyDuplicates() && !dy.anyDuplicates())
        return similarityMatrix(x, y, kind);

    Matrix ux = gatherRows(x, dx.uniqueRows);
    Matrix uy = gatherRows(y, dy.uniqueRows);
    Matrix block = similarityMatrix(ux, uy, kind);

    // Scatter the u_n x u_m block back to n x m: row expansion is a
    // copy, column expansion a per-row gather.
    Matrix s(x.rows(), y.rows());
    size_t grain = grainForRows(s.rows(), s.cols());
    parallelFor(0, s.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            const float *brow = block.row(dx.repOf[i]);
            float *srow = s.row(i);
            for (size_t j = 0; j < s.cols(); ++j)
                srow[j] = brow[dy.repOf[j]];
        }
    });
    return s;
}

Matrix
similarityMatrixDedup(const Matrix &x, const Matrix &y,
                      SimilarityKind kind, const EmfResult &ex,
                      const EmfResult &ey)
{
    return similarityMatrixDedup(x, y, kind, confirmDedup(x, ex),
                                 confirmDedup(y, ey));
}

Matrix
similarityMatrixDedup(const Matrix &x, const Matrix &y,
                      SimilarityKind kind)
{
    return similarityMatrixDedup(x, y, kind, emfFilter(x), emfFilter(y));
}

} // namespace cegma
