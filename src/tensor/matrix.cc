#include "tensor/matrix.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "obs/trace.hh"
#include "tensor/kernels.hh"

namespace cegma {

namespace {

// Cache-blocking parameters, shared by the GEMM variants. A KC-row
// panel of B (KC * n floats in matmul) or a JB-row panel of B (JB *
// k floats in matmulNT) stays resident in L1/L2 while a chunk of A
// rows streams over it. Fixed constants keep the reduction order — and
// therefore the bit pattern of every output — independent of the
// machine and the thread count.
constexpr size_t kGemmKc = 256; ///< matmul: B panel rows per k-block
constexpr size_t kGemmNtJb = 64; ///< matmulNT: B rows per j-tile
constexpr size_t kTransposeTile = 32;
constexpr size_t kElemwiseGrain = size_t(1) << 16; ///< floats per chunk

} // namespace

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Matrix::Matrix(size_t rows, size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end())
{
    // Copies into the aligned buffer; this ctor is for tests and
    // fixtures, never a hot path.
    cegma_assert(data_.size() == rows * cols);
}

void
Matrix::fill(float v)
{
    std::fill(data_.begin(), data_.end(), v);
}

void
Matrix::fillXavier(Rng &rng)
{
    if (rows_ == 0 || cols_ == 0)
        return;
    float limit = std::sqrt(6.0f / static_cast<float>(rows_ + cols_));
    for (auto &v : data_)
        v = static_cast<float>((rng.nextDouble() * 2.0 - 1.0) * limit);
}

bool
Matrix::equals(const Matrix &other) const
{
    // An empty matrix's storage may be null, which memcmp must not see.
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           (data_.empty() ||
            std::memcmp(data_.data(), other.data_.data(),
                        data_.size() * sizeof(float)) == 0);
}

bool
Matrix::approxEquals(const Matrix &other, float tol) const
{
    if (rows_ != other.rows_ || cols_ != other.cols_)
        return false;
    for (size_t i = 0; i < data_.size(); ++i) {
        if (std::fabs(data_[i] - other.data_[i]) > tol)
            return false;
    }
    return true;
}

bool
Matrix::rowsEqual(size_t r_a, size_t r_b) const
{
    cegma_assert(r_a < rows_ && r_b < rows_);
    return std::memcmp(row(r_a), row(r_b), cols_ * sizeof(float)) == 0;
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    CEGMA_TRACE_SCOPE_CAT("matmul", "kernel.gemm");
    cegma_assert(a.cols() == b.rows());
    const size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    if (m == 0 || k == 0 || n == 0)
        return c;
    // Raw pointers by value: member access through the chunk lambda's
    // capture frame costs measurably in the hot loops.
    const float *ad = a.data();
    const float *bd = b.data();
    float *cd = c.data();
    const TensorKernels &kern = tensorKernels();
    // Narrow outputs (the MLP heads' 16/8/4/1 columns) would cost one
    // indirect quadAxpy call per 4 inputs of a row only a few lanes
    // wide; the panel kernel instead vectorizes across 8 rows with
    // every cell's operation sequence unchanged (kernels.hh).
    const bool panels =
        n <= kGemmPanelMaxCols && kern.gemmPanels != nullptr;
    size_t grain = grainForRows(m, 2 * k * n);
    parallelFor(0, m, grain, [=](size_t r0, size_t r1) {
        if (panels) {
            const size_t count = (r1 - r0) / kGemmPanelRows;
            kern.gemmPanels(ad + r0 * k, k, bd, n, cd + r0 * n, count);
            r0 += count * kGemmPanelRows;
        }
        // ikj order inside each k-block: streams B rows (cache
        // friendly for row-major data) while the KC-row B panel stays
        // hot across the chunk's A rows. Four B rows per pass over the
        // C row quarters the C-row traffic; the per-pass update runs
        // in the dispatched quadAxpy kernel (8 lanes under AVX2).
        for (size_t k0 = 0; k0 < k; k0 += kGemmKc) {
            size_t k1 = std::min(k, k0 + kGemmKc);
            for (size_t i = r0; i < r1; ++i) {
                float *crow = cd + i * n;
                const float *arow = ad + i * k;
                size_t kk = k0;
                for (; kk + 4 <= k1; kk += 4) {
                    const float *a4 = arow + kk;
                    if (a4[0] == 0.0f && a4[1] == 0.0f &&
                        a4[2] == 0.0f && a4[3] == 0.0f) {
                        continue; // e.g. post-ReLU sparsity
                    }
                    const float *b0 = bd + kk * n;
                    kern.quadAxpy(crow, a4, b0, b0 + n, b0 + 2 * n,
                                  b0 + 3 * n, n);
                }
                for (; kk < k1; ++kk) {
                    float aik = arow[kk];
                    if (aik == 0.0f)
                        continue;
                    kern.axpy(crow, aik, bd + kk * n, n);
                }
            }
        }
    });
    return c;
}

Matrix
matmulNT(const Matrix &a, const Matrix &b)
{
    CEGMA_TRACE_SCOPE_CAT("matmulNT", "kernel.gemm");
    cegma_assert(a.cols() == b.cols());
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    Matrix c(m, n);
    if (m == 0 || n == 0)
        return c;
    const float *ad = a.data();
    const float *bd = b.data();
    float *cd = c.data();
    const TensorKernels &kern = tensorKernels();
    size_t grain = grainForRows(m, 2 * k * n);
    parallelFor(0, m, grain, [=](size_t r0, size_t r1) {
        // j-tiling keeps a JB-row panel of B in cache across the
        // chunk's A rows.
        for (size_t j0 = 0; j0 < n; j0 += kGemmNtJb) {
            size_t j1 = std::min(n, j0 + kGemmNtJb);
            for (size_t i = r0; i < r1; ++i) {
                const float *arow = ad + i * k;
                float *crow = cd + i * n;
                kern.ntRow(arow, bd, k, j0, j1, crow);
            }
        }
    });
    return c;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    cegma_assert(a.rows() == b.rows() && a.cols() == b.cols());
    Matrix c(a.rows(), a.cols());
    parallelFor(0, a.size(), kElemwiseGrain, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            c.data()[i] = a.data()[i] + b.data()[i];
    });
    return c;
}

void
addBiasInPlace(Matrix &a, const Matrix &bias)
{
    cegma_assert(bias.rows() == 1 && bias.cols() == a.cols());
    const float *brow = bias.row(0);
    size_t grain = grainForRows(a.rows(), a.cols());
    parallelFor(0, a.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            float *row = a.row(i);
            for (size_t j = 0; j < a.cols(); ++j)
                row[j] += brow[j];
        }
    });
}

Matrix
hconcat(const std::vector<const Matrix *> &parts)
{
    cegma_assert(!parts.empty());
    size_t rows = parts[0]->rows();
    size_t cols = 0;
    for (const Matrix *m : parts) {
        cegma_assert(m->rows() == rows);
        cols += m->cols();
    }
    Matrix out(rows, cols);
    size_t grain = grainForRows(rows, cols);
    parallelFor(0, rows, grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            float *dst = out.row(i);
            for (const Matrix *m : parts) {
                std::memcpy(dst, m->row(i), m->cols() * sizeof(float));
                dst += m->cols();
            }
        }
    });
    return out;
}

void
reluInPlace(Matrix &a)
{
    float *data = a.data();
    parallelFor(0, a.size(), kElemwiseGrain, [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            data[i] = data[i] > 0.0f ? data[i] : 0.0f;
    });
}

void
sigmoidInPlace(Matrix &a)
{
    float *data = a.data();
    parallelFor(0, a.size(), kElemwiseGrain / 8,
                [&](size_t i0, size_t i1) {
                    for (size_t i = i0; i < i1; ++i)
                        data[i] = 1.0f / (1.0f + std::exp(-data[i]));
                });
}

void
tanhInPlace(Matrix &a)
{
    float *data = a.data();
    parallelFor(0, a.size(), kElemwiseGrain / 8,
                [&](size_t i0, size_t i1) {
                    for (size_t i = i0; i < i1; ++i)
                        data[i] = std::tanh(data[i]);
                });
}

void
softmaxRowsInPlace(Matrix &a)
{
    if (a.cols() == 0)
        return;
    size_t grain = grainForRows(a.rows(), 5 * a.cols());
    parallelFor(0, a.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            float *row = a.row(i);
            float mx = row[0];
            for (size_t j = 1; j < a.cols(); ++j)
                mx = std::max(mx, row[j]);
            float sum = 0.0f;
            for (size_t j = 0; j < a.cols(); ++j) {
                row[j] = std::exp(row[j] - mx);
                sum += row[j];
            }
            for (size_t j = 0; j < a.cols(); ++j)
                row[j] /= sum;
        }
    });
}

Matrix
rowL2Norms(const Matrix &a)
{
    Matrix out(a.rows(), 1);
    const TensorKernels &kern = tensorKernels();
    size_t grain = grainForRows(a.rows(), 2 * a.cols());
    parallelFor(0, a.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            out.at(i, 0) =
                std::sqrt(kern.dot(a.row(i), a.row(i), a.cols()));
        }
    });
    return out;
}

Matrix
rowSquaredNorms(const Matrix &a)
{
    Matrix out(a.rows(), 1);
    const TensorKernels &kern = tensorKernels();
    size_t grain = grainForRows(a.rows(), 2 * a.cols());
    parallelFor(0, a.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i)
            out.at(i, 0) = kern.dot(a.row(i), a.row(i), a.cols());
    });
    return out;
}

Matrix
columnSums(const Matrix &a)
{
    // Serial on purpose: a parallel row reduction would either need
    // per-thread partials (order depends on chunking) or atomics; the
    // op is O(rows * cols) light and never hot.
    Matrix out(1, a.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        const float *row = a.row(i);
        for (size_t j = 0; j < a.cols(); ++j)
            out.at(0, j) += row[j];
    }
    return out;
}

Matrix
columnMeans(const Matrix &a)
{
    Matrix out = columnSums(a);
    if (a.rows() == 0)
        return out;
    for (size_t j = 0; j < a.cols(); ++j)
        out.at(0, j) /= static_cast<float>(a.rows());
    return out;
}

Matrix
transpose(const Matrix &a)
{
    Matrix out(a.cols(), a.rows());
    const size_t tb = kTransposeTile;
    size_t grain = std::max<size_t>(1, grainForRows(a.rows(), a.cols()));
    // Round the row grain up to a whole number of tiles so chunk
    // boundaries and tile boundaries coincide.
    grain = ((grain + tb - 1) / tb) * tb;
    parallelFor(0, a.rows(), grain, [&](size_t r0, size_t r1) {
        for (size_t i0 = r0; i0 < r1; i0 += tb) {
            size_t i1 = std::min(r1, i0 + tb);
            for (size_t j0 = 0; j0 < a.cols(); j0 += tb) {
                size_t j1 = std::min(a.cols(), j0 + tb);
                for (size_t i = i0; i < i1; ++i)
                    for (size_t j = j0; j < j1; ++j)
                        out.at(j, i) = a.at(i, j);
            }
        }
    });
    return out;
}

float
dot(const float *a, const float *b, size_t n)
{
    return tensorKernels().dot(a, b, n);
}

} // namespace cegma
