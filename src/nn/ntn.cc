#include "nn/ntn.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace cegma {

Ntn::Ntn(size_t in_dim, size_t slices, Rng &rng)
    : inDim_(in_dim), slices_(slices), v_(slices, 2 * in_dim),
      bias_(1, slices)
{
    tensors_.reserve(slices);
    for (size_t k = 0; k < slices; ++k) {
        tensors_.emplace_back(in_dim, in_dim);
        tensors_.back().fillXavier(rng);
    }
    v_.fillXavier(rng);
    bias_.fillXavier(rng);
}

Ntn::QueryProduct
Ntn::queryProduct(const Matrix &h2) const
{
    cegma_assert(h2.rows() == 1 && h2.cols() == inDim_);
    QueryProduct p{Matrix(slices_, inDim_), Matrix(1, slices_)};
    for (size_t k = 0; k < slices_; ++k) {
        const Matrix &w = tensors_[k];
        float *g = p.g.row(k);
        for (size_t i = 0; i < inDim_; ++i)
            g[i] = dot(w.row(i), h2.row(0), inDim_);
        p.lin.at(0, k) = dot(v_.row(k) + inDim_, h2.row(0), inDim_);
    }
    return p;
}

Matrix
Ntn::forwardPair(const Matrix &h1, const QueryProduct &p) const
{
    cegma_assert(h1.rows() == 1 && h1.cols() == inDim_);
    cegma_assert(p.g.rows() == slices_ && p.g.cols() == inDim_);

    Matrix out(1, slices_);
    for (size_t k = 0; k < slices_; ++k) {
        // h1 W_k h2^T
        const float *g = p.g.row(k);
        float bilinear = 0.0f;
        for (size_t i = 0; i < inDim_; ++i) {
            float hi = h1.at(0, i);
            if (hi == 0.0f)
                continue;
            bilinear += hi * g[i];
        }
        // v_k [h1; h2]
        float lin = dot(v_.row(k), h1.row(0), inDim_) + p.lin.at(0, k);
        float s = bilinear + lin + bias_.at(0, k);
        out.at(0, k) = s > 0.0f ? s : 0.0f;
    }
    return out;
}

Matrix
Ntn::forward(const Matrix &h1, const Matrix &h2) const
{
    return forwardPair(h1, queryProduct(h2));
}

Matrix
Ntn::queryFactor(const Matrix &h2) const
{
    QueryProduct p = queryProduct(h2);
    Matrix factor(slices_, inDim_ + 1);
    for (size_t k = 0; k < slices_; ++k) {
        const float *g = p.g.row(k);
        float *f = factor.row(k);
        for (size_t i = 0; i < inDim_; ++i)
            f[i] = g[i] + v_.at(k, i);
        f[inDim_] = p.lin.at(0, k) + bias_.at(0, k);
    }
    return factor;
}

uint64_t
Ntn::flops() const
{
    return slices_ * (2ull * inDim_ * inDim_ + 4ull * inDim_);
}

} // namespace cegma
