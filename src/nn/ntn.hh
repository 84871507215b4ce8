/**
 * @file
 * The Neural Tensor Network used by SimGNN's graph-level interaction
 * (Table I: NTN[128,16]).
 */

#ifndef CEGMA_NN_NTN_HH
#define CEGMA_NN_NTN_HH

#include <cstdint>
#include <vector>

#include "tensor/matrix.hh"

namespace cegma {

class Rng;

/**
 * NTN over two graph embeddings h1, h2 (each 1 x in_dim):
 *   score_k = relu(h1 W_k h2^T + v_k [h1; h2]^T + b_k),  k in [0, slices)
 *
 * Everything that involves h2 alone — the products W_k h2^T and the
 * offsets v_k[in:] . h2 — is the `QueryProduct`, so scoring many h1
 * against one h2 pays for it once; `forward` is `forwardPair` over a
 * freshly built product, bit for bit.
 */
class Ntn
{
  public:
    Ntn(size_t in_dim, size_t slices, Rng &rng);

    /** The h2-only terms of every slice. */
    struct QueryProduct
    {
        Matrix g;   ///< slices x in: g[k][i] = dot(W_k row i, h2)
        Matrix lin; ///< 1 x slices: lin[k] = dot(v_k[in:], h2)
    };

    /** Build the h2-only terms (slices * (in + 1) dots). */
    QueryProduct queryProduct(const Matrix &h2) const;

    /**
     * (1 x slices) interaction scores of h1 against the h2 the
     * product was built from: bilinear_k = sum_i h1[i] * g[k][i] in
     * index order, skipping h1[i] == 0, then relu(bilinear_k +
     * (dot(v_k[:in], h1) + lin[k]) + b_k).
     */
    Matrix forwardPair(const Matrix &h1, const QueryProduct &p) const;

    /** @return (1 x slices) interaction scores. */
    Matrix forward(const Matrix &h1, const Matrix &h2) const;

    /**
     * Precompute the query-conditioned affine form: with h2 fixed,
     * slice k collapses to relu(h1 . f_k + c_k). Row k of the returned
     * (slices x in_dim + 1) matrix holds f_k = g_k + v_k[:in] in the
     * first in_dim entries and c_k = lin[k] + b_k last, over the same
     * `queryProduct`, so scoring a candidate h1 against a fixed h2
     * costs one dot per slice instead of the full bilinear form. The
     * dot h1 . f_k sums in another order than `forwardPair`, so it
     * matches `forward` only up to float reassociation: a ranking
     * surrogate, not a bit-exact replay.
     */
    Matrix queryFactor(const Matrix &h2) const;

    size_t inDim() const { return inDim_; }
    size_t slices() const { return slices_; }

    /** FLOPs per (h1, h2) evaluation. */
    uint64_t flops() const;

  private:
    size_t inDim_;
    size_t slices_;
    std::vector<Matrix> tensors_; ///< slices x (in x in)
    Matrix v_;                    ///< (slices x 2*in)
    Matrix bias_;                 ///< (1 x slices)
};

} // namespace cegma

#endif // CEGMA_NN_NTN_HH
