/**
 * @file
 * SimGNN's model-aware coarse scorer (the model itself is private to
 * simgnn.cc; `makeSimGnn` builds it). Public so tests can replay the
 * scorer's per-candidate reference form against its block path.
 */

#ifndef CEGMA_GMN_SIMGNN_HH
#define CEGMA_GMN_SIMGNN_HH

#include <cstddef>
#include <cstdint>

#include "gmn/model.hh"
#include "nn/linear.hh"
#include "tensor/matrix.hh"

namespace cegma {

/**
 * The shortlist ranking surrogate: replay the exact head on the
 * query-factored NTN (one dot per slice against the stored hx), with
 * the pairwise-similarity histogram — the cross-graph term the cascade
 * exists to avoid computing — estimated as the mean of the query's and
 * the candidate's self-similarity histograms. Both halves matter: a
 * per-candidate estimate tracks the actual histogram features far
 * closer than any fixed constant, and an operating point near where
 * the exact scores live keeps the nonlinear head's ranking faithful.
 *
 * Descriptor layout (`coarseDim()` = kEmbedDim + kHistBins floats):
 * hx = project(readout(last layer)), then the self-histogram. The key
 * of a row is the negated head output.
 */
class SimGnnCoarseScorer final : public CoarseScorer
{
  public:
    static constexpr size_t kEmbedDim = 128;
    static constexpr size_t kHistBins = 16;
    static constexpr size_t kSlices = 16;

    /**
     * @param factor `Ntn::queryFactor(hy)`: kSlices x (kEmbedDim + 1)
     * @param hist   the query's self-histogram (1 x kHistBins)
     * @param head   the model's head MLP (the model outlives us)
     */
    SimGnnCoarseScorer(Matrix factor, Matrix hist, const Mlp &head);

    /**
     * Per row, one `ntRow` sweep of hx against the factor's slice
     * vectors (each cell is `dot`, as in the per-candidate form), the
     * slice offsets and ReLU, and the histogram mean; then one head
     * `Mlp::forward` over all n rows. Bit-identical per row to the
     * per-candidate form at any n (DESIGN.md §7b).
     */
    void keys(const CoarseBlock &block, const uint32_t *rows, size_t n,
              float *keys) const override;

    /// @name Query-side terms (the per-candidate test oracle reads them)
    /// @{
    const Matrix &factor() const { return factor_; }
    const Matrix &hist() const { return hist_; }
    const Mlp &head() const { return head_; }
    /// @}

  private:
    Matrix factor_; ///< kSlices x (kEmbedDim + 1): slice vector, offset
    Matrix slices_; ///< factor_'s first kEmbedDim columns, packed
    Matrix hist_;   ///< 1 x kHistBins
    const Mlp &head_;
};

} // namespace cegma

#endif // CEGMA_GMN_SIMGNN_HH
