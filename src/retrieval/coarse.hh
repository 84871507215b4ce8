/**
 * @file
 * Stage 2 of the retrieval cascade: a coarse shortlist over stored
 * per-graph descriptors, ranked block by block.
 *
 * The memo pipeline already produces each graph's layer-embedding
 * chain once (gmn/memo.hh); pooling every layer's node features to a
 * mean vector and concatenating gives a compact per-graph vector —
 * (numLayers + 1) x nodeDim floats instead of the full chain's
 * numNodes x that — whose L2 distance tracks the exact GMN score well
 * enough to rank a shortlist (`L2CoarseScorer`: key = ||c||^2 - 2 q.c,
 * the constant ||q||^2 dropped).
 *
 * When the model decomposes its exact head per graph
 * (`GmnModel::coarseDim() > 0`, e.g.\ SimGNN's NTN over projected
 * readouts), the index instead stores the model's own coarse
 * descriptors and ranks with the model's query-conditioned
 * `CoarseScorer` — the model's head resolves score differences at
 * noise level that no generic embedding distance can, which is what
 * the recall floor of the CI gate requires.
 *
 * GMN-Li has no partner-independent chain (cross feedback), so
 * `GmnModel::graphEmbedding` returns null there and the stage falls
 * back to a model-free WL feature sketch: every canonical signature
 * hashes to a bucket and a sign, node counts accumulate, and clones —
 * which share almost all depth-l neighborhoods — land close in sketch
 * space. The sketch is content-keyed, so it never needs the model.
 *
 * Both key kinds run through one scan: descriptors sit in contiguous
 * row-major blocks (here one corpus-wide matrix, in the live corpus
 * one block per 512-slot chunk), each block's listed survivor rows go
 * to one `CoarseScorer::keys` call, and `lowestKeyed` selects on
 * (key, id). Keys are per-row functions, so the selected set never
 * depends on the block grouping or the thread count.
 */

#ifndef CEGMA_RETRIEVAL_COARSE_HH
#define CEGMA_RETRIEVAL_COARSE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gmn/model.hh"
#include "graph/graph.hh"
#include "tensor/matrix.hh"

namespace cegma {

/**
 * Model-free WL feature sketch of `g`: signatures at every level up to
 * `level` hash into `dim` signed buckets (one count per node per
 * level). Deterministic; equal for isomorphic graphs.
 */
std::vector<float> wlSketch(const Graph &g, unsigned level, unsigned dim);

/**
 * Coarse vector of `g` under `model`: the pooled embedding chain when
 * the model has one, else the WL sketch at `sketch_level`/`sketch_dim`.
 * Chain pooling goes through the model's memo cache when wired, so
 * corpus-index builds warm the same entries exact scoring reuses.
 */
std::vector<float> coarseVector(const Graph &g, const GmnModel &model,
                                unsigned sketch_level,
                                unsigned sketch_dim);

/**
 * The generic coarse scorer: squared L2 distance to the query's coarse
 * vector with the query's constant norm dropped, key = norms[r] -
 * 2 q.row(r). Needs a block with norms.
 */
class L2CoarseScorer final : public CoarseScorer
{
  public:
    explicit L2CoarseScorer(std::vector<float> query)
        : query_(std::move(query))
    {
    }

    void keys(const CoarseBlock &block, const uint32_t *rows, size_t n,
              float *keys) const override;

  private:
    std::vector<float> query_;
};

/**
 * The scorer that ranks `query`'s shortlist: the model's own
 * `coarseScorer` when `model_aware`, else an `L2CoarseScorer` over
 * `coarseVector(query, model, sketch_level, sketch_dim)`.
 */
std::unique_ptr<CoarseScorer>
makeCoarseScorer(const Graph &query, const GmnModel &model,
                 bool model_aware, unsigned sketch_level,
                 unsigned sketch_dim);

/**
 * The `budget` entries of `ids` with the lowest (keys[i], ids[i]),
 * ascending by id. (key, id) is a strict total order, so the selected
 * set is a deterministic function of the keys. Requires
 * `budget < ids.size()` and one key per id.
 */
std::vector<uint32_t> lowestKeyed(const std::vector<float> &keys,
                                  const std::vector<uint32_t> &ids,
                                  size_t budget);

/**
 * The corpus-side store of coarse vectors plus the shortlist kernel.
 * Built once at corpus load; immutable and thread-safe afterwards.
 */
class CoarseIndex
{
  public:
    /** Compute and store one vector per corpus graph (parallel). */
    void build(const std::vector<Graph> &corpus, const GmnModel &model,
               unsigned sketch_level, unsigned sketch_dim);

    /**
     * The `shortlist_size` survivors with the lowest `scorer` keys over
     * their stored rows, ascending by corpus id; ties break toward the
     * lower id, so the selected set is a deterministic function of the
     * vectors alone (thread-count independent). `shortlist_size` = 0
     * means unlimited: all survivors pass through. Rows are keyed in
     * runs of 512 survivors, one scorer call each.
     */
    std::vector<uint32_t>
    shortlist(const CoarseScorer &scorer,
              const std::vector<uint32_t> &survivors,
              size_t shortlist_size) const;

    /**
     * True when the rows are model coarse descriptors (the model
     * provides `coarseDim() > 0`) rather than generic pooled-chain /
     * sketch vectors; rank with the model's scorer then.
     */
    bool modelAware() const { return modelAware_; }

    size_t corpusSize() const { return vectors_.rows(); }
    size_t dim() const { return vectors_.cols(); }
    size_t bytes() const
    {
        return (vectors_.size() + norms_.size()) * sizeof(float);
    }

  private:
    Matrix vectors_; ///< corpusSize x dim, row g = coarse vector of g
    Matrix norms_;   ///< corpusSize x 1, squared L2 norm of each row
                     ///< (`rowSquaredNorms`); empty when model-aware
    bool modelAware_ = false;
};

} // namespace cegma

#endif // CEGMA_RETRIEVAL_COARSE_HH
