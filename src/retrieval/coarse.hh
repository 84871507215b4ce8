/**
 * @file
 * The per-graph pieces of the retrieval cascade's two cheap stages;
 * the index that stores them is the live corpus
 * (corpus/live_corpus.hh).
 *
 * Stage 1 keys on WL tag sets. `wlRefine` produces *cross-graph
 * canonical* 64-bit signatures: equal signatures mean isomorphic
 * depth-l neighborhoods even for nodes in different graphs
 * (graph/wl_refine.hh). A graph's level-l *tag set* — its distinct
 * depth-l signatures — is therefore a cheap structural sketch, and
 * tag-set overlap is a lower-bound style filter for clone search: a
 * query that perturbs k edges of a corpus graph disturbs only the
 * l-hop neighborhoods of the touched endpoints, so the clone keeps
 * almost all of the query's tags while unrelated graphs share few.
 * Tags depend only on graph structure and labels, never on a model.
 *
 * Stage 2 ranks the survivors over stored per-graph descriptors,
 * block by block. The memo pipeline already produces each graph's
 * layer-embedding chain once (gmn/memo.hh); pooling every layer's node
 * features to a mean vector and concatenating gives a compact
 * per-graph vector — (numLayers + 1) x nodeDim floats instead of the
 * full chain's numNodes x that — whose L2 distance tracks the exact
 * GMN score well enough to rank a shortlist (`L2CoarseScorer`: key =
 * ||c||^2 - 2 q.c, the constant ||q||^2 dropped).
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
 * row-major blocks (one per 512-slot corpus chunk), each block's
 * listed survivor rows go to one `CoarseScorer::keys` call, and
 * `lowestKeyed` selects on (key, slot). Keys are per-row functions, so
 * the selected set never depends on the block grouping or the thread
 * count.
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

/** The distinct level-`level` WL signatures of `g`, sorted. */
std::vector<uint64_t> wlTagSet(const Graph &g, unsigned level);

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

} // namespace cegma

#endif // CEGMA_RETRIEVAL_COARSE_HH
