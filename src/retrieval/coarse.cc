#include "retrieval/coarse.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "graph/wl_refine.hh"
#include "obs/trace.hh"

namespace cegma {

std::vector<float>
wlSketch(const Graph &g, unsigned level, unsigned dim)
{
    std::vector<float> sketch(dim, 0.0f);
    if (g.numNodes() == 0)
        return sketch;
    WlColoring wl = wlRefine(g, level);
    for (const auto &sigs : wl.signatures) {
        for (uint64_t sig : sigs) {
            // Bucket from the low bits, sign from a high bit — both
            // sides of the signature's avalanche, so bucket and sign
            // are independent enough for a signed count sketch.
            auto bucket = static_cast<size_t>(sig % dim);
            float sign = (sig >> 63) != 0 ? -1.0f : 1.0f;
            sketch[bucket] += sign;
        }
    }
    // Node-count normalization keeps clones of differently sized bases
    // comparable on one distance scale.
    auto inv = 1.0f / static_cast<float>(g.numNodes());
    for (float &v : sketch)
        v *= inv;
    return sketch;
}

std::vector<float>
coarseVector(const Graph &g, const GmnModel &model, unsigned sketch_level,
             unsigned sketch_dim)
{
    std::shared_ptr<const GraphEmbedding> chain = model.graphEmbedding(g);
    if (chain == nullptr)
        return wlSketch(g, sketch_level, sketch_dim);

    std::vector<float> out;
    for (const Matrix &layer : chain->layers) {
        Matrix pooled = columnMeans(layer);
        out.insert(out.end(), pooled.data(),
                   pooled.data() + pooled.size());
    }
    return out;
}

void
CoarseIndex::build(const std::vector<Graph> &corpus, const GmnModel &model,
                   unsigned sketch_level, unsigned sketch_dim)
{
    CEGMA_TRACE_SCOPE_CAT("coarseIndex.build", "retrieval");
    // A property of the model, not of the corpus: an empty index
    // still ranks with the model's scorer once graphs arrive.
    modelAware_ = model.coarseDim() > 0;
    if (corpus.empty()) {
        vectors_ = Matrix();
        norms_ = Matrix();
        return;
    }
    if (modelAware_) {
        // The model decomposes its head per graph: store its own
        // descriptors and let its scorer rank them. The
        // descriptors go through the memo like the generic chain path.
        vectors_ = Matrix(corpus.size(), model.coarseDim());
        parallelFor(0, corpus.size(), 1, [&](size_t g0, size_t g1) {
            for (size_t g = g0; g < g1; ++g)
                model.coarseDescriptor(corpus[g], vectors_.row(g));
        });
        norms_ = Matrix();
        return;
    }
    // The first vector fixes the dimension (a constant of the model /
    // sketch config); the rest fill their rows in parallel.
    std::vector<float> first =
        coarseVector(corpus[0], model, sketch_level, sketch_dim);
    vectors_ = Matrix(corpus.size(), first.size());
    std::copy(first.begin(), first.end(), vectors_.row(0));
    parallelFor(1, corpus.size(), 1, [&](size_t g0, size_t g1) {
        for (size_t g = g0; g < g1; ++g) {
            std::vector<float> v =
                coarseVector(corpus[g], model, sketch_level, sketch_dim);
            assert(v.size() == vectors_.cols());
            std::copy(v.begin(), v.end(), vectors_.row(g));
        }
    });
    norms_ = rowSquaredNorms(vectors_);
}

std::vector<uint32_t>
CoarseIndex::shortlist(const CoarseScorer &scorer,
                       const std::vector<uint32_t> &survivors,
                       size_t shortlist_size) const
{
    if (shortlist_size == 0 || survivors.size() <= shortlist_size)
        return survivors;
    CEGMA_TRACE_SCOPE_CAT("retrieval.shortlist", "retrieval");

    // The whole index is one block; survivors are keyed in fixed runs
    // (one live-corpus chunk's worth), each run one scorer call
    // writing its own key range.
    constexpr size_t kRunRows = 512;
    const CoarseBlock block{vectors_.data(),
                            norms_.size() > 0 ? norms_.data() : nullptr,
                            vectors_.cols()};
    std::vector<float> keys(survivors.size());
    parallelFor(0, survivors.size(), kRunRows, [&](size_t i0, size_t i1) {
        scorer.keys(block, survivors.data() + i0, i1 - i0,
                    keys.data() + i0);
    });
    return lowestKeyed(keys, survivors, shortlist_size);
}

void
L2CoarseScorer::keys(const CoarseBlock &block, const uint32_t *rows,
                     size_t n, float *keys) const
{
    if (n == 0)
        return;
    cegma_assert(block.dim == query_.size() && block.norms != nullptr);
    for (size_t i = 0; i < n; ++i) {
        keys[i] = block.norms[rows[i]] -
                  2.0f * dot(query_.data(), block.row(rows[i]), block.dim);
    }
}

std::unique_ptr<CoarseScorer>
makeCoarseScorer(const Graph &query, const GmnModel &model,
                 bool model_aware, unsigned sketch_level,
                 unsigned sketch_dim)
{
    if (model_aware) {
        std::unique_ptr<CoarseScorer> scorer = model.coarseScorer(query);
        cegma_assert(scorer != nullptr);
        return scorer;
    }
    return std::make_unique<L2CoarseScorer>(
        coarseVector(query, model, sketch_level, sketch_dim));
}

std::vector<uint32_t>
lowestKeyed(const std::vector<float> &keys,
            const std::vector<uint32_t> &ids, size_t budget)
{
    assert(keys.size() == ids.size() && budget < ids.size());
    std::vector<std::pair<float, uint32_t>> ranked(ids.size());
    for (size_t i = 0; i < ids.size(); ++i)
        ranked[i] = {keys[i], ids[i]};
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<ptrdiff_t>(budget),
                     ranked.end());
    std::vector<uint32_t> out(budget);
    for (size_t i = 0; i < budget; ++i)
        out[i] = ranked[i].second;
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace cegma
