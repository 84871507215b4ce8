#include "retrieval/coarse.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "graph/wl_refine.hh"

namespace cegma {

std::vector<uint64_t>
wlTagSet(const Graph &g, unsigned level)
{
    WlColoring wl = wlRefine(g, level);
    const std::vector<uint64_t> &sigs = wl.signatures.back();
    std::vector<uint64_t> tags(sigs.begin(), sigs.end());
    std::sort(tags.begin(), tags.end());
    tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
    return tags;
}

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
