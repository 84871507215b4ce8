/**
 * @file
 * SimGNN [4]: three GCN layers, a single last-layer dot-product
 * similarity (model-wise matching), an attention readout + NTN over
 * graph embeddings, a pairwise-similarity histogram, and a small MLP
 * head (Table I row 3).
 */

#include "gmn/simgnn.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "emf/emf.hh"
#include "gmn/memo.hh"
#include "graph/wl_refine.hh"
#include "nn/gcn.hh"
#include "nn/ntn.hh"
#include "obs/trace.hh"
#include "tensor/kernels.hh"

namespace cegma {

namespace {

constexpr size_t embedDim = SimGnnCoarseScorer::kEmbedDim;
constexpr size_t histBins = SimGnnCoarseScorer::kHistBins;
constexpr size_t ntnSlices = SimGnnCoarseScorer::kSlices;

class SimGnnModel;

/**
 * SimGNN's per-query exact terms: the query's embedding chain (its
 * last layer enters the similarity matrix, its projection hy the NTN)
 * and the NTN's query product over hy.
 */
struct SimGnnQueryTerms final : QueryTerms
{
    const SimGnnModel *model = nullptr;
    std::shared_ptr<const GraphEmbedding> embed;
    Ntn::QueryProduct product;
};

class SimGnnModel : public GmnModel
{
  public:
    explicit SimGnnModel(uint64_t seed)
        : GmnModel(modelConfig(ModelId::SimGnn)), rng_(seed),
          encoder_(1, config_.nodeDim, rng_, Activation::Tanh),
          attention_(config_.nodeDim, config_.nodeDim, rng_,
                     Activation::None),
          project_(config_.nodeDim, embedDim, rng_, Activation::Tanh),
          ntn_(embedDim, ntnSlices, rng_),
          head_({ntnSlices + histBins, 16, 8, 4, 1}, rng_,
                Activation::Sigmoid)
    {
        for (unsigned l = 0; l < config_.numLayers; ++l)
            layers_.emplace_back(config_.nodeDim, config_.nodeDim, rng_);
    }

    Detail forwardDetailed(GraphPairView pair) const override;

    std::shared_ptr<const GraphEmbedding>
    graphEmbedding(const Graph &g) const override
    {
        return embedCached(g);
    }

    /**
     * The coarse descriptor is hx = project(readout(last layer)) —
     * exactly the NTN input of the exact head — concatenated with the
     * graph's self-similarity histogram, so the coarse scorer can
     * replay the graph-level part of the score and estimate the
     * cross-graph histogram term from embedDim + histBins stored
     * floats per candidate.
     */
    size_t coarseDim() const override { return embedDim + histBins; }

    void
    coarseDescriptor(const Graph &g, float *out) const override
    {
        std::shared_ptr<const GraphEmbedding> e = embedCached(g);
        const Matrix &x = e->layers.back();
        std::copy(e->projection.data(),
                  e->projection.data() + e->projection.size(), out);
        Matrix hist = similarityHistogram(
            similarityMatrix(x, x, config_.similarity));
        std::copy(hist.data(), hist.data() + hist.size(),
                  out + embedDim);
    }

    std::unique_ptr<CoarseScorer>
    coarseScorer(const Graph &query) const override;

    std::shared_ptr<const QueryTerms>
    queryTerms(const Graph &query) const override;

  protected:
    double
    scoreWith(GraphPairView pair, const QueryTerms *terms) const override
    {
        return pairScore(pair, terms, nullptr);
    }

  private:
    /**
     * The one exact forward: `score` passes no `Detail`, so a served
     * pair copies no layer or similarity matrix; `forwardDetailed`
     * fills one. Without `terms` the query's are built inline.
     */
    double pairScore(GraphPairView pair, const QueryTerms *terms,
                     Detail *detail) const;

    /** SimGNN's global-context attention readout: 1 x nodeDim. */
    Matrix
    readout(const Matrix &x) const
    {
        Matrix context = columnMeans(x);
        Matrix key = attention_.forward(context); // 1 x nodeDim
        Matrix out(1, x.cols());
        for (size_t v = 0; v < x.rows(); ++v) {
            float score = dot(x.row(v), key.row(0), x.cols());
            float a = 1.0f / (1.0f + std::exp(-score));
            for (size_t j = 0; j < x.cols(); ++j)
                out.at(0, j) += a * x.at(v, j);
        }
        return out;
    }

    /** Histogram of sigmoid-squashed similarity entries. */
    static Matrix
    similarityHistogram(const Matrix &s)
    {
        Matrix hist(1, histBins);
        for (size_t i = 0; i < s.size(); ++i) {
            float v = 1.0f / (1.0f + std::exp(-s.data()[i]));
            auto bin = static_cast<size_t>(v * histBins);
            bin = std::min(bin, histBins - 1);
            hist.at(0, bin) += 1.0f;
        }
        if (s.size() > 0) {
            for (size_t b = 0; b < histBins; ++b)
                hist.at(0, b) /= static_cast<float>(s.size());
        }
        return hist;
    }

    /** The per-graph embedding chain (encoder + all GCN layers). */
    GraphEmbedding
    embedSide(const Graph &g) const
    {
        GraphEmbedding embed;
        WlColoring wl = wlRefine(g, config_.numLayers);
        Matrix x = encoder_.forward(initialFeatures(g));
        embed.layers.push_back(x);
        for (unsigned l = 0; l < config_.numLayers; ++l) {
            x = layers_[l].forward(g, x, wl.signatures[l]);
            embed.layers.push_back(x);
        }
        embed.projection = project_.forward(readout(x));
        return embed;
    }

    /** Run `embedSide` through the memo cache when one is usable. */
    std::shared_ptr<const GraphEmbedding>
    embedCached(const Graph &g) const
    {
        if (MemoCache *memo = embeddingMemo()) {
            return memo->embedding(g, [&] { return embedSide(g); });
        }
        return std::make_shared<const GraphEmbedding>(embedSide(g));
    }

    mutable Rng rng_;
    Linear encoder_;
    std::vector<GcnLayer> layers_;
    Linear attention_;
    Linear project_;
    Ntn ntn_;
    Mlp head_;
};

GmnModel::Detail
SimGnnModel::forwardDetailed(GraphPairView pair) const
{
    Detail detail;
    detail.score = pairScore(pair, nullptr, &detail);
    return detail;
}

std::shared_ptr<const QueryTerms>
SimGnnModel::queryTerms(const Graph &query) const
{
    auto terms = std::make_shared<SimGnnQueryTerms>();
    terms->model = this;
    {
        obs::StageScope stage("embed",
                              stageHist(&obs::StageSink::embedUs),
                              &obs::StageAccum::embedNs);
        terms->embed = embedCached(query);
    }
    obs::StageScope stage("head", stageHist(&obs::StageSink::headUs),
                          &obs::StageAccum::headNs);
    terms->product = ntn_.queryProduct(terms->embed->projection);
    return terms;
}

double
SimGnnModel::pairScore(GraphPairView pair, const QueryTerms *terms,
                       Detail *detail) const
{
    const auto *qt = dynamic_cast<const SimGnnQueryTerms *>(terms);
    cegma_assert((qt != nullptr) == (terms != nullptr) &&
                 (qt == nullptr || qt->model == this));
    std::shared_ptr<const GraphEmbedding> et, eq;
    {
        obs::StageScope stage("embed",
                              stageHist(&obs::StageSink::embedUs),
                              &obs::StageAccum::embedNs);
        et = embedCached(pair.target);
        eq = qt != nullptr ? qt->embed : embedCached(pair.query);
    }
    if (detail != nullptr) {
        detail->xLayers = et->layers;
        detail->yLayers = eq->layers;
    }
    const Matrix &x = et->layers.back();
    const Matrix &y = eq->layers.back();

    // Model-wise matching: one similarity matrix from the last layer.
    Matrix s;
    if (infer_.dedupMatching) {
        DedupMap dx, dy;
        {
            obs::StageScope stage("dedup",
                                  stageHist(&obs::StageSink::dedupUs),
                                  &obs::StageAccum::dedupNs);
            dx = confirmDedup(x, emfFilter(x));
            dy = confirmDedup(y, emfFilter(y));
        }
        noteDedup(x.rows(), dx.numUnique());
        noteDedup(y.rows(), dy.numUnique());
        obs::StageScope stage("match",
                              stageHist(&obs::StageSink::matchUs),
                              &obs::StageAccum::matchNs);
        s = similarityMatrixDedup(x, y, config_.similarity, dx, dy);
    } else {
        obs::StageScope stage("match",
                              stageHist(&obs::StageSink::matchUs),
                              &obs::StageAccum::matchNs);
        s = similarityMatrix(x, y, config_.similarity);
    }

    obs::StageScope stage("head", stageHist(&obs::StageSink::headUs),
                          &obs::StageAccum::headNs);
    Matrix hist = similarityHistogram(s);
    if (detail != nullptr)
        detail->simLayers.push_back(std::move(s));

    Ntn::QueryProduct inline_product;
    if (qt == nullptr)
        inline_product = ntn_.queryProduct(eq->projection);
    Matrix interaction = ntn_.forwardPair(
        et->projection, qt != nullptr ? qt->product : inline_product);

    Matrix head_in = hconcat({&interaction, &hist});
    Matrix out = head_.forward(head_in);
    return out.at(0, 0);
}

std::unique_ptr<CoarseScorer>
SimGnnModel::coarseScorer(const Graph &query) const
{
    std::shared_ptr<const GraphEmbedding> e = embedCached(query);
    const Matrix &y = e->layers.back();
    Matrix hist = similarityHistogram(
        similarityMatrix(y, y, config_.similarity));
    return std::make_unique<SimGnnCoarseScorer>(
        ntn_.queryFactor(e->projection), std::move(hist), head_);
}

} // namespace

SimGnnCoarseScorer::SimGnnCoarseScorer(Matrix factor, Matrix hist,
                                       const Mlp &head)
    : factor_(std::move(factor)), slices_(kSlices, kEmbedDim),
      hist_(std::move(hist)), head_(head)
{
    cegma_assert(factor_.rows() == kSlices &&
                 factor_.cols() == kEmbedDim + 1);
    // ntRow reads its B rows at stride k, so the slice vectors are
    // packed without the offset column.
    for (size_t k = 0; k < kSlices; ++k)
        std::copy(factor_.row(k), factor_.row(k) + kEmbedDim,
                  slices_.row(k));
}

void
SimGnnCoarseScorer::keys(const CoarseBlock &block, const uint32_t *rows,
                         size_t n, float *keys) const
{
    if (n == 0)
        return;
    cegma_assert(block.dim == kEmbedDim + kHistBins);
    const TensorKernels &kern = tensorKernels();
    Matrix in(n, kSlices + kHistBins);
    for (size_t i = 0; i < n; ++i) {
        const float *d = block.row(rows[i]);
        float *x = in.row(i);
        kern.ntRow(d, slices_.data(), kEmbedDim, 0, kSlices, x);
        for (size_t k = 0; k < kSlices; ++k) {
            float s = x[k] + factor_.at(k, kEmbedDim);
            x[k] = s > 0.0f ? s : 0.0f;
        }
        for (size_t b = 0; b < kHistBins; ++b)
            x[kSlices + b] = 0.5f * (hist_.at(0, b) + d[kEmbedDim + b]);
    }
    // Every GEMM output row depends on its own input row only, and
    // bias and activations are elementwise, so row i is what a 1-row
    // forward of row i gives.
    Matrix out = head_.forward(in);
    for (size_t i = 0; i < n; ++i)
        keys[i] = -out.at(i, 0);
}

std::unique_ptr<GmnModel>
makeSimGnn(uint64_t seed)
{
    return std::make_unique<SimGnnModel>(seed);
}

} // namespace cegma
