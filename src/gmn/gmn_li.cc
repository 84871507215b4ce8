/**
 * @file
 * GMN-Li [24]: five MGNN layers with per-layer cross-graph attention
 * matching feeding the node update, euclidean similarity, and an MLP
 * readout over summed node features (Table I row 1).
 */

#include <utility>

#include "common/rng.hh"
#include "emf/emf.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "graph/wl_refine.hh"
#include "nn/linear.hh"
#include "nn/mgnn.hh"
#include "obs/trace.hh"

namespace cegma {

namespace {

class GmnLiModel : public GmnModel
{
  public:
    explicit GmnLiModel(uint64_t seed)
        : GmnModel(modelConfig(ModelId::GmnLi)), rng_(seed),
          encoder_(1, config_.nodeDim, rng_, Activation::Tanh),
          readout_({config_.nodeDim, 128, 128}, rng_, Activation::None)
    {
        for (unsigned l = 0; l < config_.numLayers; ++l)
            layers_.emplace_back(config_.nodeDim, config_.nodeDim, rng_);
    }

    Detail forwardDetailed(GraphPairView pair) const override;

  private:
    /**
     * Cross-graph attention message: x - softmax(S) y (per [24]).
     * Takes S by value: the softmax runs in place on it.
     */
    static Matrix
    crossMessage(const Matrix &x, Matrix s, const Matrix &other)
    {
        softmaxRowsInPlace(s);
        Matrix weighted = matmul(s, other);
        Matrix out(x.rows(), x.cols());
        for (size_t i = 0; i < x.size(); ++i)
            out.data()[i] = x.data()[i] - weighted.data()[i];
        return out;
    }

    /**
     * EMF-skipped cross message from the S rows `su` of `dx`'s unique
     * rows: message row i is a deterministic function of (x row i,
     * S row i, all of `other`), and duplicate x rows have duplicate S
     * rows, so computing the unique rows only and scattering back
     * through the confirmed map is bit-identical to the dense message.
     */
    static Matrix
    crossMessageDedup(const Matrix &x, Matrix su, const Matrix &other,
                      const DedupMap &dx)
    {
        Matrix xu = gatherRows(x, dx.uniqueRows);
        return scatterRows(crossMessage(xu, std::move(su), other), dx);
    }

    mutable Rng rng_;
    Linear encoder_;
    std::vector<MgnnLayer> layers_;
    Mlp readout_;
};

GmnModel::Detail
GmnLiModel::forwardDetailed(GraphPairView pair) const
{
    Detail detail;
    // Cross-feedback means embeddings depend on the partner graph, so
    // only the per-graph WL colorings are memoizable here.
    std::shared_ptr<const WlColoring> wl_t_ptr, wl_q_ptr;
    Matrix x, y;
    {
        obs::StageScope stage("embed",
                              stageHist(&obs::StageSink::embedUs),
                              &obs::StageAccum::embedNs);
        wl_t_ptr =
            infer_.memo
                ? infer_.memo->wl(pair.target, config_.numLayers)
                : std::make_shared<const WlColoring>(
                      wlRefine(pair.target, config_.numLayers));
        wl_q_ptr =
            infer_.memo
                ? infer_.memo->wl(pair.query, config_.numLayers)
                : std::make_shared<const WlColoring>(
                      wlRefine(pair.query, config_.numLayers));
        x = encoder_.forward(initialFeatures(pair.target));
        y = encoder_.forward(initialFeatures(pair.query));
    }
    const WlColoring &wl_t = *wl_t_ptr;
    const WlColoring &wl_q = *wl_q_ptr;
    detail.xLayers.push_back(x);
    detail.yLayers.push_back(y);

    for (unsigned l = 0; l < config_.numLayers; ++l) {
        // With dedup on, the confirmed maps also give the MGNN layer
        // its node classes; with it off they stay empty (one class
        // per node).
        DedupMap dx, dy;
        Matrix s, cross_x, cross_y;
        if (infer_.dedupMatching) {
            {
                obs::StageScope stage(
                    "dedup", stageHist(&obs::StageSink::dedupUs),
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
            // y's unique rows of S^T are S's columns at dy.uniqueRows.
            cross_x = crossMessageDedup(x, gatherRows(s, dx.uniqueRows),
                                        y, dx);
            cross_y = crossMessageDedup(
                y, gatherColumns(s, dy.uniqueRows), x, dy);
        } else {
            obs::StageScope stage("match",
                                  stageHist(&obs::StageSink::matchUs),
                                  &obs::StageAccum::matchNs);
            s = similarityMatrix(x, y, config_.similarity);
            cross_x = crossMessage(x, s, y);
            cross_y = crossMessage(y, transpose(s), x);
        }
        detail.simLayers.push_back(std::move(s));

        {
            obs::StageScope stage("embed",
                                  stageHist(&obs::StageSink::embedUs),
                                  &obs::StageAccum::embedNs);
            x = layers_[l].forward(pair.target, x, cross_x,
                                   wl_t.signatures[l], dx.repOf);
            y = layers_[l].forward(pair.query, y, cross_y,
                                   wl_q.signatures[l], dy.repOf);
        }
        detail.xLayers.push_back(x);
        detail.yLayers.push_back(y);
    }

    obs::StageScope stage("head", stageHist(&obs::StageSink::headUs),
                          &obs::StageAccum::headNs);
    Matrix hx = readout_.forward(columnSums(x));
    Matrix hy = readout_.forward(columnSums(y));
    double dist = 0.0;
    for (size_t j = 0; j < hx.cols(); ++j) {
        double d = hx.at(0, j) - hy.at(0, j);
        dist += d * d;
    }
    detail.score = -dist;
    return detail;
}

} // namespace

std::unique_ptr<GmnModel>
makeGmnLi(uint64_t seed)
{
    return std::make_unique<GmnLiModel>(seed);
}

} // namespace cegma
