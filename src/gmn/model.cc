#include "gmn/model.hh"

#include "common/logging.hh"

namespace cegma {

const std::vector<ModelId> &
allModels()
{
    static const std::vector<ModelId> ids = {
        ModelId::GmnLi, ModelId::GraphSim, ModelId::SimGnn,
    };
    return ids;
}

const ModelConfig &
modelConfig(ModelId id)
{
    static const ModelConfig configs[] = {
        // GMN-Li: 5 x (MGNN[64,64,64], MATCHING[64,64], MLP(64*3,64,64)),
        // euclidean similarity, matching feeds each layer's update.
        {ModelId::GmnLi, "GMN-Li", SimilarityKind::Euclidean, 5, 64, true,
         true, MatchUse::OnChipReuse},
        // GraphSim: 3 x (GCN[1,64], SIM[64,1]) + CNN branches, cosine.
        {ModelId::GraphSim, "GraphSim", SimilarityKind::Cosine, 3, 64,
         true, false, MatchUse::WriteBack},
        // SimGNN: 3 x GCN + last-layer SIM + READOUT/NTN head, dot.
        {ModelId::SimGnn, "SimGNN", SimilarityKind::DotProduct, 3, 64,
         false, false, MatchUse::WriteBack},
    };
    for (const auto &config : configs) {
        if (config.id == id)
            return config;
    }
    panic("unknown model id %d", static_cast<int>(id));
}

std::unique_ptr<GmnModel>
makeModel(ModelId id, uint64_t seed)
{
    switch (id) {
      case ModelId::GmnLi:
        return makeGmnLi(seed);
      case ModelId::GraphSim:
        return makeGraphSim(seed);
      case ModelId::SimGnn:
        return makeSimGnn(seed);
    }
    panic("unknown model id %d", static_cast<int>(id));
}

Matrix
initialFeatures(const Graph &g)
{
    Matrix x(g.numNodes(), 1);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        x.at(v, 0) = static_cast<float>(g.label(v) + 1);
    return x;
}

} // namespace cegma
