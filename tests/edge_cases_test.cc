/**
 * @file
 * Edge-case hardening across the stack: degenerate graphs, minimal
 * buffers, and empty inputs must flow through tracing, scheduling,
 * and simulation without tripping invariants.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/runner.hh"
#include "accel/window.hh"
#include "common/rng.hh"
#include "emf/emf.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "graph/dataset.hh"
#include "graph/generators.hh"
#include "graph/wl_refine.hh"

namespace cegma {
namespace {

GraphPair
pairOf(Graph target, Graph query)
{
    GraphPair pair;
    pair.target = std::move(target);
    pair.query = std::move(query);
    pair.similar = true;
    return pair;
}

TEST(EdgeCases, EdgelessGraphsFlowThroughTheStack)
{
    GraphPair pair =
        pairOf(Graph::fromEdges(3, {}), Graph::fromEdges(2, {}));
    for (ModelId mid : allModels()) {
        PairTrace trace = buildTrace(mid, pair);
        if (mid == ModelId::GraphSim) {
            // GCN aggregation over zero arcs: only the self terms.
            EXPECT_EQ(trace.aggFlopsTotal(),
                      trace.layers.size() * (2ull * 5 * 64));
        }
        std::vector<PairTrace> traces{trace};
        SimResult result = runPlatform(PlatformId::Cegma, traces);
        EXPECT_GT(result.cycles, 0.0);
    }
}

TEST(EdgeCases, TwoNodePair)
{
    GraphPair pair = pairOf(Graph::fromEdges(2, {{0, 1}}),
                            Graph::fromEdges(2, {{0, 1}}));
    PairTrace trace = buildTrace(ModelId::GraphSim, pair);
    EXPECT_EQ(trace.totalMatchPairs(), 3ull * 4); // 3 layers x 2x2
    std::vector<PairTrace> traces{trace};
    for (PlatformId p : mainPlatforms()) {
        SimResult result = runPlatform(p, traces);
        EXPECT_GT(result.cycles, 0.0) << platformName(p);
    }
}

TEST(EdgeCases, MinimalBufferStillCoversEverything)
{
    Rng rng(1);
    Graph t = threadGraph(30, 36, rng);
    Graph q = threadGraph(25, 30, rng);
    WindowWork work;
    work.target = &t;
    work.query = &q;
    work.capNodes = 2; // one node per side
    work.hasMatching = true;
    for (SchedulerKind kind :
         {SchedulerKind::SeparatePhase, SchedulerKind::Joint,
          SchedulerKind::Coordinated}) {
        ScheduleResult res = scheduleLayer(kind, work);
        EXPECT_EQ(res.arcsProcessed, t.numArcs() + q.numArcs());
        EXPECT_EQ(res.matchesProcessed,
                  static_cast<uint64_t>(t.numNodes()) * q.numNodes());
    }
}

TEST(EdgeCases, AllDuplicateSideStillMatchesOnce)
{
    // A star's leaves all collapse to one unique node; the kept set
    // must never be empty.
    Graph star = Graph::fromEdges(6,
                                  {{0, 1}, {0, 2}, {0, 3}, {0, 4},
                                   {0, 5}});
    GraphPair pair = pairOf(star, star);
    PairTrace trace = buildTrace(ModelId::GraphSim, pair);
    for (const auto &layer : trace.layers) {
        EXPECT_GE(layer.matching.numUniqueTarget, 1u);
        EXPECT_LE(layer.matching.numUniqueTarget, 2u); // hub + leaf
        EXPECT_GE(layer.matching.uniquePairs(), 1u);
    }
}

TEST(EdgeCases, WlRefineSingleNode)
{
    Graph g = Graph::fromEdges(1, {});
    WlColoring wl = wlRefine(g, 3);
    for (size_t l = 0; l < wl.numLevels(); ++l)
        EXPECT_EQ(wl.numClasses[l], 1u);
    EXPECT_DOUBLE_EQ(wl.duplicateFraction(0), 0.0);
}

TEST(EdgeCases, EmfOnSingleRow)
{
    Matrix x(1, 4, {1, 2, 3, 4});
    EmfResult result = emfFilter(x);
    EXPECT_EQ(result.numUnique(), 1u);
    EXPECT_EQ(result.numDuplicates(), 0u);
    EXPECT_TRUE(result.isUnique[0]);
}

TEST(EdgeCases, ZeroPairSimulation)
{
    std::vector<PairTrace> empty;
    SimResult result = runPlatform(PlatformId::Cegma, empty);
    EXPECT_DOUBLE_EQ(result.cycles, 0.0);
    EXPECT_EQ(result.pairsSimulated, 0u);
    EXPECT_DOUBLE_EQ(result.throughput(1e9), 0.0);
}

TEST(EdgeCases, SubstituteOnTinyGraphIsSafe)
{
    Rng rng(2);
    Graph g = Graph::fromEdges(2, {{0, 1}});
    // Fewer than 3 nodes: substitution is a no-op copy.
    Graph h = g.substituteEdges(4, rng);
    EXPECT_EQ(h.numNodes(), 2u);
    EXPECT_EQ(h.numEdges(), 1u);
}

TEST(EdgeCases, RunFunctionalOnEmptyDataset)
{
    Dataset empty;
    empty.spec = datasetSpec(DatasetId::AIDS);
    for (ModelId mid : allModels()) {
        FunctionalOptions options;
        options.dedup = true;
        options.memo = true;
        FunctionalResult result = runFunctional(mid, empty, options);
        EXPECT_TRUE(result.scores.empty());
        EXPECT_DOUBLE_EQ(result.msPerPair(), 0.0);
        EXPECT_DOUBLE_EQ(result.dedupSkipRatio(), 0.0);
        EXPECT_DOUBLE_EQ(result.memoHitRate(), 0.0);
    }
}

TEST(EdgeCases, RunFunctionalMaxPairsBeyondDatasetSize)
{
    Dataset ds = makeCloneSearchDataset(DatasetId::AIDS, 2, 2);
    ASSERT_EQ(ds.pairs.size(), 4u);
    FunctionalResult capped =
        runFunctional(ModelId::GraphSim, ds, {}, 1000);
    FunctionalResult full = runFunctional(ModelId::GraphSim, ds, {});
    ASSERT_EQ(capped.scores.size(), 4u);
    for (size_t i = 0; i < full.scores.size(); ++i)
        EXPECT_EQ(capped.scores[i], full.scores[i]);
}

TEST(EdgeCases, SingleNodePairThroughEveryModelAndKnob)
{
    Dataset ds;
    ds.spec = datasetSpec(DatasetId::AIDS);
    ds.pairs.push_back(
        pairOf(Graph::fromEdges(1, {}), Graph::fromEdges(1, {})));
    for (ModelId mid : allModels()) {
        FunctionalResult dense = runFunctional(mid, ds);
        ASSERT_EQ(dense.scores.size(), 1u);
        EXPECT_TRUE(std::isfinite(dense.scores[0]));
        // Every elastic knob combination must produce the same bit.
        for (bool dedup : {false, true}) {
            for (bool memo : {false, true}) {
                FunctionalOptions options;
                options.dedup = dedup;
                options.memo = memo;
                FunctionalResult result = runFunctional(mid, ds, options);
                ASSERT_EQ(result.scores.size(), 1u);
                EXPECT_EQ(result.scores[0], dense.scores[0])
                    << modelConfig(mid).name << " dedup=" << dedup
                    << " memo=" << memo;
            }
        }
    }
}

/**
 * A graph with no nodes scores against another 0-node graph and
 * against an AIDS graph, on either side of the pair, in every model:
 * `runFunctional`, `score` (with and without the query's terms) and
 * `forwardDetailed` return the same finite score at every dedup x memo
 * setting. GraphSim resizes the pair's empty similarity matrix to its
 * all-zero image.
 */
TEST(EdgeCases, ZeroNodePairsThroughEveryModelAndKnob)
{
    const Graph aids =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 1).candidates[0];
    ASSERT_GT(aids.numNodes(), 0u);
    Dataset ds;
    ds.spec = datasetSpec(DatasetId::AIDS);
    ds.pairs.push_back(pairOf(Graph(), Graph()));
    ds.pairs.push_back(pairOf(Graph(), aids));
    ds.pairs.push_back(pairOf(aids, Graph()));
    for (ModelId mid : allModels()) {
        SCOPED_TRACE(modelConfig(mid).name);
        FunctionalResult dense = runFunctional(mid, ds);
        ASSERT_EQ(dense.scores.size(), ds.pairs.size());
        for (double s : dense.scores)
            EXPECT_TRUE(std::isfinite(s));
        for (bool dedup : {false, true}) {
            for (bool memo : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "dedup=" << dedup << " memo=" << memo);
                FunctionalOptions options;
                options.dedup = dedup;
                options.memo = memo;
                FunctionalResult result = runFunctional(mid, ds, options);
                std::unique_ptr<GmnModel> model = makeModel(mid);
                MemoCache cache;
                InferenceOptions infer;
                infer.dedupMatching = dedup;
                infer.memo = memo ? &cache : nullptr;
                model->setInferenceOptions(infer);
                for (size_t i = 0; i < ds.pairs.size(); ++i) {
                    const GraphPair &pair = ds.pairs[i];
                    const GraphPairView view(pair.target, pair.query);
                    const double want = dense.scores[i];
                    std::shared_ptr<const QueryTerms> terms =
                        model->queryTerms(pair.query);
                    EXPECT_EQ(result.scores[i], want) << "pair " << i;
                    EXPECT_EQ(model->score(view), want) << "pair " << i;
                    EXPECT_EQ(model->score(view, terms.get()), want)
                        << "pair " << i;
                    EXPECT_EQ(model->forwardDetailed(view).score, want)
                        << "pair " << i;
                }
            }
        }
    }
}

TEST(EdgeCases, CustomConfigOneLayer)
{
    Rng rng(3);
    Graph g = threadGraph(20, 24, rng);
    GraphPair pair = makePairFromOriginal(g, true, rng);
    ModelConfig config = modelConfig(ModelId::SimGnn);
    config.numLayers = 1;
    PairTrace trace = buildCustomTrace(config, pair);
    ASSERT_EQ(trace.layers.size(), 1u);
    EXPECT_TRUE(trace.layers[0].matching.present);
}

} // namespace
} // namespace cegma
