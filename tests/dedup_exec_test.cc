/**
 * @file
 * The elastic dedup runtime's contract: EMF-skipped similarity,
 * cross-pair memoization, and the full functional inference path are
 * *bit-identical* to the dense reference at every thread count, and a
 * 32-bit tag collision can never alias two distinct rows thanks to the
 * memcmp confirm in `confirmDedup`.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "accel/runner.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "emf/emf.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "gmn/similarity.hh"
#include "graph/dataset.hh"
#include "graph/generators.hh"
#include "nn/mgnn.hh"

namespace cegma {
namespace {

const SimilarityKind kAllKinds[] = {
    SimilarityKind::DotProduct,
    SimilarityKind::Cosine,
    SimilarityKind::Euclidean,
};

const uint32_t kThreadCounts[] = {1, 2, 8};

class DedupExecTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::instance().setThreads(1); }
};

/** A WL-duplicate-heavy pair (thread graphs, paper Fig. 18 regime). */
GraphPair
dupHeavyPair(uint64_t seed, NodeId n = 48)
{
    Rng rng(seed);
    Graph g = threadGraph(n, n + n / 6, rng);
    return makePairFromOriginal(g, true, rng);
}

/**
 * Realistic duplicate-heavy feature matrices: the per-layer node
 * features a GCN model actually produces on a thread graph (WL-class
 * duplicates are bitwise duplicates there).
 */
std::pair<Matrix, Matrix>
dupHeavyFeatures(uint64_t seed)
{
    GraphPair pair = dupHeavyPair(seed);
    auto model = makeModel(ModelId::GraphSim, 99);
    GmnModel::Detail detail = model->forwardDetailed(pair);
    return {detail.xLayers[1], detail.yLayers[1]};
}

TEST_F(DedupExecTest, FeaturesActuallyHaveDuplicates)
{
    auto [x, y] = dupHeavyFeatures(3);
    EmfResult ex = emfFilter(x);
    EmfResult ey = emfFilter(y);
    EXPECT_GT(ex.numDuplicates(), 0u);
    EXPECT_GT(ey.numDuplicates(), 0u);
}

TEST_F(DedupExecTest, SimilarityBitExactAllKindsAllThreads)
{
    auto [x, y] = dupHeavyFeatures(7);
    for (SimilarityKind kind : kAllKinds) {
        ThreadPool::instance().setThreads(1);
        Matrix dense = similarityMatrix(x, y, kind);
        for (uint32_t threads : kThreadCounts) {
            ThreadPool::instance().setThreads(threads);
            Matrix dedup = similarityMatrixDedup(x, y, kind);
            EXPECT_TRUE(dense.equals(dedup))
                << similarityName(kind) << " @ " << threads << " threads";
            // The dense kernel itself must also hold its determinism
            // contract, or the comparison above proves nothing.
            Matrix dense_t = similarityMatrix(x, y, kind);
            EXPECT_TRUE(dense.equals(dense_t))
                << similarityName(kind) << " dense @ " << threads;
        }
    }
}

TEST_F(DedupExecTest, DedupMapMatchesEmfOnCleanTags)
{
    auto [x, y] = dupHeavyFeatures(11);
    EmfResult emf = emfFilter(x);
    DedupMap map = confirmDedup(x, emf);
    // No collisions in practice: the confirmed map preserves EMF's
    // unique count, and every row aliases a bitwise-equal unique row.
    EXPECT_EQ(map.numUnique(), emf.numUnique());
    for (size_t v = 0; v < x.rows(); ++v) {
        uint32_t rep = map.uniqueRows[map.repOf[v]];
        EXPECT_TRUE(x.rowsEqual(v, rep)) << "row " << v;
    }
}

TEST_F(DedupExecTest, ForcedTagCollisionFallsBackToMemcmp)
{
    // Four rows: 0 and 3 distinct, 1 == 2 but != 0. Hand-poison the
    // EMF outcome to claim rows 1..3 all duplicate row 0 — the tag
    // collision case a 32-bit hash cannot rule out.
    Matrix x(4, 3,
             {1.0f, 2.0f, 3.0f,   //
              4.0f, 5.0f, 6.0f,   //
              4.0f, 5.0f, 6.0f,   //
              7.0f, 8.0f, 9.0f});
    EmfResult poisoned;
    poisoned.recordSet = {{0, 42}};
    poisoned.tagMap = {{1, 0}, {2, 0}, {3, 0}};
    poisoned.isUnique = {1, 0, 0, 0};
    poisoned.uniqueOf = {0, 0, 0, 0};

    DedupMap map = confirmDedup(x, poisoned);
    // The confirm must promote row 1 (bits differ from row 0), alias
    // row 2 to the *promoted* row 1, and promote row 3 again.
    ASSERT_EQ(map.numUnique(), 3u);
    EXPECT_EQ(map.uniqueRows[0], 0u);
    EXPECT_EQ(map.uniqueRows[1], 1u);
    EXPECT_EQ(map.uniqueRows[2], 3u);
    EXPECT_EQ(map.repOf[0], 0u);
    EXPECT_EQ(map.repOf[1], 1u);
    EXPECT_EQ(map.repOf[2], 1u);
    EXPECT_EQ(map.repOf[3], 2u);

    // And the dedup similarity built through the poisoned-then-
    // confirmed map still equals dense, for every kind and both sides.
    Matrix y(2, 3, {0.5f, -1.0f, 2.0f, 3.0f, 0.0f, -2.0f});
    DedupMap dy = confirmDedup(y, emfFilter(y));
    for (SimilarityKind kind : kAllKinds) {
        Matrix dense = similarityMatrix(x, y, kind);
        Matrix dedup = similarityMatrixDedup(x, y, kind, map, dy);
        EXPECT_TRUE(dense.equals(dedup)) << similarityName(kind);
        Matrix dense_t = similarityMatrix(y, x, kind);
        Matrix dedup_t = similarityMatrixDedup(y, x, kind, dy, map);
        EXPECT_TRUE(dense_t.equals(dedup_t)) << similarityName(kind);
    }

    // The MGNN layer takes the confirmed map as its node classes: its
    // output must equal the layer run without classes. On the cycle
    // 0-1-3-2-0 the duplicate rows 1 and 2 also share their arcs'
    // message rows, so both the arc and the node dedup engage.
    Rng rng(5);
    MgnnLayer layer(3, 4, rng);
    Graph g = Graph::fromEdges(4, {{0, 1}, {1, 3}, {3, 2}, {2, 0}});
    Matrix cross(4, 3,
                 {0.5f, 0.5f, 0.5f,    //
                  -1.0f, 2.0f, 0.0f,   //
                  -1.0f, 2.0f, 0.0f,   //
                  3.0f, -3.0f, 1.0f});
    Matrix plain = layer.forward(g, x, cross, {});
    Matrix with_map = layer.forward(g, x, cross, {}, map.repOf);
    EXPECT_TRUE(plain.equals(with_map));
}

TEST_F(DedupExecTest, ScatterRowsReplicatesRepresentatives)
{
    Matrix block(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
    DedupMap map;
    map.uniqueRows = {0, 2};
    map.repOf = {0, 0, 1, 1, 0};
    Matrix out = scatterRows(block, map);
    ASSERT_EQ(out.rows(), 5u);
    for (size_t i = 0; i < out.rows(); ++i) {
        EXPECT_FLOAT_EQ(out.at(i, 0), block.at(map.repOf[i], 0));
        EXPECT_FLOAT_EQ(out.at(i, 1), block.at(map.repOf[i], 1));
    }
}

TEST_F(DedupExecTest, DedupFlopsConsistentWithUniquePairs)
{
    for (SimilarityKind kind : kAllKinds) {
        uint64_t dense = similarityFlops(100, 80, 64, kind);
        uint64_t dedup = similarityFlopsDedup(100, 80, 10, 8, 64, kind);
        EXPECT_EQ(dedup, similarityFlops(10, 8, 64, kind));
        EXPECT_LT(dedup, dense);
        // No duplicates -> dedup accounting degenerates to dense.
        EXPECT_EQ(similarityFlopsDedup(100, 80, 100, 80, 64, kind),
                  dense);
    }
}

/** All-knob bitwise identity of the full forward pass, per model. */
void
expectForwardBitIdentical(ModelId id, const GraphPair &pair)
{
    auto dense_model = makeModel(id, 1234);
    GmnModel::Detail dense = dense_model->forwardDetailed(pair);

    MemoCache memo;
    InferenceOptions knobs[3];
    knobs[0].dedupMatching = true;
    knobs[1].memo = &memo;
    knobs[2].dedupMatching = true;
    knobs[2].memo = &memo;

    for (const InferenceOptions &opts : knobs) {
        auto model = makeModel(id, 1234);
        model->setInferenceOptions(opts);
        GmnModel::Detail got = model->forwardDetailed(pair);

        ASSERT_EQ(got.xLayers.size(), dense.xLayers.size());
        ASSERT_EQ(got.yLayers.size(), dense.yLayers.size());
        ASSERT_EQ(got.simLayers.size(), dense.simLayers.size());
        for (size_t l = 0; l < dense.xLayers.size(); ++l) {
            EXPECT_TRUE(got.xLayers[l].equals(dense.xLayers[l]))
                << "xLayers[" << l << "]";
            EXPECT_TRUE(got.yLayers[l].equals(dense.yLayers[l]))
                << "yLayers[" << l << "]";
        }
        for (size_t l = 0; l < dense.simLayers.size(); ++l) {
            EXPECT_TRUE(got.simLayers[l].equals(dense.simLayers[l]))
                << "simLayers[" << l << "]";
        }
        EXPECT_EQ(got.score, dense.score);
    }
}

TEST_F(DedupExecTest, GmnLiForwardBitIdenticalAllThreads)
{
    // The serving benchmark's shape as well: a fixed-size 430-node
    // RD-B graph (the dataset's mean) and its 1-edge clone.
    Rng rng(24);
    Graph rdb = makeDatasetGraph(DatasetId::RD_B, 430, rng);
    GraphPair rdb_clone{rdb, rdb.substituteEdges(1, rng), true};
    for (const GraphPair &pair : {dupHeavyPair(21), rdb_clone}) {
        for (uint32_t threads : kThreadCounts) {
            ThreadPool::instance().setThreads(threads);
            expectForwardBitIdentical(ModelId::GmnLi, pair);
        }
    }
}

TEST_F(DedupExecTest, GraphSimForwardBitIdenticalAllThreads)
{
    GraphPair pair = dupHeavyPair(22);
    for (uint32_t threads : kThreadCounts) {
        ThreadPool::instance().setThreads(threads);
        expectForwardBitIdentical(ModelId::GraphSim, pair);
    }
}

TEST_F(DedupExecTest, SimGnnForwardBitIdenticalAllThreads)
{
    GraphPair pair = dupHeavyPair(23);
    for (uint32_t threads : kThreadCounts) {
        ThreadPool::instance().setThreads(threads);
        expectForwardBitIdentical(ModelId::SimGnn, pair);
    }
}

// ---- SimGNN's exact path: per-query terms, score-only forward ------

class SimGnnExactPath : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        ThreadPool::instance().setThreads(1);
        setSimdLevel(cpuSupportsAvx2() ? SimdLevel::Avx2
                                       : SimdLevel::Scalar);
    }
};

/** The served dataset shapes (AIDS, BIN-CFG, RD-B at its 430-node
 *  mean) plus the degenerate graphs: no nodes, one node, no edges. */
std::vector<Graph>
exactPathGraphs()
{
    Rng rng(41);
    std::vector<Graph> graphs;
    graphs.push_back(makeDatasetGraph(DatasetId::AIDS, 16, rng));
    graphs.push_back(makeDatasetGraph(DatasetId::BIN_CFG, 40, rng));
    graphs.push_back(makeDatasetGraph(DatasetId::RD_B, 430, rng));
    graphs.push_back(Graph::fromEdges(0, {}));
    graphs.push_back(Graph::fromEdges(1, {}, {3}));
    graphs.push_back(Graph::fromEdges(9, {}, {0, 1, 2, 0, 1, 2, 0, 1, 2}));
    return graphs;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * `score(pair, queryTerms(query))` and `score(pair)` both equal a
 * serial, scalar, no-memo model's `forwardDetailed(pair).score`, bit
 * for bit, over dedup x memo (off, on, and a budget that admits
 * almost nothing) x threads x SIMD level. Each query's terms are
 * built once and read by every pool worker.
 */
TEST_F(SimGnnExactPath, TermsScoreMatchesNoMemoForwardAcrossTheGrid)
{
    const std::vector<Graph> graphs = exactPathGraphs();
    // (target, query) over every input pair but the RD-B graph
    // against itself, whose 430 x 430 matrix would dominate the
    // sanitizer tiers without reaching any other code.
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t q = 0; q < graphs.size(); ++q) {
        for (size_t t = 0; t < graphs.size(); ++t) {
            if (t != q || graphs[t].numNodes() < 400)
                pairs.emplace_back(t, q);
        }
    }
    const size_t n = pairs.size();
    auto view = [&](size_t i) {
        return GraphPairView(graphs[pairs[i].first],
                             graphs[pairs[i].second]);
    };
    ThreadPool::instance().setThreads(1);
    setSimdLevel(SimdLevel::Scalar);
    std::unique_ptr<GmnModel> plain = makeModel(ModelId::SimGnn, 77);
    std::vector<double> ref(n);
    for (size_t i = 0; i < n; ++i)
        ref[i] = plain->forwardDetailed(view(i)).score;

    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (cpuSupportsAvx2())
        levels.push_back(SimdLevel::Avx2);
    enum class Memo { Off, On, Starved };
    for (SimdLevel level : levels) {
        for (uint32_t threads : kThreadCounts) {
            for (bool dedup : {false, true}) {
                for (Memo mode : {Memo::Off, Memo::On, Memo::Starved}) {
                    SCOPED_TRACE(testing::Message()
                                 << simdLevelName(level) << " threads="
                                 << threads << " dedup=" << dedup
                                 << " memo=" << static_cast<int>(mode));
                    setSimdLevel(level);
                    ThreadPool::instance().setThreads(threads);
                    std::unique_ptr<GmnModel> model =
                        makeModel(ModelId::SimGnn, 77);
                    MemoCache memo(mode == Memo::Starved
                                       ? MemoConfig{1024, 1}
                                       : MemoConfig{});
                    InferenceOptions opts;
                    opts.dedupMatching = dedup;
                    opts.memo = mode == Memo::Off ? nullptr : &memo;
                    model->setInferenceOptions(opts);

                    std::vector<std::shared_ptr<const QueryTerms>> terms;
                    for (const Graph &q : graphs) {
                        terms.push_back(model->queryTerms(q));
                        ASSERT_NE(terms.back(), nullptr);
                    }
                    std::vector<double> with(n), bare(n);
                    parallelFor(0, n, 1, [&](size_t i0, size_t i1) {
                        for (size_t i = i0; i < i1; ++i) {
                            const QueryTerms *qt =
                                terms[pairs[i].second].get();
                            with[i] = model->score(view(i), qt);
                            bare[i] = model->score(view(i));
                        }
                    });
                    for (size_t i = 0; i < n; ++i) {
                        EXPECT_TRUE(sameBits(with[i], ref[i]))
                            << "pair " << i << ": " << with[i]
                            << " vs " << ref[i];
                        EXPECT_TRUE(sameBits(bare[i], ref[i]))
                            << "pair " << i;
                    }
                    if (mode == Memo::Starved) {
                        EXPECT_LE(memo.bytes(), 1024u);
                    }
                }
            }
        }
    }
}

/** The score-only path must not cost `forwardDetailed` anything: a
 *  memoized model still returns every layer and the similarity
 *  matrix, equal to a no-memo model's. */
TEST_F(SimGnnExactPath, DetailedForwardKeepsEveryIntermediate)
{
    const std::vector<Graph> graphs = exactPathGraphs();
    std::unique_ptr<GmnModel> plain = makeModel(ModelId::SimGnn, 78);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn, 78);
    MemoCache memo;
    InferenceOptions opts;
    opts.dedupMatching = true;
    opts.memo = &memo;
    model->setInferenceOptions(opts);
    const size_t levels = modelConfig(ModelId::SimGnn).numLayers + 1;
    for (const Graph &q : graphs) {
        std::shared_ptr<const QueryTerms> terms = model->queryTerms(q);
        for (const Graph &t : graphs) {
            GraphPairView pair(t, q);
            (void)model->score(pair, terms.get()); // warm the memo
            GmnModel::Detail want = plain->forwardDetailed(pair);
            GmnModel::Detail got = model->forwardDetailed(pair);
            ASSERT_EQ(got.xLayers.size(), levels);
            ASSERT_EQ(got.yLayers.size(), levels);
            ASSERT_EQ(got.simLayers.size(), 1u);
            for (size_t l = 0; l < levels; ++l) {
                EXPECT_TRUE(got.xLayers[l].equals(want.xLayers[l]));
                EXPECT_TRUE(got.yLayers[l].equals(want.yLayers[l]));
            }
            EXPECT_TRUE(got.simLayers[0].equals(want.simLayers[0]));
            EXPECT_TRUE(sameBits(got.score, want.score));
        }
    }
}

/** GMN-Li and GraphSim keep no per-query terms; null terms leave
 *  their scores exactly what the full forward gives. */
TEST_F(SimGnnExactPath, OtherModelsHaveNoTerms)
{
    Rng rng(43);
    Graph a = makeDatasetGraph(DatasetId::AIDS, 16, rng);
    Graph b = makeDatasetGraph(DatasetId::AIDS, 14, rng);
    for (ModelId id : {ModelId::GmnLi, ModelId::GraphSim}) {
        SCOPED_TRACE(modelConfig(id).name);
        std::unique_ptr<GmnModel> model = makeModel(id, 9);
        std::unique_ptr<GmnModel> fresh = makeModel(id, 9);
        EXPECT_EQ(model->queryTerms(b), nullptr);
        GraphPairView pair(a, b);
        const double ref = fresh->forwardDetailed(pair).score;
        EXPECT_TRUE(sameBits(model->score(pair, nullptr), ref));
        EXPECT_TRUE(sameBits(model->score(pair), ref));
    }
}

/** SimGNN's memo entry carries hx: counted by graphEmbeddingBytes,
 *  and the coarse descriptor's first half is those very floats. */
TEST_F(SimGnnExactPath, EmbeddingStoresProjection)
{
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn, 79);
    std::unique_ptr<GmnModel> graphsim = makeModel(ModelId::GraphSim, 79);
    std::vector<float> desc(model->coarseDim());
    for (const Graph &g : exactPathGraphs()) {
        std::shared_ptr<const GraphEmbedding> e = model->graphEmbedding(g);
        ASSERT_NE(e, nullptr);
        ASSERT_EQ(e->projection.rows(), 1u);
        ASSERT_EQ(e->projection.cols(), 128u);
        GraphEmbedding bare;
        bare.layers = e->layers;
        EXPECT_EQ(graphEmbeddingBytes(*e),
                  graphEmbeddingBytes(bare) + 128 * sizeof(float));
        model->coarseDescriptor(g, desc.data());
        EXPECT_EQ(std::memcmp(desc.data(), e->projection.data(),
                              128 * sizeof(float)),
                  0);
        EXPECT_EQ(graphsim->graphEmbedding(g)->projection.size(), 0u);
    }
}

TEST_F(DedupExecTest, MemoCacheHitsAcrossPairs)
{
    // Two pairs sharing the same target graph: the second pair's
    // target-side WL and embedding must come out of the cache.
    Rng rng(31);
    Graph g = threadGraph(40, 48, rng);
    GraphPair a = makePairFromOriginal(g, true, rng);
    GraphPair b = makePairFromOriginal(g, false, rng);

    MemoCache memo;
    auto model = makeModel(ModelId::SimGnn, 1234);
    InferenceOptions opts;
    opts.memo = &memo;
    model->setInferenceOptions(opts);
    model->score(a);
    size_t misses_after_a = memo.misses();
    EXPECT_GT(misses_after_a, 0u);
    EXPECT_EQ(memo.hits(), 0u);
    model->score(b);
    // Pair b's target side (WL + embedding) hits; only its query side
    // misses.
    EXPECT_GT(memo.hits(), 0u);
}

TEST_F(DedupExecTest, RunFunctionalKnobsBitIdentical)
{
    Dataset ds = makeCloneSearchDataset(DatasetId::RD_B, 3, 3, 5);
    ASSERT_EQ(ds.pairs.size(), 9u);
    for (ModelId id : allModels()) {
        FunctionalOptions dense;
        FunctionalResult ref = runFunctional(id, ds, dense);

        FunctionalOptions dedup;
        dedup.dedup = true;
        FunctionalOptions both;
        both.dedup = true;
        both.memo = true;
        for (const FunctionalOptions &opts : {dedup, both}) {
            FunctionalResult got = runFunctional(id, ds, opts);
            ASSERT_EQ(got.scores.size(), ref.scores.size());
            for (size_t i = 0; i < ref.scores.size(); ++i)
                EXPECT_EQ(got.scores[i], ref.scores[i])
                    << modelConfig(id).name << " pair " << i;
            if (opts.memo) {
                // Every graph recurs across the 3x3 pair grid.
                EXPECT_GT(got.memoHits, 0u) << modelConfig(id).name;
            }
        }
    }
}

TEST_F(DedupExecTest, ParallelTraceBuildMatchesSerial)
{
    Dataset ds = makeCloneSearchDataset(DatasetId::RD_B, 2, 4, 9);
    for (uint32_t threads : kThreadCounts) {
        ThreadPool::instance().setThreads(threads);
        std::vector<PairTrace> par =
            buildTraces(ModelId::GmnLi, ds);
        ASSERT_EQ(par.size(), ds.pairs.size());
        for (size_t i = 0; i < par.size(); ++i) {
            PairTrace serial = buildTrace(ModelId::GmnLi, ds.pairs[i]);
            EXPECT_EQ(par[i].totalFlops(), serial.totalFlops());
            EXPECT_EQ(par[i].uniqueMatchPairs(),
                      serial.uniqueMatchPairs());
            EXPECT_EQ(par[i].dedupMatchFlopsTotal(),
                      serial.dedupMatchFlopsTotal());
        }
    }
}

} // namespace
} // namespace cegma
