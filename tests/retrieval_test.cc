/**
 * @file
 * The retrieval cascade's proof obligations:
 *   - WL tag sets are canonical, sorted-unique, and clone queries keep
 *     most of their base graph's tags;
 *   - the live corpus's stage-1 tag filter (shortlist budget 0)
 *     honors the overlap threshold, returns ascending slots, never
 *     prunes at threshold 0, keeps a self-query at full overlap, and
 *     returns nothing from an empty corpus;
 *   - coarse vectors have the documented dimensions (pooled chain for
 *     partner-independent models, WL sketch for GMN-Li) and the
 *     shortlist is a pure function of the stored descriptors — same
 *     set on every call, slot-ascending, with C=0 meaning "no cut";
 *   - every block key (SimGNN's model-aware scorer, L2 over GraphSim
 *     chains and GMN-Li sketches) is bitwise the per-candidate oracle's
 *     (tests/coarse_oracle.hh) at any block grouping, thread count and
 *     SIMD level (corpus_test's `LiveCorpusBlocks.*` checks the
 *     shortlists built from them);
 *   - stages 1–2 composed: the chain-distance shortlist keeps a
 *     planted clone, the model-aware one reaches the exact-score
 *     maximum, and within budget every survivor comes back without a
 *     scorer being built;
 *   - a cascade `SearchService`'s verified scores are bit-identical to
 *     exhaustive mode's for every candidate the cascade touches, at
 *     multiple thread counts and batch sizes, and pruned candidates
 *     surface as NaN ("not scored"), never as fabricated scores;
 *   - the per-stage candidate counters flow through the metrics
 *     registry (exhaustive mode verifies everything, and its top-k is
 *     `topKHits` over its scores; cascade prunes), and every registry
 *     name the serving benchmark reads exists in both modes;
 *   - the recall gate: at the CI corpus size (see
 *     CEGMA_RETRIEVAL_CI_CANDIDATES), cascade recall@10 against the
 *     exhaustive oracle stays >= 0.99 (`RetrievalGate.*` is the
 *     scripts/ci.sh regression tier).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "coarse_oracle.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "corpus/live_corpus.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "retrieval/coarse.hh"
#include "retrieval/retrieval.hh"
#include "serve/service.hh"

namespace cegma {
namespace {

// ---- WL tag sets ----------------------------------------------------

TEST(WlTags, SortedUniqueAndStable)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 4);
    const Graph &g = corpus.candidates[0];
    std::vector<uint64_t> tags = wlTagSet(g, 2);
    ASSERT_FALSE(tags.empty());
    EXPECT_TRUE(std::is_sorted(tags.begin(), tags.end()));
    EXPECT_EQ(std::adjacent_find(tags.begin(), tags.end()), tags.end());
    EXPECT_EQ(wlTagSet(g, 2), tags); // pure function of the graph
}

TEST(WlTags, CloneKeepsMostTags)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 8, 8);
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
        std::vector<uint64_t> qt = wlTagSet(corpus.queries[q], 1);
        std::vector<uint64_t> ct = wlTagSet(corpus.candidates[q], 1);
        std::vector<uint64_t> common;
        std::set_intersection(qt.begin(), qt.end(), ct.begin(), ct.end(),
                              std::back_inserter(common));
        // A 1-edge substitution disturbs only the touched endpoints'
        // 1-hop neighborhoods; the clone keeps the majority of tags.
        EXPECT_GE(common.size() * 2, qt.size()) << "query " << q;
    }
}

// ---- The live corpus as the cascade's index -------------------------

/**
 * A live corpus bootstrapped with `graphs` under ids 0..n-1 and never
 * mutated, so slot c is graphs[c]. With `model` it stores the
 * descriptors the service would (model-aware when the model
 * decomposes its head, else pooled chains or WL sketches); without,
 * it keeps only the stage-1 postings, for a shortlist budget of 0.
 */
std::unique_ptr<LiveCorpus>
indexedCorpus(std::vector<Graph> graphs, const RetrievalConfig &rc,
              const GmnModel *model = nullptr)
{
    auto corpus = std::make_unique<LiveCorpus>();
    const bool model_aware = model != nullptr && model->coarseDim() > 0;
    LiveCorpus::DescriptorFn descriptor;
    if (model != nullptr) {
        descriptor = [model, model_aware, rc](const Graph &g,
                                              std::vector<float> &out) {
            out = coarse_oracle::descriptorOf(*model, model_aware, g,
                                              rc.tagLevel, rc.sketchDim);
        };
    }
    corpus->enableIndex(rc, model_aware, std::move(descriptor));
    std::vector<uint64_t> ids(graphs.size());
    std::iota(ids.begin(), ids.end(), uint64_t{0});
    corpus->bootstrap(std::move(graphs), std::move(ids));
    return corpus;
}

/** Stage 1 alone: `corpus`'s shortlist at budget 0 and `prune`. */
std::vector<uint32_t>
tagSurvivors(LiveCorpus &corpus, const Graph &query, double prune,
             RetrievalStages *stages = nullptr)
{
    // Budget 0 never builds a coarse scorer, so any model will do.
    static const std::unique_ptr<GmnModel> unused =
        makeModel(ModelId::GraphSim);
    corpus.setQueryKnobs(0, prune);
    return corpus.shortlist(*corpus.pin(), query, *unused, stages);
}

TEST(TagFilter, ThresholdZeroKeepsEveryoneAscending)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 12);
    std::unique_ptr<LiveCorpus> index =
        indexedCorpus(corpus.candidates, RetrievalConfig{});
    EXPECT_GT(index->indexBytes(), 0u);

    RetrievalStages stages;
    std::vector<uint32_t> all =
        tagSurvivors(*index, corpus.queries[0], 0.0, &stages);
    ASSERT_EQ(all.size(), 12u);
    for (uint32_t c = 0; c < 12; ++c)
        EXPECT_EQ(all[c], c);
    EXPECT_EQ(stages.corpus, 12u);
    EXPECT_EQ(stages.survivors, 12u);
    EXPECT_EQ(stages.shortlisted, 12u);
}

TEST(TagFilter, ThresholdPrunesMonotonically)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 4, 32);
    std::unique_ptr<LiveCorpus> index =
        indexedCorpus(corpus.candidates, RetrievalConfig{});
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
        std::vector<uint32_t> loose =
            tagSurvivors(*index, corpus.queries[q], 0.25);
        std::vector<uint32_t> tight =
            tagSurvivors(*index, corpus.queries[q], 0.75);
        EXPECT_TRUE(std::is_sorted(loose.begin(), loose.end()));
        // A stricter threshold can only shrink the survivor set.
        EXPECT_TRUE(std::includes(loose.begin(), loose.end(),
                                  tight.begin(), tight.end()))
            << "query " << q;
        // The planted clone shares most tags, so it survives a loose
        // threshold.
        EXPECT_TRUE(std::binary_search(loose.begin(), loose.end(),
                                       static_cast<uint32_t>(q)))
            << "query " << q;
    }
}

TEST(TagFilter, SelfQuerySurvivesFullOverlap)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 8);
    RetrievalConfig rc;
    rc.tagLevel = 2;
    std::unique_ptr<LiveCorpus> index = indexedCorpus(corpus.candidates, rc);
    for (uint32_t c = 0; c < 8; ++c) {
        std::vector<uint32_t> s =
            tagSurvivors(*index, corpus.candidates[c], 1.0);
        EXPECT_TRUE(std::binary_search(s.begin(), s.end(), c))
            << "candidate " << c;
    }
}

TEST(TagFilter, EmptyCorpusReturnsNothing)
{
    std::unique_ptr<LiveCorpus> index = indexedCorpus({}, RetrievalConfig{});
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 1);
    for (double prune : {0.0, 0.25}) {
        RetrievalStages stages;
        EXPECT_TRUE(
            tagSurvivors(*index, corpus.queries[0], prune, &stages).empty())
            << "prune " << prune;
        EXPECT_EQ(stages.corpus, 0u);
        EXPECT_EQ(stages.survivors, 0u);
    }
}

// ---- Coarse vectors & shortlist -------------------------------------

TEST(Coarse, PooledChainDimensionsForPartnerIndependentModels)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 1);
    for (ModelId id : {ModelId::GraphSim, ModelId::SimGnn}) {
        std::unique_ptr<GmnModel> model = makeModel(id);
        const ModelConfig &mc = modelConfig(id);
        std::vector<float> v =
            coarseVector(corpus.candidates[0], *model, 1, 128);
        EXPECT_EQ(v.size(), (mc.numLayers + 1) * mc.nodeDim)
            << mc.name;
    }
}

TEST(Coarse, SketchFallbackForCrossFeedbackModel)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 1);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::GmnLi);
    EXPECT_EQ(model->graphEmbedding(corpus.candidates[0]), nullptr);
    std::vector<float> v =
        coarseVector(corpus.candidates[0], *model, 1, 96);
    EXPECT_EQ(v.size(), 96u);
    // The sketch is content-keyed: same graph, same sketch.
    EXPECT_EQ(coarseVector(corpus.candidates[0], *model, 1, 96), v);
}

TEST(Coarse, ShortlistIsDeterministicAndBounded)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 4, 24);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::GraphSim);
    RetrievalConfig rc;
    rc.mode = RetrievalMode::Cascade;
    std::unique_ptr<LiveCorpus> index =
        indexedCorpus(corpus.candidates, rc, model.get());
    LiveCorpus::SnapshotPtr snap = index->pin();
    EXPECT_EQ(snap->liveCount(), 24u);

    std::vector<uint32_t> everyone(24);
    std::iota(everyone.begin(), everyone.end(), 0u);
    auto shortlist = [&](size_t budget, const Graph &query) {
        index->setQueryKnobs(budget, 0.0);
        return index->shortlist(*snap, query, *model);
    };
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
        const Graph &query = corpus.queries[q];
        std::vector<uint32_t> top = shortlist(6, query);
        ASSERT_EQ(top.size(), 6u);
        EXPECT_TRUE(std::is_sorted(top.begin(), top.end()));
        EXPECT_EQ(shortlist(6, query), top); // pure
        // C = 0 and C >= N both mean "no cut".
        EXPECT_EQ(shortlist(0, query), everyone);
        EXPECT_EQ(shortlist(24, query), everyone);
        // The clone's base graph is the nearest thing in chain space.
        EXPECT_TRUE(std::binary_search(top.begin(), top.end(),
                                       static_cast<uint32_t>(q)))
            << "query " << q;
    }
}

// ---- Block scorers vs the per-candidate oracle ----------------------

/** Row-major matrix of `rows`: one descriptor block. */
Matrix
stackRows(const std::vector<std::vector<float>> &rows)
{
    Matrix m(rows.size(), rows.empty() ? 0 : rows[0].size());
    for (size_t i = 0; i < rows.size(); ++i)
        std::copy(rows[i].begin(), rows[i].end(), m.row(i));
    return m;
}

TEST(CoarseBlockKeys, BitIdenticalToPerCandidateOracleAtAnyGrouping)
{
    using namespace coarse_oracle;
    constexpr uint32_t kRows = 600; // past one 512-row run
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, kRows);
    const SimdLevel before = simdLevel();
    for (const KeyCase &kc : kKeyCases) {
        SCOPED_TRACE(modelConfig(kc.id).name);
        std::unique_ptr<GmnModel> model = makeModel(kc.id);
        std::vector<std::vector<float>> desc;
        for (const Graph &g : corpus.candidates)
            desc.push_back(descriptorOf(*model, kc.modelAware, g, 1, 128));
        Matrix block = stackRows(desc);
        Matrix norms = rowSquaredNorms(block);
        const CoarseBlock cb{block.data(), norms.data(), block.cols()};
        std::vector<uint32_t> all(kRows);
        for (uint32_t r = 0; r < kRows; ++r)
            all[r] = r;
        // A scattered list: every third row, descending.
        std::vector<uint32_t> scattered;
        for (uint32_t r = kRows; r-- > 0;)
            if (r % 3 == 1)
                scattered.push_back(r);

        for (const Graph &query : corpus.queries) {
            std::unique_ptr<CoarseScorer> scorer =
                makeCoarseScorer(query, *model, kc.modelAware, 1, 128);
            KeyFn oracle =
                keyFnFor(*model, kc.modelAware, query, *scorer, 1, 128);
            std::vector<float> want(kRows);
            for (uint32_t r = 0; r < kRows; ++r)
                want[r] = oracle(block.row(r), norms.at(r, 0));

            for (SimdLevel level : simdLevels()) {
                setSimdLevel(level);
                for (uint32_t threads : {1u, 2u, 8u}) {
                    ThreadPool::instance().setThreads(threads);
                    for (size_t group : {size_t{1}, size_t{7}, size_t{512},
                                         size_t{kRows}}) {
                        std::vector<float> got(kRows);
                        for (size_t i0 = 0; i0 < kRows; i0 += group) {
                            size_t n = std::min(group, kRows - i0);
                            scorer->keys(cb, all.data() + i0, n,
                                         got.data() + i0);
                        }
                        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                              kRows * sizeof(float)),
                                  0)
                            << simdLevelName(level) << " threads "
                            << threads << " group " << group;
                    }
                    std::vector<float> got(scattered.size());
                    scorer->keys(cb, scattered.data(), scattered.size(),
                                 got.data());
                    for (size_t i = 0; i < scattered.size(); ++i)
                        ASSERT_EQ(std::memcmp(&got[i], &want[scattered[i]],
                                              sizeof(float)),
                                  0)
                            << simdLevelName(level) << " threads "
                            << threads << " row " << scattered[i];
                }
            }
        }
    }
    setSimdLevel(before);
    ThreadPool::instance().setThreads(0);
}

// ---- Stages 1–2 composed --------------------------------------------

TEST(LiveShortlist, ChainDistanceShortlistFindsPlantedClone)
{
    // GraphSim has no model-aware coarse head, so the corpus ranks by
    // pooled-chain distance — where a 1-edge clone is the nearest
    // corpus graph by construction.
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 6, 48);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::GraphSim);
    EXPECT_EQ(model->coarseDim(), 0u);
    EXPECT_EQ(model->coarseScorer(corpus.queries[0]), nullptr);

    RetrievalConfig config;
    config.mode = RetrievalMode::Cascade;
    config.shortlist = 8;
    config.tagPrune = 0.25;
    std::unique_ptr<LiveCorpus> index =
        indexedCorpus(corpus.candidates, config, model.get());
    EXPECT_GT(index->indexBytes(), 0u);
    LiveCorpus::SnapshotPtr snap = index->pin();

    for (size_t q = 0; q < corpus.queries.size(); ++q) {
        RetrievalStages stages;
        std::vector<uint32_t> list =
            index->shortlist(*snap, corpus.queries[q], *model, &stages);
        EXPECT_LE(list.size(), 8u);
        EXPECT_EQ(stages.corpus, 48u);
        EXPECT_GE(stages.survivors, stages.shortlisted);
        EXPECT_EQ(stages.shortlisted, list.size());
        EXPECT_TRUE(std::binary_search(list.begin(), list.end(),
                                       static_cast<uint32_t>(q)))
            << "query " << q << " lost its planted clone";
    }
}

TEST(LiveShortlist, ModelAwareShortlistTracksExactRanking)
{
    // SimGNN decomposes its head, so the corpus stores model
    // descriptors and ranks with the query-conditioned scorer — whose
    // whole point is agreeing with the *exact score* ranking, clone or
    // not.
    constexpr uint32_t kCandidates = 64;
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 4, kCandidates);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn);
    EXPECT_GT(model->coarseDim(), 0u);

    RetrievalConfig config;
    config.mode = RetrievalMode::Cascade;
    config.shortlist = 16;
    std::unique_ptr<LiveCorpus> index =
        indexedCorpus(corpus.candidates, config, model.get());
    LiveCorpus::SnapshotPtr snap = index->pin();

    for (size_t q = 0; q < corpus.queries.size(); ++q) {
        const Graph &query = corpus.queries[q];
        std::vector<uint32_t> list = index->shortlist(*snap, query, *model);
        ASSERT_EQ(list.size(), 16u);
        EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
        EXPECT_EQ(index->shortlist(*snap, query, *model), list); // pure

        // The shortlist must reach the exact-score maximum: on a
        // 64-graph corpus, a 16-deep model-aware shortlist containing
        // *a* top-scoring candidate (ties at the exact maximum all
        // count) is the minimum bar for "tracks the exact ranking".
        double best = -1.0;
        for (uint32_t c = 0; c < kCandidates; ++c)
            best = std::max(best,
                            model->score(GraphPairView(
                                corpus.candidates[c], query)));
        double best_in_list = -1.0;
        for (uint32_t c : list)
            best_in_list = std::max(
                best_in_list,
                model->score(GraphPairView(corpus.candidates[c], query)));
        EXPECT_EQ(best_in_list, best)
            << "query " << q << " shortlist missed every exact-best";
    }
}

/**
 * A model-aware SimGNN corpus of zero or one graph: within the
 * shortlist budget every survivor comes back, and no scorer is built
 * (building one embeds the query, a memo lookup).
 */
TEST(LiveShortlist, TinyCorporaReturnEverySurvivorWithoutAScorer)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(DatasetId::AIDS, 2, 1);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn);
    MemoCache memo;
    InferenceOptions infer;
    infer.memo = &memo;
    model->setInferenceOptions(infer);
    for (uint32_t n : {0u, 1u}) {
        SCOPED_TRACE(testing::Message() << "corpus " << n);
        RetrievalConfig config;
        config.mode = RetrievalMode::Cascade;
        config.shortlist = 16;
        std::unique_ptr<LiveCorpus> index = indexedCorpus(
            std::vector<Graph>(corpus.candidates.begin(),
                               corpus.candidates.begin() + n),
            config, model.get());
        LiveCorpus::SnapshotPtr snap = index->pin();
        std::vector<uint32_t> everyone(n);
        std::iota(everyone.begin(), everyone.end(), 0u);
        for (const Graph &query : corpus.queries) {
            const size_t lookups = memo.embeddingLookups();
            RetrievalStages stages;
            EXPECT_EQ(index->shortlist(*snap, query, *model, &stages),
                      everyone);
            EXPECT_EQ(stages.survivors, n);
            EXPECT_EQ(stages.shortlisted, n);
            EXPECT_EQ(memo.embeddingLookups(), lookups);
        }
    }
}

// ---- Cascade SearchService ------------------------------------------

/** All per-candidate score vectors of `service`, query-major. */
std::vector<std::vector<double>>
serviceScores(SearchService &service, const std::vector<Graph> &queries)
{
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(queries.size());
    for (const Graph &query : queries)
        futures.push_back(service.submit(query));
    std::vector<std::vector<double>> scores;
    scores.reserve(queries.size());
    for (auto &future : futures)
        scores.push_back(future.get().scores);
    return scores;
}

TEST(CascadeService, VerifiedScoresBitIdenticalToExhaustive)
{
    constexpr uint32_t kQueries = 6;
    constexpr uint32_t kCandidates = 40;
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, kQueries, kCandidates);

    // The exhaustive oracle, once.
    ThreadPool::instance().setThreads(1);
    ServeConfig exhaustive;
    exhaustive.model = ModelId::SimGnn;
    exhaustive.flushMicros = 200;
    SearchService oracle(exhaustive, corpus.candidates);
    std::vector<std::vector<double>> reference =
        serviceScores(oracle, corpus.queries);
    oracle.shutdown();

    // Both services score with per-query terms, so the exhaustive one
    // is checked against a serial model with no memo, no dedup and no
    // terms first.
    std::unique_ptr<GmnModel> plain =
        makeModel(exhaustive.model, exhaustive.modelSeed);
    for (uint32_t q = 0; q < kQueries; ++q) {
        ASSERT_EQ(reference[q].size(), kCandidates);
        for (uint32_t c = 0; c < kCandidates; ++c) {
            const double want = plain->forwardDetailed(GraphPairView(
                corpus.candidates[c], corpus.queries[q])).score;
            EXPECT_EQ(std::memcmp(&reference[q][c], &want, sizeof want), 0)
                << "q=" << q << " c=" << c;
        }
    }

    for (uint32_t threads : {1u, 2u, 8u}) {
        for (uint32_t batch : {1u, 4u}) {
            ThreadPool::instance().setThreads(threads);
            ServeConfig config = exhaustive;
            config.maxBatch = batch;
            config.retrieval.mode = RetrievalMode::Cascade;
            config.retrieval.shortlist = 10;
            config.retrieval.tagPrune = 0.25;
            SearchService service(config, corpus.candidates);
            std::vector<std::vector<double>> cascade =
                serviceScores(service, corpus.queries);
            service.shutdown();

            size_t verified = 0;
            for (uint32_t q = 0; q < kQueries; ++q) {
                ASSERT_EQ(cascade[q].size(), kCandidates);
                for (uint32_t c = 0; c < kCandidates; ++c) {
                    if (std::isnan(cascade[q][c]))
                        continue;
                    ++verified;
                    // Bit-identity: the cascade changes WHICH pairs
                    // are scored, never HOW.
                    EXPECT_EQ(cascade[q][c], reference[q][c])
                        << "threads=" << threads << " batch=" << batch
                        << " q=" << q << " c=" << c;
                }
            }
            EXPECT_GT(verified, 0u);
            EXPECT_LT(verified,
                      static_cast<size_t>(kQueries) * kCandidates)
                << "cascade pruned nothing";
        }
    }
    ThreadPool::instance().setThreads(0);
}

TEST(CascadeService, TopKRanksOnlyVerifiedCandidates)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, 30);
    ServeConfig config;
    config.model = ModelId::SimGnn;
    config.flushMicros = 200;
    config.topK = 10;
    config.retrieval.mode = RetrievalMode::Cascade;
    config.retrieval.shortlist = 5;
    config.retrieval.tagPrune = 0.25;
    SearchService service(config, corpus.candidates);
    for (const Graph &query : corpus.queries) {
        QueryResult result = service.submit(query).get();
        // At most `shortlist` candidates were verified, so at most
        // that many hits exist — never NaN-backed ones.
        EXPECT_LE(result.topK.size(), 5u);
        ASSERT_FALSE(result.topK.empty());
        for (const SearchHit &hit : result.topK) {
            EXPECT_FALSE(std::isnan(hit.score));
            EXPECT_EQ(hit.score, result.scores[hit.candidate]);
        }
        for (size_t i = 0; i + 1 < result.topK.size(); ++i)
            EXPECT_GE(result.topK[i].score, result.topK[i + 1].score);
    }
    service.shutdown();
    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.retrievalCandidates, 3u * 30u);
    EXPECT_LE(snap.retrievalVerified, 3u * 5u);
    EXPECT_GT(snap.retrievalPruneRatio, 0.0);
    EXPECT_GT(snap.retrievalFilterPruneRatio, 0.0);
}

/** `got` and `want` hold the same hits, in order, scores bitwise. */
void
expectSameHits(const std::vector<SearchHit> &got,
               const std::vector<SearchHit> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].candidate, want[i].candidate) << "rank " << i;
        EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score,
                              sizeof(double)),
                  0)
            << "rank " << i;
    }
}

TEST(CascadeService, ExhaustiveModeVerifiesEverything)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 5);
    ServeConfig config;
    config.model = ModelId::SimGnn;
    config.flushMicros = 200;
    config.topK = 3;
    SearchService service(config, corpus.candidates);
    for (const Graph &query : corpus.queries) {
        QueryResult result = service.submit(query).get();
        ASSERT_EQ(result.scores.size(), 5u);
        for (double s : result.scores)
            EXPECT_FALSE(std::isnan(s));
        // Exhaustive mode ranks every position through the verified
        // (position, score) head: with no NaN that is exactly the
        // dense ranking.
        expectSameHits(result.topK, topKHits(result.scores, config.topK));
    }
    service.shutdown();
    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.retrievalCandidates, 2u * 5u);
    EXPECT_EQ(snap.retrievalSurvivors, 2u * 5u);
    EXPECT_EQ(snap.retrievalVerified, 2u * 5u);
    EXPECT_EQ(snap.retrievalPruneRatio, 0.0);
}

TEST(CascadeService, StageCountersReachRegistryExports)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 20);
    ServeConfig config;
    config.model = ModelId::SimGnn;
    config.flushMicros = 200;
    config.retrieval.mode = RetrievalMode::Cascade;
    config.retrieval.shortlist = 4;
    SearchService service(config, corpus.candidates);
    for (const Graph &query : corpus.queries)
        service.submit(query).get();
    service.shutdown();

    // Both exposition paths carry the stage counters: the snapshot
    // JSON (cegma_serve --json) and the registry (--prom).
    std::string json = service.metrics().toJson();
    EXPECT_NE(json.find("\"retrieval_candidates\": 40"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("retrieval_prune_ratio"), std::string::npos);
    std::string prom = service.registry().snapshot().toPrometheus();
    EXPECT_NE(prom.find("serve_retrieval_candidates"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("serve_retrieval_verified"), std::string::npos);
    EXPECT_NE(prom.find("serve_retrieval_index_bytes"),
              std::string::npos);
}

/**
 * Every registry name the serving benchmark (perfbench/servebench.cc)
 * reads exists after a batch in either retrieval mode: a missing name
 * turns its per-layer values into nulls even when the run succeeds.
 */
TEST(CascadeService, BenchmarkRegistryNamesExistInBothModes)
{
    const char *const kNames[] = {
        "serve.batches",
        "serve.requests.completed",
        "serve.pipeline.batches",
        "serve.pipeline.embed_busy_us",
        "serve.pipeline.match_busy_us",
        "serve.pipeline.head_busy_us",
        "serve.pipeline.queue_wait_us",
        "serve.pipeline.overlap_us",
        "serve.retrieval.survivors",
        "serve.retrieval.verified",
        "serve.retrieval.index_bytes",
        "serve.corpus.epoch",
        "serve.corpus.epochs_reclaimed",
        "serve.corpus.compactions",
        "serve.dedup.rows_total",
        "serve.dedup.rows_unique",
    };
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 20);
    for (RetrievalMode mode :
         {RetrievalMode::Exhaustive, RetrievalMode::Cascade}) {
        SCOPED_TRACE(retrievalModeName(mode));
        ServeConfig config;
        config.model = ModelId::SimGnn;
        config.flushMicros = 200;
        config.retrieval.mode = mode;
        config.retrieval.shortlist = 4;
        SearchService service(config, corpus.candidates);
        for (const Graph &query : corpus.queries)
            service.submit(query).get();
        std::set<std::string> names;
        for (const obs::MetricValue &m :
             service.registry().snapshot().metrics)
            names.insert(m.name);
        for (const char *name : kNames)
            EXPECT_EQ(names.count(name), 1u) << name;
        service.shutdown();
    }
}

TEST(CascadeService, CascadeOnEmptyCorpusIsEmpty)
{
    ServeConfig config;
    config.flushMicros = 200;
    config.retrieval.mode = RetrievalMode::Cascade;
    SearchService service(config, {});
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 1);
    QueryResult result = service.submit(corpus.queries[0]).get();
    EXPECT_TRUE(result.scores.empty());
    EXPECT_TRUE(result.topK.empty());
}

// ---- Window-scheduler visibility (satellite of the CGC port) --------

TEST(WindowMetrics, TotalsAccumulateAndReachServiceExports)
{
    WindowSchedStats before = windowSchedTotals();
    Matrix x(64, 32), y(48, 32);
    for (size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(i % 7) * 0.25f;
    for (size_t i = 0; i < y.size(); ++i)
        y.data()[i] = static_cast<float>(i % 5) * 0.5f;
    WindowSchedConfig small;
    small.cacheBytes = 16 << 10; // force several windows
    similarityMatrixWindowed(x, y, SimilarityKind::Cosine, small);
    WindowSchedStats after = windowSchedTotals();
    EXPECT_GT(after.windows, before.windows);
    EXPECT_GE(after.xTileLoads, before.xTileLoads + 1);
    EXPECT_GE(after.yTileLoads, before.yTileLoads + 1);

    // A service constructed NOW must report only its own lifetime's
    // window activity (rebased totals), and expose it in both formats.
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 2);
    ServeConfig config;
    config.flushMicros = 200;
    SearchService service(config, corpus.candidates);
    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.windowWindows, 0u)
        << "pre-construction windows leaked into the service metrics";
    std::string json = snap.toJson();
    EXPECT_NE(json.find("window_windows"), std::string::npos);
    EXPECT_NE(json.find("window_slides"), std::string::npos);
    std::string prom = service.registry().snapshot().toPrometheus();
    EXPECT_NE(prom.find("serve_window_windows"), std::string::npos);
    EXPECT_NE(prom.find("serve_window_x_tile_loads"),
              std::string::npos);

    // Window activity during the service's lifetime shows up.
    similarityMatrixWindowed(x, y, SimilarityKind::Cosine, small);
    MetricsSnapshot snap2 = service.metrics();
    EXPECT_GT(snap2.windowWindows, 0u);
    service.shutdown();
}

// ---- The CI recall gate ---------------------------------------------

/**
 * The fast regression gate scripts/ci.sh runs at 10^4 candidates
 * (CEGMA_RETRIEVAL_CI_CANDIDATES=10000): cascade recall@10 against the
 * exhaustive oracle must stay >= 0.99. The plain ctest run uses a
 * 2000-candidate corpus to stay fast; the full 10^5 sweep lives in
 * `bench_to_json --retrieval` only.
 *
 * Recall is tie-aware, the standard treatment when ground truth has
 * score ties: a cascade top-10 slot counts as a hit when its exact
 * score is >= the oracle's 10th-best score. Under an untrained model
 * many candidates tie bit-exactly at the score ceiling, where *any*
 * top-scoring subset is equally correct and id-matching would reject
 * correct answers at random. Cascade scores are bit-identical to
 * exhaustive for every verified pair (proven above), so comparing
 * scores across the two services is exact.
 */
TEST(RetrievalGate, CascadeRecallAtLeast99Percent)
{
    uint32_t num_candidates = 2000;
    if (const char *env = std::getenv("CEGMA_RETRIEVAL_CI_CANDIDATES");
        env != nullptr && *env != '\0') {
        num_candidates = static_cast<uint32_t>(std::stoul(env));
    }
    const uint32_t num_queries = 24;
    const uint32_t k = 10;
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, num_queries, num_candidates);

    ServeConfig base;
    base.model = ModelId::SimGnn;
    base.maxBatch = num_queries;
    base.topK = k;

    ServeConfig cascade = base;
    cascade.retrieval.mode = RetrievalMode::Cascade;
    cascade.retrieval.shortlist = 256;
    cascade.retrieval.tagPrune = 0.0;

    // The oracle's 10th-best exact score per query.
    std::vector<double> threshold(num_queries);
    {
        SearchService oracle(base, corpus.candidates);
        std::vector<std::future<QueryResult>> futures;
        for (const Graph &query : corpus.queries)
            futures.push_back(oracle.submit(query));
        for (uint32_t q = 0; q < num_queries; ++q) {
            QueryResult result = futures[q].get();
            ASSERT_EQ(result.topK.size(), k);
            threshold[q] = result.topK.back().score;
        }
    }

    size_t hit = 0, want = 0;
    {
        SearchService service(cascade, corpus.candidates);
        std::vector<std::future<QueryResult>> futures;
        for (const Graph &query : corpus.queries)
            futures.push_back(service.submit(query));
        for (uint32_t q = 0; q < num_queries; ++q) {
            QueryResult result = futures[q].get();
            want += k;
            size_t counted = 0;
            for (const SearchHit &h : result.topK) {
                if (counted == k)
                    break;
                if (h.score >= threshold[q]) {
                    ++hit;
                    ++counted;
                }
            }
        }
    }

    ASSERT_GT(want, 0u);
    double recall =
        static_cast<double>(hit) / static_cast<double>(want);
    EXPECT_GE(recall, 0.99)
        << "recall@" << k << " over " << num_queries << " queries x "
        << num_candidates << " candidates: " << recall;
}

} // namespace
} // namespace cegma
