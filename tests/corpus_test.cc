/**
 * @file
 * The live-corpus subsystem's proof obligations:
 *   - dataset loaders hand out stable 64-bit ids: unique, disjoint
 *     between corpus and mutation pool, and prefix-stable as the
 *     corpus grows (candidate c keeps its id at any corpus size);
 *   - epoch/snapshot semantics: staged inserts are invisible until
 *     flush, pinned snapshots keep seeing entries removed in later
 *     epochs, retired epochs are reclaimed once unpinned, and
 *     compaction can never change what a pinned snapshot reads;
 *   - `shortlist` is a pure function of the snapshot's view — same
 *     slots at any thread count, and a fresh corpus bootstrapped with
 *     an epoch's live set reproduces the live corpus's shortlist;
 *   - chunked descriptor blocks: at corpus sizes 0, 1, 511, 512, 513
 *     and 1500, with compacted slots, tombstones a pinned snapshot
 *     still sees and staged-but-unpublished inserts, every key is
 *     bitwise the per-candidate oracle's (tests/coarse_oracle.hh),
 *     every shortlist — unpruned and tag-pruned, for SimGNN, GraphSim
 *     chains and GMN-Li sketches, at threads 1/2/8 x scalar/AVX2 —
 *     is the oracle's selection, each chunk is keyed by one scorer
 *     call, and a freshly bootstrapped corpus shortlists the same
 *     stable ids;
 *   - `ShardedLruCache::erase`/`eraseIf` (shards 1 and 16) and
 *     `MemoCache::invalidate` remove exactly the keyed entries;
 *   - `planMutations`/`liveIdsByEpoch` replay: the offline oracle's
 *     per-epoch id lists equal `CorpusSnapshot::liveIds()` of the
 *     corpus that actually applied the plan;
 *   - storm tests: snapshots pinned while a mutator races always read
 *     exactly one epoch's corpus, and shortlists over a chunk's
 *     published rows never read the rows an insert is writing past
 *     the bound (the TSan tier runs these with race detection on);
 *   - the `LiveGate.*` CI tier: a seeded interleaved mutation+query
 *     workload at 8 threads returns, for every request, the pinned
 *     epoch's exact id list and scores bit-identical to a serial
 *     oracle model over that epoch's corpus — in exhaustive mode and
 *     in cascade mode (vs an offline rebuilt index) — with
 *     `corpus.epochs_reclaimed` > 0 by the end of the run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "coarse_oracle.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/sharded_lru.hh"
#include "common/simd.hh"
#include "corpus/live_corpus.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "graph/dataset.hh"
#include "graph/generators.hh"
#include "retrieval/coarse.hh"
#include "serve/loadgen.hh"
#include "serve/service.hh"

namespace cegma {
namespace {

/** id -> graph over bootstrap candidates plus the mutation pool. */
std::map<uint64_t, const Graph *>
graphById(const CloneSearchCorpus &corpus, const MutationPool &pool)
{
    std::map<uint64_t, const Graph *> by_id;
    for (size_t i = 0; i < corpus.candidates.size(); ++i)
        by_id[corpus.candidateIds[i]] = &corpus.candidates[i];
    for (size_t i = 0; i < pool.graphs.size(); ++i)
        by_id[pool.ids[i]] = &pool.graphs[i];
    return by_id;
}

/** Structural equality (CSR bits) of two graphs. */
bool sameGraph(const Graph &a, const Graph &b)
{
    if (a.numNodes() != b.numNodes() || a.numArcs() != b.numArcs())
        return false;
    if (a.labels() != b.labels())
        return false;
    for (NodeId v = 0; v < a.numNodes(); ++v) {
        auto na = a.neighbors(v);
        auto nb = b.neighbors(v);
        if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
            return false;
    }
    return true;
}

// ---- stable ids -----------------------------------------------------

TEST(StableIds, UniqueAndPrefixStableAcrossCorpusGrowth)
{
    CloneSearchCorpus small = makeCloneSearchCorpus(DatasetId::AIDS, 2, 8);
    CloneSearchCorpus big = makeCloneSearchCorpus(DatasetId::AIDS, 2, 16);
    ASSERT_EQ(small.candidateIds.size(), 8u);
    ASSERT_EQ(big.candidateIds.size(), 16u);

    // Growing the corpus must not renumber existing candidates.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(small.candidateIds[i], big.candidateIds[i])
            << "candidate " << i << " changed id when the corpus grew";

    std::set<uint64_t> ids(big.candidateIds.begin(),
                           big.candidateIds.end());
    EXPECT_EQ(ids.size(), big.candidateIds.size());

    // Same candidate graphs bit for bit regardless of corpus size.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_TRUE(sameGraph(small.candidates[i], big.candidates[i]));
}

TEST(StableIds, MutationPoolIdsDisjointFromCorpus)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 32);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 32);
    ASSERT_EQ(pool.graphs.size(), 32u);
    ASSERT_EQ(pool.ids.size(), 32u);

    std::set<uint64_t> ids(corpus.candidateIds.begin(),
                           corpus.candidateIds.end());
    for (uint64_t id : pool.ids)
        EXPECT_TRUE(ids.insert(id).second)
            << "pool id collides with corpus or another pool id";

    // Pure function of (dataset, count, seed).
    MutationPool again = makeMutationPool(DatasetId::AIDS, 32);
    EXPECT_EQ(again.ids, pool.ids);
}

// ---- epoch/snapshot semantics ---------------------------------------

TEST(LiveCorpusTest, StagedInsertInvisibleUntilFlush)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 4);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 1);

    LiveCorpus corpus;
    corpus.bootstrap(data.candidates, data.candidateIds);
    EXPECT_EQ(corpus.epoch(), 0u);
    EXPECT_EQ(corpus.liveCount(), 4u);

    LiveCorpus::SnapshotPtr before = corpus.pin();
    EXPECT_TRUE(corpus.insert(pool.ids[0], pool.graphs[0]));
    // Staged but unflushed: invisible even to a *new* pin.
    EXPECT_EQ(corpus.pin()->liveCount(), 4u);
    EXPECT_EQ(before->liveCount(), 4u);

    EXPECT_EQ(corpus.flush(), 1u);
    EXPECT_EQ(before->liveCount(), 4u); // pinned epoch unchanged
    LiveCorpus::SnapshotPtr after = corpus.pin();
    EXPECT_EQ(after->epoch(), 1u);
    EXPECT_EQ(after->liveCount(), 5u);

    // Slot order: bootstrap order, inserts appended.
    std::vector<uint64_t> expect = data.candidateIds;
    expect.push_back(pool.ids[0]);
    EXPECT_EQ(after->liveIds(), expect);
    EXPECT_EQ(before->liveIds(), data.candidateIds);
}

TEST(LiveCorpusTest, PinnedSnapshotOutlivesRemoval)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 4);
    LiveCorpus corpus;
    corpus.bootstrap(data.candidates, data.candidateIds);

    LiveCorpus::SnapshotPtr pinned = corpus.pin();
    EXPECT_TRUE(corpus.remove(data.candidateIds[1]));
    EXPECT_FALSE(corpus.remove(data.candidateIds[1])); // already staged
    EXPECT_FALSE(corpus.remove(0xdeadbeefull));        // unknown id
    corpus.flush();

    // The pinned epoch still sees the removed entry, bit for bit.
    EXPECT_EQ(pinned->liveCount(), 4u);
    ASSERT_TRUE(pinned->visible(1));
    EXPECT_TRUE(sameGraph(pinned->graph(1), data.candidates[1]));
    EXPECT_EQ(pinned->id(1), data.candidateIds[1]);

    // A fresh pin does not.
    LiveCorpus::SnapshotPtr now = corpus.pin();
    EXPECT_EQ(now->liveCount(), 3u);
    EXPECT_FALSE(now->visible(1));
    std::vector<uint64_t> expect = {data.candidateIds[0],
                                    data.candidateIds[2],
                                    data.candidateIds[3]};
    EXPECT_EQ(now->liveIds(), expect);

    // The id is free again: re-insert under the same stable id.
    EXPECT_TRUE(corpus.insert(data.candidateIds[1], data.candidates[1]));
    corpus.flush();
    LiveCorpus::SnapshotPtr readded = corpus.pin();
    EXPECT_EQ(readded->liveCount(), 4u);
    expect.push_back(data.candidateIds[1]); // appended, not slot 1
    EXPECT_EQ(readded->liveIds(), expect);
}

TEST(LiveCorpusTest, DuplicateInsertRefused)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 2);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 1);
    LiveCorpus corpus;
    corpus.bootstrap(data.candidates, data.candidateIds);

    EXPECT_FALSE(corpus.insert(data.candidateIds[0], pool.graphs[0]));
    EXPECT_TRUE(corpus.insert(pool.ids[0], pool.graphs[0]));
    // Staged ids are reserved too.
    EXPECT_FALSE(corpus.insert(pool.ids[0], pool.graphs[0]));
    EXPECT_EQ(corpus.inserts(), 1u);
}

TEST(LiveCorpusTest, SlotCapRefusesInsert)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 4);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 5);
    MutationConfig config;
    // The directory is sized max(maxSlots, 2 * bootstrap) = 8 slots:
    // bootstrap 4 + room for exactly four inserts.
    config.maxSlots = 5;
    LiveCorpus corpus(config);
    corpus.bootstrap(data.candidates, data.candidateIds);

    for (size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(corpus.insert(pool.ids[i], pool.graphs[i]));
    EXPECT_FALSE(corpus.insert(pool.ids[4], pool.graphs[4]));
    corpus.flush();
    // Slots are append-only: removal frees no slot numbers.
    corpus.remove(pool.ids[0]);
    corpus.flush();
    EXPECT_FALSE(corpus.insert(pool.ids[4], pool.graphs[4]));
}

TEST(LiveCorpusTest, EpochReclaimedOnlyAfterUnpin)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 4);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 4);
    LiveCorpus corpus;
    corpus.bootstrap(data.candidates, data.candidateIds);

    LiveCorpus::SnapshotPtr pinned = corpus.pin(); // pins epoch 0
    corpus.insert(pool.ids[0], pool.graphs[0]);
    corpus.flush();
    EXPECT_EQ(corpus.epochsReclaimed(), 0u); // epoch 0 still pinned

    pinned.reset(); // unpin
    corpus.insert(pool.ids[1], pool.graphs[1]);
    corpus.flush();
    EXPECT_GT(corpus.epochsReclaimed(), 0u);
}

TEST(LiveCorpusTest, CompactionNeverChangesAPinnedSnapshot)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 8);
    MutationConfig config;
    config.compactTombstoneRatio = 0.0; // compact at every flush
    LiveCorpus corpus(config);
    corpus.bootstrap(data.candidates, data.candidateIds);

    LiveCorpus::SnapshotPtr pinned = corpus.pin();
    corpus.remove(data.candidateIds[2]);
    corpus.flush();

    // Slot 2 died in epoch 1 > pinned epoch 0: compaction must retain
    // its payload as long as the pin lives.
    ASSERT_TRUE(pinned->visible(2));
    EXPECT_TRUE(sameGraph(pinned->graph(2), data.candidates[2]));
    std::vector<uint64_t> ids_before = pinned->liveIds();

    corpus.remove(data.candidateIds[5]);
    corpus.flush();
    EXPECT_TRUE(sameGraph(pinned->graph(2), data.candidates[2]));
    EXPECT_TRUE(sameGraph(pinned->graph(5), data.candidates[5]));
    EXPECT_EQ(pinned->liveIds(), ids_before);

    // Once the pin is gone, the eager ratio actually reclaims.
    pinned.reset();
    corpus.remove(data.candidateIds[7]);
    corpus.flush();
    EXPECT_GT(corpus.compactions(), 0u);
    EXPECT_EQ(corpus.pin()->liveCount(), 5u);
}

// ---- shortlist determinism ------------------------------------------

TEST(LiveCorpusTest, ShortlistPureFunctionOfSnapshot)
{
    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 4, 64);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 8);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn);
    ASSERT_GT(model->coarseDim(), 0u);

    RetrievalConfig rc;
    rc.mode = RetrievalMode::Cascade;
    rc.shortlist = 12;
    auto descriptor = [&model](const Graph &g, std::vector<float> &out) {
        out.resize(model->coarseDim());
        model->coarseDescriptor(g, out.data());
    };

    LiveCorpus corpus;
    corpus.enableIndex(rc, true, descriptor);
    corpus.bootstrap(data.candidates, data.candidateIds);
    for (size_t i = 0; i < pool.graphs.size(); ++i)
        corpus.insert(pool.ids[i], pool.graphs[i]);
    corpus.remove(data.candidateIds[3]);
    corpus.remove(data.candidateIds[40]);
    corpus.flush();

    LiveCorpus::SnapshotPtr snap = corpus.pin();
    ThreadPool &tp = ThreadPool::instance();
    std::vector<uint32_t> at_one, at_eight;
    tp.setThreads(1);
    at_one = corpus.shortlist(*snap, data.queries[0], *model);
    tp.setThreads(8);
    at_eight = corpus.shortlist(*snap, data.queries[0], *model);
    tp.setThreads(0);
    EXPECT_EQ(at_one, at_eight);
    EXPECT_TRUE(std::is_sorted(at_one.begin(), at_one.end()));
    EXPECT_LE(at_one.size(), rc.shortlist);
    for (uint32_t s : at_one)
        EXPECT_TRUE(snap->visible(s));

    // Offline replay: a fresh corpus bootstrapped with this epoch's
    // live set shortlists the same graphs (compared by stable id —
    // slot numbers differ because the replay has no tombstones).
    std::map<uint64_t, const Graph *> by_id = graphById(data, pool);
    std::vector<uint64_t> live_ids = snap->liveIds();
    std::vector<Graph> live_graphs;
    for (uint64_t id : live_ids)
        live_graphs.push_back(*by_id.at(id));

    LiveCorpus replay;
    replay.enableIndex(rc, true, descriptor);
    replay.bootstrap(std::move(live_graphs), live_ids);
    LiveCorpus::SnapshotPtr rsnap = replay.pin();
    std::vector<uint32_t> offline =
        replay.shortlist(*rsnap, data.queries[0], *model);

    std::vector<uint64_t> live_picked, offline_picked;
    for (uint32_t s : at_one)
        live_picked.push_back(snap->id(s));
    for (uint32_t s : offline)
        offline_picked.push_back(rsnap->id(s));
    EXPECT_EQ(live_picked, offline_picked);
}

// ---- chunked descriptor blocks --------------------------------------

/** Number of 512-slot chunks `slots` (ascending) fall into. */
size_t
chunksSpanned(const std::vector<uint32_t> &slots)
{
    std::set<uint32_t> chunks;
    for (uint32_t s : slots)
        chunks.insert(s >> 9);
    return chunks.size();
}

/** Stage-1 oracle: visible slots sharing >= ceil(prune*|qtags|) tags. */
std::vector<uint32_t>
tagSurvivors(const CorpusSnapshot &snap, const Graph &query,
             unsigned level, double prune)
{
    std::vector<uint64_t> qt = wlTagSet(query, level);
    auto needed = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(prune * static_cast<double>(qt.size()))));
    std::vector<uint32_t> out;
    for (uint32_t s : snap.liveSlots()) {
        std::vector<uint64_t> gt = wlTagSet(snap.graph(s), level);
        std::vector<uint64_t> common;
        std::set_intersection(qt.begin(), qt.end(), gt.begin(), gt.end(),
                              std::back_inserter(common));
        if (common.size() >= needed)
            out.push_back(s);
    }
    return out;
}

TEST(LiveCorpusBlocks, ShortlistsMatchOracleAcrossChunkBoundaries)
{
    using namespace coarse_oracle;
    constexpr uint32_t kMax = 1500;
    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, kMax);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 6);
    std::map<uint64_t, const Graph *> by_id = graphById(data, pool);

    RetrievalConfig rc;
    rc.mode = RetrievalMode::Cascade;
    rc.shortlist = 16;
    MutationConfig mc;
    mc.compactTombstoneRatio = 0.0; // compact at every flush
    const SimdLevel before = simdLevel();
    ThreadPool &tp = ThreadPool::instance();

    for (const KeyCase &kc : kKeyCases) {
        SCOPED_TRACE(modelConfig(kc.id).name);
        std::unique_ptr<GmnModel> model = makeModel(kc.id);
        MemoCache memo; // the corpora below re-embed the same graphs
        InferenceOptions infer;
        infer.memo = &memo;
        model->setInferenceOptions(infer);
        auto descriptor = [&](const Graph &g, std::vector<float> &out) {
            out = descriptorOf(*model, kc.modelAware, g, rc.tagLevel,
                               rc.sketchDim);
        };
        // What each stable id's row must hold.
        std::map<uint64_t, std::vector<float>> want_row;
        for (const auto &[id, g] : by_id)
            descriptor(*g, want_row[id]);

        for (uint32_t n : {0u, 1u, 511u, 512u, 513u, kMax}) {
            SCOPED_TRACE(testing::Message() << "corpus " << n);
            const std::vector<uint64_t> &ids = data.candidateIds;
            LiveCorpus corpus(mc);
            corpus.enableIndex(rc, kc.modelAware, descriptor);
            corpus.bootstrap(
                std::vector<Graph>(data.candidates.begin(),
                                   data.candidates.begin() + n),
                std::vector<uint64_t>(ids.begin(), ids.begin() + n));
            LiveCorpus::SnapshotPtr old;
            if (n >= 4) {
                // Compacted slots: removed, then reclaimed (unpinned).
                ASSERT_TRUE(corpus.remove(ids[1]));
                ASSERT_TRUE(corpus.remove(ids[n / 2]));
                corpus.flush();
                EXPECT_GT(corpus.compactions(), 0u);
                ASSERT_TRUE(corpus.insert(pool.ids[0], pool.graphs[0]));
                ASSERT_TRUE(corpus.insert(pool.ids[1], pool.graphs[1]));
                corpus.flush();
                // A tombstone `old` keeps visible, so not reclaimed.
                old = corpus.pin();
                ASSERT_TRUE(corpus.remove(ids[n - 1]));
                ASSERT_TRUE(corpus.insert(pool.ids[2], pool.graphs[2]));
                corpus.flush();
            }
            // Staged, unpublished inserts: rows past every bound.
            for (size_t i = 3; i < pool.graphs.size(); ++i)
                ASSERT_TRUE(corpus.insert(pool.ids[i], pool.graphs[i]));
            LiveCorpus::SnapshotPtr snap = corpus.pin();
            ASSERT_EQ(snap->liveCount(), n);

            // Offline replay of the current view: a fresh corpus
            // bootstrapped with its live set, compared by stable id.
            std::vector<uint64_t> live_ids = snap->liveIds();
            std::vector<Graph> live_graphs;
            for (uint64_t id : live_ids)
                live_graphs.push_back(*by_id.at(id));
            LiveCorpus fresh(mc);
            fresh.enableIndex(rc, kc.modelAware, descriptor);
            fresh.bootstrap(std::move(live_graphs), live_ids);
            LiveCorpus::SnapshotPtr fsnap = fresh.pin();

            std::vector<const CorpusSnapshot *> views = {snap.get()};
            if (old)
                views.push_back(old.get());
            for (const Graph &query : data.queries) {
                std::unique_ptr<CoarseScorer> scorer = makeCoarseScorer(
                    query, *model, kc.modelAware, rc.tagLevel,
                    rc.sketchDim);
                KeyFn oracle = keyFnFor(*model, kc.modelAware, query,
                                        *scorer, rc.tagLevel,
                                        rc.sketchDim);
                auto oracleList = [&](const CorpusSnapshot &view,
                                      const std::vector<uint32_t> &surv) {
                    std::vector<std::pair<float, uint32_t>> keyed;
                    for (uint32_t s : surv) {
                        const std::vector<float> &row =
                            want_row.at(view.id(s));
                        keyed.push_back(
                            {oracle(row.data(), serialSquaredNorm(row)),
                             s});
                    }
                    return lowest(keyed, rc.shortlist);
                };

                std::vector<uint64_t> fresh_ids;
                for (uint32_t s : fresh.shortlist(*fsnap, query, *model))
                    fresh_ids.push_back(fsnap->id(s));

                for (const CorpusSnapshot *view : views) {
                    const std::vector<uint32_t> slots = view->liveSlots();
                    const std::vector<uint32_t> want =
                        oracleList(*view, slots);
                    const std::vector<uint32_t> want_pruned = oracleList(
                        *view, tagSurvivors(*view, query, rc.tagLevel, 0.25));
                    for (SimdLevel level : simdLevels()) {
                        setSimdLevel(level);
                        for (uint32_t threads : {1u, 2u, 8u}) {
                            SCOPED_TRACE(testing::Message()
                                         << simdLevelName(level)
                                         << " threads " << threads
                                         << " epoch " << view->epoch());
                            tp.setThreads(threads);
                            std::vector<uint32_t> got =
                                corpus.shortlist(*view, query, *model);
                            EXPECT_EQ(got, want);
                            if (view == snap.get()) {
                                std::vector<uint64_t> got_ids;
                                for (uint32_t s : got)
                                    got_ids.push_back(view->id(s));
                                EXPECT_EQ(got_ids, fresh_ids);
                            }

                            CheckedScorer checked(*scorer, oracle);
                            EXPECT_EQ(corpus.shortlist(*view, checked,
                                                       slots),
                                      want);
                            EXPECT_EQ(checked.mismatches.load(), 0u);
                            bool ranked = slots.size() > rc.shortlist;
                            EXPECT_EQ(checked.scored.load(),
                                      ranked ? slots.size() : 0u);
                            EXPECT_EQ(checked.calls.load(),
                                      ranked ? chunksSpanned(slots) : 0u);

                            corpus.setQueryKnobs(rc.shortlist, 0.25);
                            EXPECT_EQ(corpus.shortlist(*view, query,
                                                       *model),
                                      want_pruned);
                            corpus.setQueryKnobs(rc.shortlist, 0.0);
                        }
                    }
                }
            }
        }
    }
    setSimdLevel(before);
    tp.setThreads(0);
}

// ---- memo invalidation primitives -----------------------------------

TEST(ShardedLruTest, EraseAndEraseIfAtShards1And16)
{
    for (uint32_t shards : {1u, 16u}) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards);
        ShardedLruCache<uint64_t, int> cache(0, shards);
        EXPECT_EQ(cache.numShards(), shards);
        for (uint64_t k = 0; k < 100; ++k)
            cache.insert(k, std::make_shared<int>(int(k)), 8);
        EXPECT_EQ(cache.size(), 100u);
        EXPECT_EQ(cache.bytes(), 800u);

        // Keyed erase: exactly the one entry, bytes released, holders
        // keep their value.
        ShardedLruCache<uint64_t, int>::ValuePtr held = cache.find(5);
        ASSERT_NE(held, nullptr);
        EXPECT_TRUE(cache.erase(5));
        EXPECT_FALSE(cache.erase(5));
        EXPECT_EQ(cache.find(5), nullptr);
        EXPECT_EQ(*held, 5);
        EXPECT_EQ(cache.size(), 99u);
        EXPECT_EQ(cache.bytes(), 792u);

        // Predicate erase: every even key (50 of them; 5 was odd).
        size_t removed = cache.eraseIf(
            [](const uint64_t &key) { return key % 2 == 0; });
        EXPECT_EQ(removed, 50u);
        EXPECT_EQ(cache.size(), 49u);
        EXPECT_EQ(cache.bytes(), 49u * 8);
        EXPECT_EQ(cache.erased(), 51u);
        EXPECT_EQ(cache.find(4), nullptr);
        EXPECT_NE(cache.find(7), nullptr);
    }
}

TEST(MemoTest, InvalidateRemovesOnlyTheKeyedGraph)
{
    CloneSearchCorpus data = makeCloneSearchCorpus(DatasetId::AIDS, 1, 2);
    const Graph &g0 = data.candidates[0];
    const Graph &g1 = data.candidates[1];

    MemoCache memo;
    memo.wl(g0, 2);
    memo.wl(g0, 3); // a second entry family member for the same graph
    memo.wl(g1, 2);
    EXPECT_GT(memo.bytes(), 0u);

    // Warm: repeats hit.
    size_t hits = memo.hits();
    memo.wl(g0, 2);
    EXPECT_GT(memo.hits(), hits);

    // Invalidating g0 drops both of its depths, not g1's entry.
    EXPECT_EQ(memo.invalidate(g0), 2u);
    EXPECT_EQ(memo.invalidate(g0), 0u); // idempotent

    size_t misses = memo.misses();
    memo.wl(g0, 2);
    EXPECT_GT(memo.misses(), misses); // rebuilt
    hits = memo.hits();
    memo.wl(g1, 2);
    EXPECT_GT(memo.hits(), hits); // survived
}

// ---- generators and load shaping ------------------------------------

TEST(GeneratorsTest, BinaryCfgDeterministicAndLabeled)
{
    Rng a(42), b(42), c(43);
    Graph g1 = binaryCfgGraph(64, a);
    Graph g2 = binaryCfgGraph(64, b);
    Graph g3 = binaryCfgGraph(64, c);
    EXPECT_TRUE(sameGraph(g1, g2)); // pure function of (n, rng state)
    EXPECT_FALSE(sameGraph(g1, g3));
    EXPECT_GT(g1.numNodes(), 0u);
    EXPECT_GT(g1.numEdges(), 0u);
    EXPECT_GE(g1.numDistinctLabels(), 2u); // instruction classes

    // The family is wired through the clone-search loaders.
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::BIN_CFG, 2, 8);
    ASSERT_EQ(corpus.candidates.size(), 8u);
    ASSERT_EQ(corpus.candidateIds.size(), 8u);
    std::set<uint64_t> ids(corpus.candidateIds.begin(),
                           corpus.candidateIds.end());
    EXPECT_EQ(ids.size(), 8u);
    MutationPool pool = makeMutationPool(DatasetId::BIN_CFG, 4);
    for (uint64_t id : pool.ids)
        EXPECT_TRUE(ids.insert(id).second);
}

TEST(ZipfTest, DeterministicSkewedAndUniformFallback)
{
    ZipfPicker zipf(100, 1.2);
    Rng a(9), b(9);
    std::vector<uint32_t> counts(100, 0);
    for (int i = 0; i < 2000; ++i) {
        uint32_t x = zipf.pick(a);
        ASSERT_LT(x, 100u);
        ASSERT_EQ(x, zipf.pick(b)); // same seed, same stream
        ++counts[x];
    }
    // Rank 0 dominates the tail under skew 1.2.
    EXPECT_GT(counts[0], counts[50] * 4);
    EXPECT_GT(counts[0], 100u);

    ZipfPicker uniform(100, 0.0);
    Rng u(9);
    for (int i = 0; i < 200; ++i)
        ASSERT_LT(uniform.pick(u), 100u);
}

// ---- plan / oracle replay -------------------------------------------

TEST(PlanTest, OracleMatchesLiveCorpusReplay)
{
    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 12);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 24);

    MutationMix mix;
    mix.perQuery = 0.7;
    mix.insertFraction = 0.5;
    mix.publishBatch = 2;
    constexpr uint32_t kRequests = 40;
    MutationPlan plan =
        planMutations(data.candidateIds, pool, kRequests, mix, 5);
    ASSERT_EQ(plan.before.size(), kRequests);
    ASSERT_EQ(plan.flushBefore.size(), kRequests);
    EXPECT_GT(plan.totalMutations, 0u);
    EXPECT_EQ(plan.totalInserts + plan.totalRemoves,
              plan.totalMutations);
    EXPECT_GT(plan.totalFlushes, 0u);

    // Pure function of its arguments.
    MutationPlan again =
        planMutations(data.candidateIds, pool, kRequests, mix, 5);
    EXPECT_EQ(again.totalMutations, plan.totalMutations);
    EXPECT_EQ(again.flushBefore, plan.flushBefore);

    std::vector<std::vector<uint64_t>> oracle =
        liveIdsByEpoch(data.candidateIds, pool, plan);
    ASSERT_EQ(oracle.size(), size_t(plan.totalFlushes) + 1);
    EXPECT_EQ(oracle[0], data.candidateIds);

    // Apply the plan to a real corpus; every flushed epoch's liveIds()
    // must equal the oracle's entry exactly (content and order).
    LiveCorpus corpus;
    corpus.bootstrap(data.candidates, data.candidateIds);
    EXPECT_EQ(corpus.pin()->liveIds(), oracle[0]);
    uint64_t epoch = 0;
    for (uint32_t i = 0; i < kRequests; ++i) {
        for (const MutationOp &op : plan.before[i]) {
            if (op.isInsert)
                ASSERT_TRUE(
                    corpus.insert(op.id, pool.graphs[op.poolIndex]));
            else
                ASSERT_TRUE(corpus.remove(op.id));
        }
        if (plan.flushBefore[i]) {
            epoch = corpus.flush();
            ASSERT_LT(epoch, oracle.size());
            LiveCorpus::SnapshotPtr snap = corpus.pin();
            EXPECT_EQ(snap->epoch(), epoch);
            EXPECT_EQ(snap->liveIds(), oracle[epoch]) << "epoch "
                                                      << epoch;
        }
    }
    uint64_t final_epoch = corpus.flush(); // trailing staged, if any
    EXPECT_EQ(final_epoch, plan.totalFlushes);
    EXPECT_EQ(corpus.pin()->liveIds(), oracle.back());
}

// ---- storms (the TSan tier runs these with race detection on) -------

TEST(LiveCorpusStorm, SnapshotsReadExactlyOneEpoch)
{
    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 24);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 96);

    MutationMix mix;
    mix.perQuery = 1.5;
    mix.publishBatch = 1;
    constexpr uint32_t kSteps = 60;
    MutationPlan plan =
        planMutations(data.candidateIds, pool, kSteps, mix, 17);
    std::vector<std::vector<uint64_t>> oracle =
        liveIdsByEpoch(data.candidateIds, pool, plan);

    LiveCorpus corpus;
    corpus.bootstrap(data.candidates, data.candidateIds);

    std::atomic<bool> done{false};
    std::atomic<uint64_t> pins{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            // do-while: every reader validates at least one snapshot
            // even when the mutator finishes first (single-core CI).
            do {
                LiveCorpus::SnapshotPtr snap = corpus.pin();
                uint64_t epoch = snap->epoch();
                ASSERT_LT(epoch, oracle.size());
                // The consistency contract: a snapshot is exactly one
                // epoch's corpus, never a torn view.
                ASSERT_EQ(snap->liveIds(), oracle[epoch]);
                ASSERT_EQ(snap->liveCount(), oracle[epoch].size());
                pins.fetch_add(1, std::memory_order_relaxed);
            } while (!done.load(std::memory_order_acquire));
        });
    }

    for (uint32_t i = 0; i < kSteps; ++i) {
        for (const MutationOp &op : plan.before[i]) {
            if (op.isInsert)
                ASSERT_TRUE(
                    corpus.insert(op.id, pool.graphs[op.poolIndex]));
            else
                ASSERT_TRUE(corpus.remove(op.id));
        }
        if (plan.flushBefore[i])
            corpus.flush();
    }
    corpus.flush();
    done.store(true, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    EXPECT_GT(pins.load(), 0u);
    // Readers released their pins continuously, so old epochs retired.
    EXPECT_GT(corpus.epochsReclaimed(), 0u);
    EXPECT_EQ(corpus.pin()->liveIds(), oracle.back());
}

TEST(LiveCorpusBlockStorm, ShortlistsReadOnlyPublishedRows)
{
    // 500 bootstrap slots leave chunk 0 twelve rows short: inserts
    // write those rows, then chunk 1's, while readers shortlist the
    // published rows of the same blocks. Insert-only, so a snapshot's
    // view is exactly the slots below its bound.
    using namespace coarse_oracle;
    constexpr uint32_t kBoot = 500;
    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, kBoot);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 64);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn);
    MemoCache memo;
    InferenceOptions infer;
    infer.memo = &memo;
    model->setInferenceOptions(infer);
    auto descriptor = [&](const Graph &g, std::vector<float> &out) {
        out.resize(model->coarseDim());
        model->coarseDescriptor(g, out.data());
    };

    RetrievalConfig rc;
    rc.mode = RetrievalMode::Cascade;
    rc.shortlist = 8;
    LiveCorpus corpus;
    corpus.enableIndex(rc, true, descriptor);
    corpus.bootstrap(data.candidates, data.candidateIds);

    struct Seen
    {
        uint32_t bound;
        size_t query;
        std::vector<uint32_t> list;
    };
    std::atomic<bool> done{false};
    std::atomic<size_t> warm{0};
    std::vector<std::vector<Seen>> seen(3);
    std::vector<std::thread> readers;
    for (size_t r = 0; r < seen.size(); ++r) {
        readers.emplace_back([&, r] {
            size_t i = r;
            do {
                LiveCorpus::SnapshotPtr snap = corpus.pin();
                size_t q = i++ % data.queries.size();
                seen[r].push_back(
                    {snap->bound(), q,
                     corpus.shortlist(*snap, data.queries[q], *model)});
                if (i == r + 1)
                    warm.fetch_add(1);
            } while (!done.load(std::memory_order_acquire));
        });
    }
    // Start writing once every reader is looping. Odd inserts publish
    // with a flush; even ones stay staged (their rows written,
    // unpublished) while the readers run.
    while (warm.load() < seen.size())
        std::this_thread::yield();
    for (size_t i = 0; i < pool.graphs.size(); ++i) {
        ASSERT_TRUE(corpus.insert(pool.ids[i], pool.graphs[i]));
        if (i % 2 == 1)
            corpus.flush();
    }
    done.store(true, std::memory_order_release);
    for (std::thread &t : readers)
        t.join();

    // The oracle over every row ever written, in slot order.
    std::vector<std::vector<float>> rows;
    for (const Graph &g : data.candidates)
        descriptor(g, rows.emplace_back());
    for (const Graph &g : pool.graphs)
        descriptor(g, rows.emplace_back());
    std::vector<std::vector<float>> keys;
    for (const Graph &query : data.queries) {
        std::unique_ptr<CoarseScorer> scorer = model->coarseScorer(query);
        KeyFn oracle = keyFnFor(*model, true, query, *scorer, rc.tagLevel,
                                rc.sketchDim);
        std::vector<float> k;
        for (const std::vector<float> &row : rows)
            k.push_back(oracle(row.data(), 0.0f));
        keys.push_back(std::move(k));
    }
    size_t checked = 0;
    for (const std::vector<Seen> &list : seen) {
        for (const Seen &v : list) {
            std::vector<std::pair<float, uint32_t>> keyed;
            for (uint32_t s = 0; s < v.bound; ++s)
                keyed.push_back({keys[v.query][s], s});
            ASSERT_EQ(v.list, lowest(keyed, rc.shortlist))
                << "bound " << v.bound;
            ++checked;
        }
    }
    EXPECT_GE(checked, seen.size());
    EXPECT_EQ(corpus.slotCount(), kBoot + pool.graphs.size());
}

// ---- LiveGate: the CI bit-identity tier -----------------------------

/**
 * Drive `service` through `plan`: stage each request's mutations,
 * publish at the plan's epoch boundaries, submit the request's query,
 * and return each request's (future, query index). Mutations run on
 * this thread while the dispatcher scores concurrently — the snapshot
 * scheme is what keeps every in-flight batch on one epoch.
 */
std::vector<std::pair<std::future<QueryResult>, uint32_t>>
driveMutatingWorkload(SearchService &service,
                      const std::vector<Graph> &queries,
                      const MutationPool &pool,
                      const MutationPlan &plan, const MutationMix &mix,
                      uint32_t num_requests, uint64_t seed)
{
    ZipfPicker picker(queries.size(), mix.zipfSkew);
    Rng rng(seed);
    std::vector<std::pair<std::future<QueryResult>, uint32_t>> out;
    out.reserve(num_requests);
    for (uint32_t i = 0; i < num_requests; ++i) {
        for (const MutationOp &op : plan.before[i]) {
            if (op.isInsert)
                EXPECT_TRUE(
                    service.insert(op.id, pool.graphs[op.poolIndex]));
            else
                EXPECT_TRUE(service.remove(op.id));
        }
        if (plan.flushBefore[i])
            service.flushMutations();
        uint32_t q = mix.zipfSkew > 0.0
                         ? picker.pick(rng)
                         : uint32_t(i % queries.size());
        out.emplace_back(service.submit(queries[q]), q);
    }
    service.flushMutations();
    return out;
}

TEST(LiveGate, ExhaustiveScoresBitIdenticalToPinnedEpochOracle)
{
    ThreadPool &tp = ThreadPool::instance();
    tp.setThreads(8);

    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 6, 24);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 48);

    ServeConfig config;
    config.model = ModelId::GraphSim;
    config.maxBatch = 4;
    config.topK = 5;

    MutationMix mix;
    mix.perQuery = 0.5;
    mix.publishBatch = 2;
    mix.zipfSkew = 0.6;
    constexpr uint32_t kRequests = 48;
    MutationPlan plan =
        planMutations(data.candidateIds, pool, kRequests, mix, 21);
    ASSERT_GT(plan.totalInserts, 0u);
    ASSERT_GT(plan.totalRemoves, 0u);
    std::vector<std::vector<uint64_t>> oracle =
        liveIdsByEpoch(data.candidateIds, pool, plan);
    std::map<uint64_t, const Graph *> by_id = graphById(data, pool);

    SearchService service(config, data.candidates, data.candidateIds);
    auto pending = driveMutatingWorkload(service, data.queries, pool,
                                         plan, mix, kRequests, 31);

    // The serial oracle: a fresh same-seed model, scored pair by pair
    // on this thread. Memoized per (query, candidate id) — the skewed
    // query stream re-scores the same pairs often, and exact scores
    // are epoch-independent.
    std::unique_ptr<GmnModel> serial =
        makeModel(config.model, config.modelSeed);
    std::map<std::pair<uint32_t, uint64_t>, double> exact;
    uint64_t max_epoch = 0;
    for (auto &[future, q] : pending) {
        QueryResult result = future.get();
        max_epoch = std::max(max_epoch, result.epoch);
        ASSERT_LT(result.epoch, oracle.size());
        const std::vector<uint64_t> &expect_ids = oracle[result.epoch];
        ASSERT_NE(result.ids, nullptr);
        // The result's candidate list IS the pinned epoch's corpus.
        ASSERT_EQ(*result.ids, expect_ids);
        ASSERT_EQ(result.scores.size(), expect_ids.size());
        for (size_t p = 0; p < expect_ids.size(); ++p) {
            auto key = std::make_pair(q, expect_ids[p]);
            auto it = exact.find(key);
            if (it == exact.end())
                it = exact
                         .emplace(key,
                                  serial->score(GraphPairView(
                                      *by_id.at(expect_ids[p]),
                                      data.queries[q])))
                         .first;
            // Bit-identical, not approximately equal.
            ASSERT_EQ(result.scores[p], it->second)
                << "epoch " << result.epoch << " candidate " << p;
        }
        for (const SearchHit &hit : result.topK)
            EXPECT_EQ(hit.score, result.scores[hit.candidate]);
    }
    EXPECT_GT(max_epoch, 0u) << "workload never crossed an epoch";
    EXPECT_GT(service.corpus().epochsReclaimed(), 0u);
    EXPECT_EQ(service.metrics().corpusEpochsReclaimed,
              service.corpus().epochsReclaimed());
    tp.setThreads(0);
}

TEST(LiveGate, CascadeMatchesOfflineRebuiltIndex)
{
    ThreadPool &tp = ThreadPool::instance();
    tp.setThreads(8);

    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, 40);
    MutationPool pool = makeMutationPool(DatasetId::AIDS, 24);

    ServeConfig config;
    config.model = ModelId::SimGnn;
    config.maxBatch = 4;
    config.topK = 5;
    config.retrieval.mode = RetrievalMode::Cascade;
    config.retrieval.shortlist = 8;

    MutationMix mix;
    mix.perQuery = 1.0;
    mix.publishBatch = 2;
    constexpr uint32_t kRequests = 16;
    MutationPlan plan =
        planMutations(data.candidateIds, pool, kRequests, mix, 3);
    std::vector<std::vector<uint64_t>> oracle =
        liveIdsByEpoch(data.candidateIds, pool, plan);
    std::map<uint64_t, const Graph *> by_id = graphById(data, pool);

    SearchService service(config, data.candidates, data.candidateIds);
    auto pending = driveMutatingWorkload(service, data.queries, pool,
                                         plan, mix, kRequests, 13);

    // Offline replay: per observed epoch, a fresh corpus + index
    // bootstrapped from the oracle's live set, under a fresh same-seed
    // model. Built lazily and cached per epoch.
    std::unique_ptr<GmnModel> serial =
        makeModel(config.model, config.modelSeed);
    ASSERT_GT(serial->coarseDim(), 0u);
    auto descriptor = [&serial](const Graph &g, std::vector<float> &out) {
        out.resize(serial->coarseDim());
        serial->coarseDescriptor(g, out.data());
    };
    std::map<uint64_t, std::unique_ptr<LiveCorpus>> replay;
    auto replayFor = [&](uint64_t epoch) -> LiveCorpus & {
        auto it = replay.find(epoch);
        if (it == replay.end()) {
            auto corpus = std::make_unique<LiveCorpus>(config.mutation);
            corpus->enableIndex(config.retrieval, true, descriptor);
            std::vector<Graph> graphs;
            for (uint64_t id : oracle[epoch])
                graphs.push_back(*by_id.at(id));
            corpus->bootstrap(std::move(graphs), oracle[epoch]);
            it = replay.emplace(epoch, std::move(corpus)).first;
        }
        return *it->second;
    };

    for (auto &[future, q] : pending) {
        QueryResult result = future.get();
        ASSERT_LT(result.epoch, oracle.size());
        ASSERT_NE(result.ids, nullptr);
        ASSERT_EQ(*result.ids, oracle[result.epoch]);

        // The offline corpus has no tombstones, so its slot s IS the
        // live-order position s — directly comparable to the served
        // result's score vector.
        LiveCorpus &offline = replayFor(result.epoch);
        LiveCorpus::SnapshotPtr snap = offline.pin();
        std::vector<uint32_t> shortlist =
            offline.shortlist(*snap, data.queries[q], *serial);

        ASSERT_EQ(result.scores.size(), oracle[result.epoch].size());
        size_t scored = 0;
        for (uint32_t p = 0; p < result.scores.size(); ++p) {
            bool listed = std::binary_search(shortlist.begin(),
                                             shortlist.end(), p);
            if (!listed) {
                EXPECT_TRUE(std::isnan(result.scores[p]))
                    << "pruned candidate " << p << " carries a score";
                continue;
            }
            ++scored;
            double expect = serial->score(GraphPairView(
                *by_id.at((*result.ids)[p]), data.queries[q]));
            ASSERT_EQ(result.scores[p], expect)
                << "epoch " << result.epoch << " candidate " << p;
        }
        EXPECT_EQ(scored, shortlist.size());
        EXPECT_LE(scored, config.retrieval.shortlist);
    }
    EXPECT_GT(service.corpus().epochsReclaimed(), 0u);
    tp.setThreads(0);
}

TEST(LiveGate, MutatingLoadgenEndToEnd)
{
    ThreadPool &tp = ThreadPool::instance();
    tp.setThreads(8);

    CloneSearchCorpus data =
        makeCloneSearchCorpus(DatasetId::BIN_CFG, 4, 16);
    MutationPool pool = makeMutationPool(DatasetId::BIN_CFG, 24);

    ServeConfig config;
    config.model = ModelId::GraphSim;
    config.maxBatch = 4;
    config.topK = 5;

    MutationMix mix;
    mix.perQuery = 0.75;
    mix.publishBatch = 2;
    mix.zipfSkew = 0.8;
    constexpr uint32_t kRequests = 24;
    MutationPlan plan =
        planMutations(data.candidateIds, pool, kRequests, mix, 7);

    SearchService service(config, data.candidates, data.candidateIds);
    LoadGenResult result = runOpenLoopMutating(
        service, data.queries, pool, plan, mix, kRequests, 400.0, 7);

    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.metrics.completed, kRequests);
    EXPECT_EQ(result.metrics.corpusInserts, plan.totalInserts);
    EXPECT_EQ(result.metrics.corpusRemoves, plan.totalRemoves);
    EXPECT_GT(result.metrics.corpusEpoch, 0u);
    EXPECT_GT(result.metrics.corpusEpochsReclaimed, 0u);
    EXPECT_EQ(service.corpusSize(),
              data.candidates.size() + plan.totalInserts -
                  plan.totalRemoves);
    tp.setThreads(0);
}

} // namespace
} // namespace cegma
