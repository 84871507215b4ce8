/**
 * @file
 * The serving subsystem's proof obligations:
 *   - the bounded sharded LRU keeps its byte-budget invariant and
 *     evicts least-recently-used first; its concurrent same-key insert
 *     (first-insert-wins) and eviction-during-lookup races are
 *     exercised at shard counts 1 and 16 (under TSan via ci.sh);
 *   - the bounded MemoCache evicts under pressure without changing a
 *     single produced bit;
 *   - the memo is structurally a no-op for cross-feedback models
 *     (GMN-Li never touches the embedding cache);
 *   - `SearchService` scores are bit-identical to a serial
 *     `runFunctional` at thread counts {1, 2, 8} x batch sizes
 *     {1, 4, 32};
 *   - the `StagePipeline` engine preserves FIFO order through every
 *     stage, really overlaps adjacent stages in wall clock (overlap
 *     identically 0 for a single stage), enforces depth-bounded
 *     backpressure, and keeps the service bit-identical to serial at
 *     every thread x batch x pipeline-depth point, depth 0 (the
 *     monolithic path) included (run under TSan and ASan by ci.sh);
 *   - micro-batcher flush/bound semantics, deadline-aware shedding,
 *     and the close-while-waiting / deadline-vs-size flush races (run
 *     under TSan by ci.sh);
 *   - concurrent submit/shutdown is safe (run under TSan by ci.sh) and
 *     loses no request: everything submitted is completed or rejected;
 *   - overload robustness under seeded fault injection: expired
 *     requests fail `DeadlineExceeded` *unscored*, shedding drops the
 *     least-budget requests, client retries recover injected failures
 *     with bit-identical scores, and the bounded shutdown drain fails
 *     still-queued promises instead of blocking forever;
 *   - metric scrapes racing shutdown/teardown never touch destroyed
 *     members (run under ASan by ci.sh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "accel/runner.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/sharded_lru.hh"
#include "gmn/memo.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/batcher.hh"
#include "serve/errors.hh"
#include "serve/faults.hh"
#include "serve/loadgen.hh"
#include "serve/pipeline.hh"
#include "serve/service.hh"

namespace cegma {
namespace {

// ---- ShardedLruCache ------------------------------------------------

using IntCache = ShardedLruCache<int, int>;

std::shared_ptr<const int>
val(int v)
{
    return std::make_shared<const int>(v);
}

TEST(ShardedLru, BudgetNeverExceeded)
{
    IntCache cache(100, 4);
    for (int k = 0; k < 200; ++k) {
        cache.insert(k, val(k), static_cast<size_t>(1 + k % 13));
        ASSERT_LE(cache.bytes(), 100u) << "after insert " << k;
    }
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_GT(cache.size(), 0u);
}

TEST(ShardedLru, EvictsLeastRecentlyUsedFirst)
{
    // One shard makes the recency order global and testable.
    IntCache cache(30, 1);
    cache.insert(1, val(1), 10);
    cache.insert(2, val(2), 10);
    cache.insert(3, val(3), 10);
    // Touch 1 so 2 becomes the LRU entry.
    ASSERT_NE(cache.find(1), nullptr);
    cache.insert(4, val(4), 10);
    EXPECT_EQ(cache.find(2), nullptr); // evicted
    EXPECT_NE(cache.find(1), nullptr);
    EXPECT_NE(cache.find(3), nullptr);
    EXPECT_NE(cache.find(4), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.bytes(), 30u);
}

TEST(ShardedLru, OversizedValueServedUncached)
{
    IntCache cache(100, 4); // per-shard budget: 25 bytes
    auto returned = cache.insert(7, val(7), 50);
    ASSERT_NE(returned, nullptr);
    EXPECT_EQ(*returned, 7); // caller still gets its value
    EXPECT_EQ(cache.find(7), nullptr);
    EXPECT_EQ(cache.oversized(), 1u);
    EXPECT_EQ(cache.bytes(), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLru, FirstInsertWins)
{
    IntCache cache(100, 1);
    auto first = cache.insert(5, val(50), 10);
    auto second = cache.insert(5, val(99), 10);
    EXPECT_EQ(*second, 50); // the resident value, not the loser's
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.bytes(), 10u);
}

TEST(ShardedLru, TinyBudgetCollapsesShardsInsteadOfZeroing)
{
    // 3-byte budget across 8 requested shards: integer division used
    // to hand every shard a zero budget, which evicted each entry the
    // moment it was inserted. The cache must instead collapse to at
    // most 3 shards so the per-shard budget stays nonzero.
    IntCache cache(3, 8);
    cache.insert(1, val(1), 1);
    EXPECT_NE(cache.find(1), nullptr) << "1-byte value must be cached";
    for (int k = 2; k < 40; ++k) {
        cache.insert(k, val(k), 1);
        ASSERT_LE(cache.bytes(), 3u) << "after insert " << k;
    }
    EXPECT_GT(cache.size(), 0u);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.oversized(), 0u); // 1-byte values always fit
}

TEST(ShardedLru, OneByteBudgetStillCaches)
{
    IntCache cache(1, 16); // the most extreme collapse: one shard
    cache.insert(1, val(1), 1);
    EXPECT_NE(cache.find(1), nullptr);
    cache.insert(2, val(2), 1);
    EXPECT_EQ(cache.find(1), nullptr); // evicted by the 1-byte budget
    EXPECT_NE(cache.find(2), nullptr);
    EXPECT_LE(cache.bytes(), 1u);
}

TEST(ShardedLru, UnboundedWhenBudgetZero)
{
    IntCache cache(0, 2);
    for (int k = 0; k < 64; ++k)
        cache.insert(k, val(k), 1 << 20);
    EXPECT_EQ(cache.size(), 64u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.oversized(), 0u);
}

TEST(ShardedLru, ConcurrentSameKeyInsertFirstWinsUnderRace)
{
    // Many builders produce the same key at once (the memo's "every
    // batch pairs the same corpus graph" pattern): exactly one value
    // may become resident, and every racer must walk away holding that
    // resident value — never its own losing copy. Run under TSan by
    // ci.sh, at both the contended (1) and sharded (16) layouts.
    for (uint32_t shards : {1u, 16u}) {
        IntCache cache(1 << 20, shards);
        constexpr int kThreads = 8;
        constexpr int kKeys = 32;
        std::vector<std::shared_ptr<const int>> got(
            static_cast<size_t>(kThreads) * kKeys);
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&cache, &got, t] {
                for (int k = 0; k < kKeys; ++k) {
                    // Distinct payloads per racer: t * 1000 + k. Only
                    // one of the 8 payloads for key k may survive.
                    got[static_cast<size_t>(t) * kKeys + k] =
                        cache.insert(k, val(t * 1000 + k), 8);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();

        EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
        for (int k = 0; k < kKeys; ++k) {
            auto resident = cache.find(k);
            ASSERT_NE(resident, nullptr) << "key " << k;
            EXPECT_EQ(*resident % 1000, k);
            for (int t = 0; t < kThreads; ++t) {
                // First insert wins: every racer got the SAME object.
                EXPECT_EQ(got[static_cast<size_t>(t) * kKeys + k].get(),
                          resident.get())
                    << "shards=" << shards << " key=" << k
                    << " thread=" << t;
            }
        }
    }
}

TEST(ShardedLru, EvictionDuringConcurrentLookupKeepsValuesAlive)
{
    // Readers hold and dereference values while writers churn a tiny
    // budget that evicts constantly. shared_ptr handout means eviction
    // must never invalidate a value a reader is using; TSan (ci.sh)
    // checks the synchronization, the *p == k check the integrity.
    for (uint32_t shards : {1u, 16u}) {
        // ~8 resident 64-byte entries per shard, 256 live keys: every
        // shard is perpetually over budget and evicting.
        IntCache cache(static_cast<size_t>(64) * 8 * shards, shards);
        constexpr int kKeys = 256;
        std::atomic<bool> stop{false};
        std::atomic<int> mismatches{0};

        std::vector<std::thread> readers;
        for (int r = 0; r < 4; ++r) {
            readers.emplace_back([&] {
                for (int pass = 0; !stop.load(); ++pass) {
                    int k = pass % kKeys;
                    auto p = cache.find(k);
                    if (p != nullptr && *p != k)
                        mismatches.fetch_add(1);
                }
            });
        }
        std::vector<std::thread> writers;
        for (int w = 0; w < 4; ++w) {
            writers.emplace_back([&cache, w] {
                for (int pass = 0; pass < 200; ++pass) {
                    for (int k = w; k < kKeys; k += 4) {
                        auto p = cache.insert(k, val(k), 64);
                        if (p != nullptr)
                            EXPECT_EQ(*p, k);
                    }
                }
            });
        }
        for (auto &thread : writers)
            thread.join();
        stop.store(true);
        for (auto &thread : readers)
            thread.join();

        EXPECT_EQ(mismatches.load(), 0) << "shards=" << shards;
        EXPECT_GT(cache.evictions(), 0u) << "shards=" << shards;
        EXPECT_LE(cache.bytes(), 64u * 8u * shards)
            << "shards=" << shards;
    }
}

// ---- Bounded MemoCache in the functional path -----------------------

TEST(BoundedMemo, EvictsUnderPressureWithoutChangingBits)
{
    Dataset ds = makeCloneSearchDataset(DatasetId::AIDS, 5, 3);

    FunctionalOptions unbounded;
    unbounded.memo = true;
    FunctionalResult reference = runFunctional(ModelId::GraphSim, ds,
                                               unbounded);
    EXPECT_EQ(reference.memoEvictions, 0u);

    FunctionalOptions bounded = unbounded;
    // Small enough that the 8 distinct graphs' embedding chains cannot
    // all stay resident; one shard keeps the LRU order global.
    bounded.memoBytes = size_t{48} << 10;
    bounded.memoShards = 1;
    FunctionalResult result = runFunctional(ModelId::GraphSim, ds,
                                            bounded);

    EXPECT_GT(result.memoEvictions, 0u);
    EXPECT_LE(result.memoBytes, bounded.memoBytes);
    ASSERT_EQ(result.scores.size(), reference.scores.size());
    for (size_t i = 0; i < result.scores.size(); ++i)
        EXPECT_EQ(result.scores[i], reference.scores[i]) << "pair " << i;
}

TEST(BoundedMemo, CrossFeedbackModelNeverTouchesEmbeddingCache)
{
    Dataset ds = makeCloneSearchDataset(DatasetId::AIDS, 2, 2);

    // GMN-Li's embeddings depend on the partner graph: the memo must
    // skip the embedding cache entirely (lookups would be pure
    // overhead), while WL colorings stay memoizable.
    {
        MemoCache memo;
        auto model = makeModel(ModelId::GmnLi);
        InferenceOptions infer;
        infer.memo = &memo;
        model->setInferenceOptions(infer);
        for (const GraphPair &pair : ds.pairs)
            model->score(pair);
        EXPECT_EQ(memo.embeddingLookups(), 0u);
        EXPECT_GT(memo.wlLookups(), 0u);
    }

    // A non-cross-feedback model does use it.
    {
        MemoCache memo;
        auto model = makeModel(ModelId::GraphSim);
        InferenceOptions infer;
        infer.memo = &memo;
        model->setInferenceOptions(infer);
        for (const GraphPair &pair : ds.pairs)
            model->score(pair);
        EXPECT_GT(memo.embeddingLookups(), 0u);
    }
}

TEST(BoundedMemo, LookupTimingIsGatedOffByDefault)
{
    // Regression: the memo used to read the clock around every lookup
    // unconditionally, taxing consumers (runFunctional, benchmarks)
    // that never read lookupNs(). The accounting is now behind one
    // relaxed atomic flag, off by default — a cold cache must finish
    // many lookups without a single recorded nanosecond.
    Dataset ds = makeCloneSearchDataset(DatasetId::AIDS, 3, 2);
    MemoCache memo;
    EXPECT_FALSE(memo.lookupTimingEnabled());
    for (int round = 0; round < 16; ++round)
        for (const GraphPair &pair : ds.pairs)
            (void)memo.wl(pair.target, 3);
    EXPECT_GT(memo.wlLookups(), 0u);
    EXPECT_EQ(memo.lookupNs(), 0u);

    // Flipping the flag starts (not backfills) the accounting.
    memo.setLookupTimingEnabled(true);
    EXPECT_TRUE(memo.lookupTimingEnabled());
    for (int round = 0; round < 16; ++round)
        for (const GraphPair &pair : ds.pairs)
            (void)memo.wl(pair.target, 3);
    EXPECT_GT(memo.lookupNs(), 0u);
}

// ---- MicroBatcher ---------------------------------------------------

TEST(MicroBatcher, SizeTriggerSplitsIntoMaxBatchChunks)
{
    MicroBatcher<int> batcher(2, std::chrono::microseconds(1000000), 64);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(batcher.enqueue(int{i}));
    EXPECT_EQ(batcher.nextBatch(), (std::vector<int>{0, 1}));
    EXPECT_EQ(batcher.nextBatch(), (std::vector<int>{2, 3}));
    batcher.close();
    EXPECT_EQ(batcher.nextBatch(), (std::vector<int>{4}));
    EXPECT_TRUE(batcher.nextBatch().empty()); // closed and drained
}

TEST(MicroBatcher, DeadlineFlushesPartialBatch)
{
    // maxBatch far above what arrives: only the deadline can flush.
    MicroBatcher<int> batcher(64, std::chrono::microseconds(500), 64);
    ASSERT_TRUE(batcher.enqueue(7));
    std::vector<int> batch = batcher.nextBatch();
    EXPECT_EQ(batch, (std::vector<int>{7}));
}

TEST(MicroBatcher, DepthBoundAndCloseRefuseAdmission)
{
    MicroBatcher<int> batcher(8, std::chrono::microseconds(1000), 2);
    EXPECT_TRUE(batcher.enqueue(1));
    EXPECT_TRUE(batcher.enqueue(2));
    EXPECT_FALSE(batcher.enqueue(3)); // at max_depth
    EXPECT_EQ(batcher.depth(), 2u);
    batcher.close();
    EXPECT_FALSE(batcher.enqueue(4)); // closed
    EXPECT_TRUE(batcher.closed());
}

TEST(MicroBatcher, ShedsLeastRemainingBudgetFirst)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point now = Clock::now();
    MicroBatcher<int> batcher(64, std::chrono::microseconds(1000000),
                              64, /*shed_watermark=*/2);
    std::vector<int> shed;
    ASSERT_TRUE(batcher.enqueue(1, now + std::chrono::hours(2), &shed));
    ASSERT_TRUE(batcher.enqueue(2, now + std::chrono::hours(1), &shed));
    EXPECT_TRUE(shed.empty()); // depth 2 == watermark: no shedding yet
    // Crossing the watermark sheds the earliest-deadline item (2), not
    // the newest arrival or the queue head.
    ASSERT_TRUE(batcher.enqueue(3, now + std::chrono::hours(3), &shed));
    EXPECT_EQ(shed, (std::vector<int>{2}));
    EXPECT_EQ(batcher.depth(), 2u);
    EXPECT_EQ(batcher.shedCount(), 1u);
    // A new arrival carrying the least budget is itself the victim.
    ASSERT_TRUE(
        batcher.enqueue(4, now + std::chrono::minutes(1), &shed));
    EXPECT_EQ(shed, (std::vector<int>{2, 4}));
    EXPECT_EQ(batcher.depth(), 2u);
    // The survivors are the two with the most remaining budget.
    batcher.close();
    EXPECT_EQ(batcher.nextBatch(), (std::vector<int>{1, 3}));
}

TEST(MicroBatcher, DeadlineLessItemsAreNeverShed)
{
    using Clock = std::chrono::steady_clock;
    MicroBatcher<int> batcher(64, std::chrono::microseconds(1000000),
                              64, /*shed_watermark=*/1);
    std::vector<int> shed;
    ASSERT_TRUE(batcher.enqueue(1, kNoDeadline, &shed));
    ASSERT_TRUE(batcher.enqueue(2, kNoDeadline, &shed));
    ASSERT_TRUE(batcher.enqueue(3, kNoDeadline, &shed));
    EXPECT_TRUE(shed.empty()); // above the watermark, but unsheddable
    EXPECT_EQ(batcher.depth(), 3u);
    // A deadline-carrying item among deadline-less ones is the only
    // candidate — and here it is the arrival itself.
    ASSERT_TRUE(batcher.enqueue(
        4, Clock::now() + std::chrono::seconds(1), &shed));
    EXPECT_EQ(shed, (std::vector<int>{4}));
    EXPECT_EQ(batcher.depth(), 3u);
}

TEST(MicroBatcher, FullQueueShedsInsteadOfRejectingWhenPossible)
{
    using Clock = std::chrono::steady_clock;
    Clock::time_point now = Clock::now();
    MicroBatcher<int> batcher(64, std::chrono::microseconds(1000000),
                              /*max_depth=*/2, /*shed_watermark=*/2);
    std::vector<int> shed;
    ASSERT_TRUE(batcher.enqueue(1, now + std::chrono::hours(1), &shed));
    ASSERT_TRUE(batcher.enqueue(2, now + std::chrono::hours(2), &shed));
    // Full queue + sheddable items: drop the least-budget one (1) to
    // admit the new arrival rather than bouncing it.
    ASSERT_TRUE(batcher.enqueue(3, now + std::chrono::hours(3), &shed));
    EXPECT_EQ(shed, (std::vector<int>{1}));
    EXPECT_EQ(batcher.depth(), 2u);
}

TEST(MicroBatcher, FullQueueWithNothingSheddableRejects)
{
    // Regression: a full queue whose waiters all carry kNoDeadline has
    // no shedding victim. The arrival must be refused outright — never
    // admitted over the depth bound, and never allowed to evict an
    // unsheddable waiter.
    MicroBatcher<int> batcher(64, std::chrono::microseconds(1000000),
                              /*max_depth=*/2, /*shed_watermark=*/2);
    std::vector<int> shed;
    ASSERT_TRUE(batcher.enqueue(1, kNoDeadline, &shed));
    ASSERT_TRUE(batcher.enqueue(2, kNoDeadline, &shed));
    EXPECT_FALSE(batcher.enqueue(3, kNoDeadline, &shed));
    EXPECT_TRUE(shed.empty());
    EXPECT_EQ(batcher.shedCount(), 0u);
    EXPECT_EQ(batcher.depth(), 2u);
    batcher.close();
    EXPECT_EQ(batcher.nextBatch(), (std::vector<int>{1, 2}));
}

TEST(MicroBatcher, CloseWhileConsumerWaitsReleasesIt)
{
    // Race close() against a consumer blocked in nextBatch() on an
    // empty queue — under TSan this is the close-while-waiting probe.
    for (int round = 0; round < 20; ++round) {
        MicroBatcher<int> batcher(8, std::chrono::microseconds(500000),
                                  64);
        std::atomic<bool> released{false};
        std::thread consumer([&] {
            std::vector<int> batch = batcher.nextBatch();
            EXPECT_TRUE(batch.empty());
            released.store(true);
        });
        std::this_thread::sleep_for(std::chrono::microseconds(
            100 * (round % 5))); // vary the interleaving
        batcher.close();
        consumer.join();
        EXPECT_TRUE(released.load());
    }
}

TEST(MicroBatcher, DeadlineAndSizeFlushRaceLosesNoItem)
{
    // Deadline flushes (short flush window) race size flushes (bursts
    // larger than max_batch) across concurrent producers; every item
    // must come out exactly once. TSan covers the locking.
    MicroBatcher<int> batcher(4, std::chrono::microseconds(200), 4096);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 64;
    constexpr int kTotal = kProducers * kPerProducer;

    std::vector<std::atomic<int>> seen(kTotal);
    std::atomic<bool> done{false};
    std::thread consumer([&] {
        for (;;) {
            std::vector<int> batch = batcher.nextBatch();
            if (batch.empty())
                break; // closed and drained
            EXPECT_LE(batch.size(), 4u);
            for (int v : batch)
                seen[static_cast<size_t>(v)].fetch_add(1);
        }
        done.store(true);
    });

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                ASSERT_TRUE(batcher.enqueue(p * kPerProducer + i));
                if (i % 16 == 15) {
                    // Let the deadline trigger fire on partial batches.
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(300));
                }
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    batcher.close();
    consumer.join();
    ASSERT_TRUE(done.load());
    for (int v = 0; v < kTotal; ++v)
        EXPECT_EQ(seen[static_cast<size_t>(v)].load(), 1) << "item " << v;
}

// ---- StagePipeline --------------------------------------------------

/** Work item counting how many stages have touched it. */
struct ProbeItem : PipelineItem
{
    int visits = 0;
};

TEST(Pipeline, RunsEveryStageInOrderAndCompletesFifo)
{
    std::mutex mu;
    std::vector<uint64_t> finished;
    std::vector<StagePipeline::Stage> stages;
    stages.push_back({"one", [](PipelineItem &item) {
        auto &probe = static_cast<ProbeItem &>(item);
        EXPECT_EQ(probe.visits, 0);
        ++probe.visits;
    }});
    stages.push_back({"two", [](PipelineItem &item) {
        auto &probe = static_cast<ProbeItem &>(item);
        EXPECT_EQ(probe.visits, 1);
        ++probe.visits;
    }});
    stages.push_back({"three", [&](PipelineItem &item) {
        auto &probe = static_cast<ProbeItem &>(item);
        EXPECT_EQ(probe.visits, 2);
        ++probe.visits;
        std::lock_guard<std::mutex> lock(mu);
        finished.push_back(item.seq);
    }});
    StagePipeline pipeline(std::move(stages), 2);
    constexpr uint64_t kItems = 16;
    for (uint64_t i = 0; i < kItems; ++i)
        pipeline.submit(std::make_unique<ProbeItem>());
    pipeline.drain();

    // FIFO end to end: per-stage queues are FIFO and each stage has
    // exactly one worker, so completion order is submission order.
    ASSERT_EQ(finished.size(), kItems);
    for (uint64_t i = 0; i < kItems; ++i)
        EXPECT_EQ(finished[i], i) << "completion slot " << i;

    PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.submitted, kItems);
    EXPECT_EQ(stats.completed, kItems);
    ASSERT_EQ(stats.stages.size(), 3u);
    for (const PipelineStageStats &stage : stats.stages)
        EXPECT_EQ(stage.items, kItems);
    EXPECT_EQ(pipeline.inflight(), 0u);
    pipeline.drain(); // idempotent
}

TEST(Pipeline, AdjacentStagesOverlapInWallClock)
{
    // Two stages that each sleep 10 ms: once batch 0 advances to the
    // second stage, the first stage's worker immediately picks up
    // batch 1, so both sleeps run concurrently — the overlap is
    // structural, not scheduling luck. A serial executor (the
    // monolithic path) has overlapNs identically 0.
    const auto kStageSleep = std::chrono::milliseconds(10);
    std::vector<StagePipeline::Stage> stages;
    for (const char *name : {"embed", "match"}) {
        stages.push_back({name, [kStageSleep](PipelineItem &) {
            std::this_thread::sleep_for(kStageSleep);
        }});
    }
    StagePipeline pipeline(std::move(stages), 2);
    constexpr uint64_t kItems = 6;
    for (uint64_t i = 0; i < kItems; ++i)
        pipeline.submit(std::make_unique<ProbeItem>());
    pipeline.drain();

    PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.completed, kItems);
    EXPECT_GT(stats.overlapNs, 0u);
    EXPECT_GE(stats.busyNs, stats.overlapNs);
    // Every stage slept kItems times; busy time cannot undercount it.
    for (const PipelineStageStats &stage : stats.stages)
        EXPECT_GE(stage.busyNs, kItems * 10'000'000ull / 2);
}

TEST(Pipeline, SingleStageNeverOverlaps)
{
    // The overlap gauge is the serial/pipelined discriminator: with
    // one stage there is never a second busy stage, so overlapNs must
    // stay exactly 0 no matter how many items flow through.
    std::vector<StagePipeline::Stage> stages;
    stages.push_back({"only", [](PipelineItem &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }});
    StagePipeline pipeline(std::move(stages), 4);
    for (uint64_t i = 0; i < 8; ++i)
        pipeline.submit(std::make_unique<ProbeItem>());
    pipeline.drain();
    PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_GT(stats.busyNs, 0u);
    EXPECT_EQ(stats.overlapNs, 0u);
}

TEST(Pipeline, DepthOneBackpressureBoundsInflight)
{
    // At depth 1 with one stage, capacity is one executing + one
    // queued + one submitter blocked in submit() (its seq is stamped
    // before the blocking push). inflight() can never exceed 3 — the
    // bounded queue is real backpressure, not a buffer.
    StagePipeline *self = nullptr;
    std::atomic<uint64_t> maxSeen{0};
    std::vector<StagePipeline::Stage> stages;
    stages.push_back({"slow", [&](PipelineItem &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        uint64_t inflight = self->inflight();
        uint64_t prev = maxSeen.load();
        while (inflight > prev &&
               !maxSeen.compare_exchange_weak(prev, inflight)) {
        }
    }});
    StagePipeline pipeline(std::move(stages), 1);
    self = &pipeline;
    constexpr uint64_t kItems = 12;
    for (uint64_t i = 0; i < kItems; ++i)
        pipeline.submit(std::make_unique<ProbeItem>());
    pipeline.drain();
    EXPECT_EQ(pipeline.stats().completed, kItems);
    EXPECT_LE(maxSeen.load(), 3u);
}

// ---- SearchService --------------------------------------------------

constexpr uint32_t kQueries = 5;
constexpr uint32_t kCandidates = 3;

/** Serial reference scores over the same (candidate, query) grid. */
std::vector<double>
serialReferenceScores(ModelId model)
{
    ThreadPool::instance().setThreads(1);
    Dataset ds = makeCloneSearchDataset(DatasetId::AIDS, kQueries,
                                        kCandidates);
    FunctionalResult result = runFunctional(model, ds);
    return result.scores;
}

/**
 * Submit every query to a fresh service and check each result against
 * the reference grid (`reference[q * C + c]` is query q vs candidate
 * c — the clone-search pair order). `pipeline_depth` 0 is the
 * monolithic batch path; >= 1 the StagePipeline.
 */
void
expectServiceMatchesReference(ModelId model,
                              const std::vector<double> &reference,
                              uint32_t threads, uint32_t batch,
                              uint32_t pipeline_depth = 2)
{
    ThreadPool::instance().setThreads(threads);
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, kQueries, kCandidates);

    ServeConfig config;
    config.model = model;
    config.dedup = true;
    config.memo = true;
    config.maxBatch = batch;
    config.flushMicros = 200; // let the deadline trigger fire too
    config.topK = kCandidates;
    config.pipelineDepth = pipeline_depth;
    SearchService service(config, corpus.candidates);

    std::vector<std::future<QueryResult>> futures;
    futures.reserve(corpus.queries.size());
    for (const Graph &query : corpus.queries)
        futures.push_back(service.submit(query));

    for (size_t q = 0; q < futures.size(); ++q) {
        QueryResult result = futures[q].get();
        ASSERT_EQ(result.scores.size(), kCandidates);
        for (size_t c = 0; c < kCandidates; ++c) {
            EXPECT_EQ(result.scores[c], reference[q * kCandidates + c])
                << modelConfig(model).name << " threads=" << threads
                << " batch=" << batch << " depth=" << pipeline_depth
                << " q=" << q << " c=" << c;
        }
        EXPECT_GE(result.batchSize, 1u);
        EXPECT_LE(result.batchSize, batch);
    }
    service.shutdown();

    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.completed, corpus.queries.size());
    EXPECT_EQ(snap.rejected, 0u);
    EXPECT_GT(snap.batches, 0u);
}

TEST(SearchService, BitIdenticalToSerialAcrossThreadsAndBatches)
{
    std::vector<double> reference =
        serialReferenceScores(ModelId::GraphSim);
    for (uint32_t threads : {1u, 2u, 8u}) {
        for (uint32_t batch : {1u, 4u, 32u}) {
            expectServiceMatchesReference(ModelId::GraphSim, reference,
                                          threads, batch);
        }
    }
    ThreadPool::instance().setThreads(0);
}

TEST(Pipeline, BitIdenticalAcrossThreadsBatchesAndDepths)
{
    // The determinism bar for the pipelined engine: every pool size ×
    // batch size × pipeline depth (0 = the monolithic path) produces
    // the exact bits of a serial runFunctional. Pipelining may change
    // *when* a batch's stages run, never *what* they compute. Run
    // under TSan and ASan+UBSan by ci.sh.
    std::vector<double> reference =
        serialReferenceScores(ModelId::GraphSim);
    for (uint32_t threads : {1u, 2u, 8u}) {
        for (uint32_t batch : {1u, 4u, 32u}) {
            for (uint32_t depth : {0u, 1u, 2u, 4u}) {
                expectServiceMatchesReference(ModelId::GraphSim,
                                              reference, threads, batch,
                                              depth);
            }
        }
    }
    ThreadPool::instance().setThreads(0);
}

TEST(Pipeline, OverlapAndWorkspaceGaugesAreExported)
{
    // The pipelined service must expose its engine through the PR-4
    // registry: serve.pipeline.* and workspace.* gauges present, depth
    // echoing the config, and batches matching the batch counter.
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, kQueries, kCandidates);
    ServeConfig config;
    config.dedup = true;
    config.memo = true;
    config.maxBatch = 4;
    config.flushMicros = 200;
    config.pipelineDepth = 2;
    SearchService service(config, corpus.candidates);
    std::vector<std::future<QueryResult>> futures;
    for (const Graph &query : corpus.queries)
        futures.push_back(service.submit(query));
    for (auto &future : futures)
        (void)future.get();
    service.shutdown();

    std::map<std::string, double> gauges;
    obs::RegistrySnapshot snap = service.registry().snapshot();
    for (const obs::MetricValue &m : snap.metrics)
        gauges[m.name] = m.kind == obs::MetricValue::Kind::FloatGauge
                             ? m.fgauge
                             : static_cast<double>(m.gauge);
    ASSERT_TRUE(gauges.count("serve.pipeline.depth"));
    EXPECT_DOUBLE_EQ(gauges["serve.pipeline.depth"], 2.0);
    ASSERT_TRUE(gauges.count("serve.pipeline.batches"));
    EXPECT_GE(gauges["serve.pipeline.batches"], 1.0);
    ASSERT_TRUE(gauges.count("serve.pipeline.match_busy_us"));
    EXPECT_GT(gauges["serve.pipeline.match_busy_us"], 0.0);
    ASSERT_TRUE(gauges.count("workspace.hits"));
    ASSERT_TRUE(gauges.count("workspace.misses"));
    // The serving hot path recycles tensor storage: a warm service
    // must have served at least one allocation from a free list.
    EXPECT_GT(gauges["workspace.hits"], 0.0);
}

TEST(SearchService, BitIdenticalForEveryModel)
{
    for (ModelId model : allModels()) {
        std::vector<double> reference = serialReferenceScores(model);
        expectServiceMatchesReference(model, reference, 2, 4);
    }
    ThreadPool::instance().setThreads(0);
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

TEST(SearchService, TopKIsSortedAndConsistent)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, 1, 6);
    ServeConfig config;
    config.topK = 3;
    config.flushMicros = 200;
    SearchService service(config, corpus.candidates);
    QueryResult result = service.submit(corpus.queries[0]).get();
    ASSERT_EQ(result.scores.size(), 6u);
    ASSERT_EQ(result.topK.size(), 3u);
    for (size_t i = 0; i + 1 < result.topK.size(); ++i)
        EXPECT_GE(result.topK[i].score, result.topK[i + 1].score);
    for (const SearchHit &hit : result.topK) {
        ASSERT_LT(hit.candidate, result.scores.size());
        EXPECT_EQ(hit.score, result.scores[hit.candidate]);
    }
    // The best hit dominates all scores.
    for (double s : result.scores) {
        EXPECT_FALSE(std::isnan(s));
        EXPECT_GE(result.topK.front().score, s);
    }
    // Exhaustive results rank every position through the verified
    // (position, score) head, which is the dense ranking here.
    expectSameHits(result.topK, topKHits(result.scores, config.topK));
}

/**
 * A GraphSim service with a 0-node graph in its corpus and as a
 * query, exhaustive and cascade, scores those pairs like a serial
 * no-memo model: the CNN branch resizes their empty similarity
 * matrices to zeros instead of aborting the process.
 */
TEST(SearchService, ZeroNodeGraphsScoreInBothModes)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(DatasetId::AIDS, 1, 6);
    std::vector<Graph> candidates = corpus.candidates;
    candidates.push_back(Graph());
    const std::vector<Graph> queries = {corpus.queries[0], Graph()};
    ServeConfig config;
    config.model = ModelId::GraphSim;
    config.flushMicros = 200;
    config.maxBatch = 2;
    config.retrieval.shortlist = 4;
    std::unique_ptr<GmnModel> plain =
        makeModel(config.model, config.modelSeed);
    for (RetrievalMode mode :
         {RetrievalMode::Exhaustive, RetrievalMode::Cascade}) {
        SCOPED_TRACE(retrievalModeName(mode));
        config.retrieval.mode = mode;
        SearchService service(config, candidates);
        std::vector<std::future<QueryResult>> futures;
        for (const Graph &query : queries)
            futures.push_back(service.submit(query));
        for (size_t q = 0; q < queries.size(); ++q) {
            QueryResult result = futures[q].get();
            ASSERT_EQ(result.scores.size(), candidates.size());
            size_t verified = 0;
            for (size_t c = 0; c < candidates.size(); ++c) {
                if (std::isnan(result.scores[c]))
                    continue;
                ++verified;
                const double want = plain->forwardDetailed(
                    GraphPairView(candidates[c], queries[q])).score;
                EXPECT_TRUE(std::isfinite(want));
                EXPECT_EQ(std::memcmp(&result.scores[c], &want,
                                      sizeof want),
                          0)
                    << "q=" << q << " c=" << c;
            }
            EXPECT_EQ(verified, mode == RetrievalMode::Exhaustive
                                    ? candidates.size()
                                    : config.retrieval.shortlist);
        }
        service.shutdown();
    }
}

TEST(SearchService, EmptyCorpusYieldsEmptyResults)
{
    ServeConfig config;
    config.flushMicros = 200;
    SearchService service(config, {});
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, 1, 1);
    QueryResult result = service.submit(corpus.queries[0]).get();
    EXPECT_TRUE(result.scores.empty());
    EXPECT_TRUE(result.topK.empty());
}

TEST(SearchService, SubmitAfterShutdownIsRejected)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, 1, 2);
    ServeConfig config;
    config.flushMicros = 200;
    SearchService service(config, corpus.candidates);
    service.shutdown();
    std::future<QueryResult> future = service.submit(corpus.queries[0]);
    EXPECT_THROW(future.get(), std::runtime_error);
    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.rejected, 1u);
}

TEST(SearchService, ConcurrentSubmitAndShutdownLosesNothing)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, 4, 2);
    ServeConfig config;
    config.maxBatch = 4;
    config.flushMicros = 100;
    SearchService service(config, corpus.candidates);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> rejected{0};
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const Graph &query =
                    corpus.queries[static_cast<size_t>(t + i) %
                                   corpus.queries.size()];
                std::future<QueryResult> future = service.submit(query);
                try {
                    QueryResult result = future.get();
                    EXPECT_EQ(result.scores.size(),
                              corpus.candidates.size());
                    ++completed;
                } catch (const std::runtime_error &) {
                    ++rejected;
                }
            }
        });
    }
    // Race shutdown against the submitters: admitted requests must
    // still complete, late ones must reject — never hang, never drop.
    service.shutdown();
    for (std::thread &thread : submitters)
        thread.join();

    EXPECT_EQ(completed + rejected,
              static_cast<uint64_t>(kThreads) * kPerThread);
    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.completed, completed.load());
    EXPECT_EQ(snap.rejected, rejected.load());
    EXPECT_EQ(snap.submitted, snap.completed + snap.rejected);
}

TEST(SearchService, MetricsReportLatencyAndCacheActivity)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, 3, 3);
    ServeConfig config;
    config.dedup = true;
    config.memo = true;
    config.maxBatch = 4;
    config.flushMicros = 200;
    SearchService service(config, corpus.candidates);
    LoadGenResult run =
        runClosedLoop(service, corpus.queries, 9, 2);
    service.shutdown();

    EXPECT_EQ(run.errors, 0u);
    EXPECT_EQ(run.metrics.completed, 9u);
    EXPECT_GT(run.metrics.qps, 0.0);
    EXPECT_GT(run.metrics.latencyP50Ms, 0.0);
    EXPECT_GE(run.metrics.latencyP95Ms, run.metrics.latencyP50Ms);
    EXPECT_GE(run.metrics.latencyP99Ms, run.metrics.latencyP95Ms);
    EXPECT_GE(run.metrics.latencyMaxMs, run.metrics.latencyP99Ms);
    // Every candidate recurs across requests: the memo must hit.
    EXPECT_GT(run.metrics.cacheHits, 0u);
    EXPECT_GT(run.metrics.cacheHitRate, 0.0);
    EXPECT_GT(run.metrics.dedupRowsTotal, 0u);
    std::string json = run.metrics.toJson();
    EXPECT_NE(json.find("\"completed\": 9"), std::string::npos);
    EXPECT_NE(json.find("\"latency_p99_ms\""), std::string::npos);
}

TEST(SearchService, OpenLoopScheduleIsDeterministic)
{
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, 2, 2);
    ServeConfig config;
    config.maxBatch = 4;
    config.flushMicros = 200;
    SearchService service(config, corpus.candidates);
    LoadGenResult run =
        runOpenLoop(service, corpus.queries, 8, 200.0, 3);
    service.shutdown();
    EXPECT_EQ(run.errors, 0u);
    EXPECT_EQ(run.metrics.completed, 8u);
    EXPECT_DOUBLE_EQ(run.offeredQps, 200.0);
    EXPECT_GT(run.achievedQps, 0.0);
}

// ---- topKHits (NaN strict-weak-ordering regression) -----------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(TopKHits, NanScoresOrderLastDeterministically)
{
    std::vector<SearchHit> hits =
        topKHits({1.0, kNaN, 3.0, kNaN, 2.0}, 5);
    ASSERT_EQ(hits.size(), 5u);
    EXPECT_EQ(hits[0].candidate, 2u); // 3.0
    EXPECT_EQ(hits[1].candidate, 4u); // 2.0
    EXPECT_EQ(hits[2].candidate, 0u); // 1.0
    // NaNs after every real score, ordered by index among themselves.
    EXPECT_EQ(hits[3].candidate, 1u);
    EXPECT_EQ(hits[4].candidate, 3u);
    EXPECT_TRUE(std::isnan(hits[3].score));
    EXPECT_TRUE(std::isnan(hits[4].score));
}

TEST(TopKHits, NanNeverDisplacesRealScoresFromTopK)
{
    std::vector<SearchHit> hits = topKHits({kNaN, 0.5, kNaN, 0.25}, 2);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].candidate, 1u);
    EXPECT_EQ(hits[1].candidate, 3u);
}

TEST(TopKHits, ManyNansDoNotCorruptPartialSort)
{
    // The pre-fix comparator (`a.score > b.score`) was not a strict
    // weak ordering once NaN appeared: NaN compares false both ways,
    // so "equivalence" lost transitivity and std::partial_sort was
    // undefined behavior. Heavily NaN-laced inputs exercise the heap
    // paths where that UB actually bit.
    std::vector<double> scores;
    for (int i = 0; i < 101; ++i)
        scores.push_back(i % 3 == 0 ? kNaN
                                    : static_cast<double>(i % 17));
    std::vector<SearchHit> hits =
        topKHits(scores, static_cast<uint32_t>(scores.size()));
    ASSERT_EQ(hits.size(), scores.size());
    bool seen_nan = false;
    for (size_t i = 0; i < hits.size(); ++i) {
        if (std::isnan(hits[i].score)) {
            seen_nan = true;
        } else {
            EXPECT_FALSE(seen_nan)
                << "real score after a NaN at position " << i;
            if (i > 0 && !std::isnan(hits[i - 1].score)) {
                EXPECT_GE(hits[i - 1].score, hits[i].score);
            }
        }
        if (std::isnan(hits[i].score)) {
            EXPECT_TRUE(std::isnan(scores[hits[i].candidate]));
        } else {
            EXPECT_EQ(hits[i].score, scores[hits[i].candidate]);
        }
    }
    // All-NaN input: pure index order.
    std::vector<SearchHit> all_nan = topKHits({kNaN, kNaN, kNaN}, 3);
    ASSERT_EQ(all_nan.size(), 3u);
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(all_nan[i].candidate, i);
}

/**
 * The cascade ranks its verified (position, score) pairs alone. That
 * must be exactly `topKHits` over the corpus-sized vector with NaN in
 * every unverified slot, minus the NaN tail: equal scores break toward
 * the lower position, a verified NaN drops out, and k may exceed the
 * verified count. Hits arrive in shortlist order, not position order.
 */
TEST(TopKHits, ScoredHitsRankLikeTheDenseVector)
{
    Rng rng(7);
    const double ladder[] = {0.25, 0.5, 0.5, 0.75, kNaN, -0.0, 0.0};
    for (int trial = 0; trial < 200; ++trial) {
        const size_t corpus = 1 + rng.nextBounded(300);
        const size_t verified = rng.nextBounded(corpus + 1);
        std::vector<uint32_t> positions(corpus);
        std::iota(positions.begin(), positions.end(), 0u);
        for (size_t i = corpus; i > 1; --i)
            std::swap(positions[i - 1], positions[rng.nextBounded(i)]);
        positions.resize(verified);

        std::vector<double> dense(corpus, kNaN);
        std::vector<SearchHit> hits;
        for (uint32_t pos : positions) {
            // Few distinct values, so most ranks are decided by ties.
            const double score = ladder[rng.nextBounded(7)];
            dense[pos] = score;
            hits.push_back(SearchHit{pos, score});
        }
        for (uint32_t k : {0u, 1u, 10u, 64u, 1000u}) {
            std::vector<SearchHit> want = topKHits(dense, k);
            while (!want.empty() && std::isnan(want.back().score))
                want.pop_back();
            std::vector<SearchHit> got = topKScoredHits(hits, k);
            ASSERT_EQ(got.size(), want.size())
                << "trial " << trial << " k=" << k;
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].candidate, want[i].candidate)
                    << "trial " << trial << " k=" << k << " rank " << i;
                EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score,
                                      sizeof(double)),
                          0);
            }
        }
    }
}

// ---- Overload robustness (deadlines / shedding / faults / drain) ----

/** The `RequestErrorCode` a failed future throws, or a test failure. */
RequestErrorCode
failureCode(std::future<QueryResult> &future)
{
    try {
        future.get();
    } catch (const RequestError &error) {
        return error.code();
    } catch (const std::exception &error) {
        ADD_FAILURE() << "expected RequestError, got: " << error.what();
        return RequestErrorCode::Rejected;
    }
    ADD_FAILURE() << "expected a failed future, got a result";
    return RequestErrorCode::Rejected;
}

TEST(Overload, SpentDeadlineBudgetFailsAtAdmissionUnscored)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 1, 2);
    ServeConfig config;
    config.flushMicros = 200;
    SearchService service(config, corpus.candidates);

    std::future<QueryResult> future =
        service.submit(corpus.queries[0], -1.0);
    EXPECT_EQ(failureCode(future), RequestErrorCode::DeadlineExceeded);
    service.shutdown();

    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.expired, 1u);
    EXPECT_EQ(snap.completed, 0u);
    EXPECT_EQ(snap.batches, 0u); // never reached scoring
    std::string json = snap.toJson();
    EXPECT_NE(json.find("\"expired\": 1"), std::string::npos);
}

TEST(Overload, ExpiredWhileQueuedFailsWithoutBeingScored)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 2);

    // Deterministically wedge the first batch for 300 ms: a request
    // with a 20 ms budget *must* expire while it rides that batch.
    FaultConfig fault_config;
    fault_config.stallBatches = 1;
    fault_config.stallMicros = 300000;
    FaultInjector faults(fault_config);

    ServeConfig config;
    config.maxBatch = 1;
    config.flushMicros = 100;
    config.faults = &faults;
    SearchService service(config, corpus.candidates);

    std::future<QueryResult> doomed =
        service.submit(corpus.queries[0], 20.0);
    EXPECT_EQ(failureCode(doomed), RequestErrorCode::DeadlineExceeded);
    EXPECT_EQ(faults.injectedStalls(), 1u);

    // The next request rides batch 2 (no stall) and completes — the
    // expired one did not poison the dispatcher.
    QueryResult ok = service.submit(corpus.queries[1]).get();
    EXPECT_EQ(ok.scores.size(), corpus.candidates.size());
    service.shutdown();

    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.expired, 1u);
    EXPECT_EQ(snap.completed, 1u);
    // The expired request was never scored: the only flushed scoring
    // pass is the survivor's.
    EXPECT_EQ(snap.batches, 1u);
}

TEST(Overload, SheddingDropsLeastBudgetRequestsUnderPressure)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 4, 2);

    // Wedge the dispatcher on the first batch so later submits pile up
    // behind it and cross the shed watermark.
    FaultConfig fault_config;
    fault_config.stallBatches = 1;
    fault_config.stallMicros = 500000;
    FaultInjector faults(fault_config);

    ServeConfig config;
    config.maxBatch = 1;
    config.flushMicros = 100;
    config.shedWatermark = 2;
    config.faults = &faults;
    SearchService service(config, corpus.candidates);

    // Occupies the dispatcher (popped, then stalled 500 ms).
    std::future<QueryResult> in_flight =
        service.submit(corpus.queries[0], 60000.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Three queued requests cross the watermark (2): the one with the
    // least remaining budget — r_small, 2 s — is shed; the others have
    // hours of budget and survive the stall comfortably.
    std::future<QueryResult> r_big =
        service.submit(corpus.queries[1], 3600000.0);
    std::future<QueryResult> r_small =
        service.submit(corpus.queries[2], 2000.0);
    std::future<QueryResult> r_medium =
        service.submit(corpus.queries[3], 7200000.0);

    EXPECT_EQ(failureCode(r_small), RequestErrorCode::Shed);
    EXPECT_EQ(in_flight.get().scores.size(), corpus.candidates.size());
    EXPECT_EQ(r_big.get().scores.size(), corpus.candidates.size());
    EXPECT_EQ(r_medium.get().scores.size(), corpus.candidates.size());
    service.shutdown();

    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.shed, 1u);
    EXPECT_EQ(snap.completed, 3u);
    EXPECT_EQ(snap.expired, 0u);
}

TEST(Overload, RetriesRecoverInjectedFailuresWithIdenticalBits)
{
    constexpr uint32_t kNumQueries = 3;
    constexpr uint32_t kNumCandidates = 3;
    constexpr int kRequests = 12;
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, kNumQueries, kNumCandidates);

    // Reference scores from a fault-free service.
    std::vector<std::vector<double>> reference;
    {
        ServeConfig config;
        config.flushMicros = 200;
        SearchService service(config, corpus.candidates);
        for (int r = 0; r < kRequests; ++r) {
            reference.push_back(
                service
                    .submit(corpus.queries[static_cast<size_t>(r) %
                                           kNumQueries])
                    .get()
                    .scores);
        }
    }

    // The same requests against a service that spuriously fails ~30%
    // of them (seeded, so the injected pattern is reproducible), with
    // a client retry loop absorbing the failures.
    FaultConfig fault_config;
    fault_config.seed = 42;
    fault_config.errorProb = 0.3;
    FaultInjector faults(fault_config);

    ServeConfig config;
    config.flushMicros = 200;
    config.faults = &faults;
    SearchService service(config, corpus.candidates);

    int client_retries = 0;
    for (int r = 0; r < kRequests; ++r) {
        const Graph &query =
            corpus.queries[static_cast<size_t>(r) % kNumQueries];
        std::vector<double> scores;
        for (int attempt = 0;; ++attempt) {
            ASSERT_LT(attempt, 40) << "retries did not converge";
            std::future<QueryResult> future = service.submit(query);
            try {
                scores = future.get().scores;
                break;
            } catch (const RequestError &error) {
                ASSERT_EQ(error.code(), RequestErrorCode::Injected);
                ASSERT_TRUE(error.retryable());
                ++client_retries;
            }
        }
        // Recovered results carry exactly the bits of a run that never
        // saw a fault — retries change *when* a score is computed,
        // never what it is.
        EXPECT_EQ(scores, reference[static_cast<size_t>(r)])
            << "request " << r;
    }
    service.shutdown();

    EXPECT_GT(faults.injectedErrors(), 0u) << "seed 42 must inject";
    EXPECT_EQ(static_cast<uint64_t>(client_retries),
              faults.injectedErrors());
}

TEST(Overload, LoadgenRetryPolicyAbsorbsInjectedFailures)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, 2);

    FaultConfig fault_config;
    fault_config.seed = 42;
    fault_config.errorProb = 0.3;
    FaultInjector faults(fault_config);

    ServeConfig config;
    config.flushMicros = 200;
    config.faults = &faults;
    SearchService service(config, corpus.candidates);

    RetryPolicy retry;
    retry.maxAttempts = 10;
    retry.baseBackoffMs = 0.1;
    retry.maxBackoffMs = 1.0;
    LoadGenResult run =
        runClosedLoop(service, corpus.queries, 16, 1, retry, 7);
    service.shutdown();

    EXPECT_GT(faults.injectedErrors(), 0u) << "seed 42 must inject";
    EXPECT_EQ(run.errors, 0u) << "every injected failure must recover";
    EXPECT_EQ(run.giveups, 0u);
    EXPECT_EQ(run.retries, faults.injectedErrors());
    // Client retries flow into the service registry with the server
    // counters: cegma_serve --json / --prom report all three.
    EXPECT_EQ(run.metrics.retries, run.retries);
    EXPECT_EQ(run.metrics.completed, 16u);
}

TEST(Overload, BoundedDrainFailsQueuedRequestsInsteadOfBlocking)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, 2);

    // Wedge the dispatcher on the first batch for 600 ms; the drain is
    // bounded at 50 ms, so shutdown must abort and fail the two still
    // -queued requests rather than wait out the stall.
    FaultConfig fault_config;
    fault_config.stallBatches = 1;
    fault_config.stallMicros = 600000;
    FaultInjector faults(fault_config);

    ServeConfig config;
    config.maxBatch = 1;
    config.flushMicros = 100;
    config.drainTimeoutMs = 50.0;
    config.faults = &faults;
    SearchService service(config, corpus.candidates);

    std::future<QueryResult> in_flight =
        service.submit(corpus.queries[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::future<QueryResult> queued_a =
        service.submit(corpus.queries[1]);
    std::future<QueryResult> queued_b =
        service.submit(corpus.queries[2]);

    auto shutdown_started = std::chrono::steady_clock::now();
    service.shutdown();
    double shutdown_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -
                             shutdown_started)
                             .count();
    // Bounded: ~50 ms drain + the in-flight batch, never the queued
    // backlog. Generous ceiling for sanitizer builds.
    EXPECT_LT(shutdown_ms, 5000.0);

    // The batch already in flight still completes at join...
    EXPECT_EQ(in_flight.get().scores.size(), corpus.candidates.size());
    // ...while the still-queued requests fail fast, non-retryably.
    for (std::future<QueryResult> *future : {&queued_a, &queued_b}) {
        try {
            future->get();
            ADD_FAILURE() << "queued request must fail on drain timeout";
        } catch (const RequestError &error) {
            EXPECT_EQ(error.code(), RequestErrorCode::DrainTimeout);
            EXPECT_FALSE(error.retryable());
        }
    }
    MetricsSnapshot snap = service.metrics();
    EXPECT_EQ(snap.drainDropped, 2u);
    EXPECT_EQ(snap.completed, 1u);
}

TEST(Overload, MetricScrapesRacingShutdownNeverTouchDeadMembers)
{
    // The regression this pins down: the batcher (a provider-gauge
    // target) used to be declared after the metrics registry, so a
    // scrape during teardown polled a destroyed member. Scrape
    // continuously across shutdown(); ASan (ci.sh tier 3) turns any
    // lifetime slip into a hard failure.
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 2, 2);
    ServeConfig config;
    config.flushMicros = 200;
    auto service =
        std::make_unique<SearchService>(config, corpus.candidates);

    std::atomic<bool> stop{false};
    std::thread scraper([&] {
        while (!stop.load(std::memory_order_acquire)) {
            obs::RegistrySnapshot snap = service->registry().snapshot();
            std::string prom = snap.toPrometheus();
            EXPECT_NE(prom.find("serve_queue_depth"),
                      std::string::npos);
        }
    });

    for (int r = 0; r < 6; ++r) {
        service
            ->submit(
                corpus.queries[static_cast<size_t>(r) %
                               corpus.queries.size()])
            .get();
    }
    service->shutdown();
    // Post-shutdown scrapes read the frozen gauges for a while...
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true, std::memory_order_release);
    scraper.join();
    // ...and the frozen values match a direct snapshot.
    MetricsSnapshot final_snap = service->metrics();
    EXPECT_EQ(final_snap.completed, 6u);
    service.reset();
}

// ---- Live telemetry plane -------------------------------------------

/** One blocking loopback HTTP exchange ("" on connect failure). */
std::string
adminGet(int port, const std::string &path)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    std::string request = "GET " + path +
                          " HTTP/1.1\r\nHost: t\r\n"
                          "Connection: close\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        ssize_t n = ::send(fd, request.data() + sent,
                           request.size() - sent, 0);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    std::string response;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
}

TEST(Telemetry, BitIdenticalWithFullTelemetryEnabled)
{
    // The determinism contract: admin server + attribution + SLO
    // tracking are observational only — every score still matches the
    // serial oracle bit for bit.
    std::vector<double> reference =
        serialReferenceScores(ModelId::GraphSim);
    constexpr uint32_t kThreads = 8;
    ThreadPool::instance().setThreads(kThreads);
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, kQueries, kCandidates);

    ServeConfig config;
    config.model = ModelId::GraphSim;
    config.dedup = true;
    config.memo = true;
    config.maxBatch = 4;
    config.flushMicros = 200;
    config.topK = kCandidates;
    config.adminPort = 0;
    config.attribution = true;
    config.slo.targetMs = 100.0;
    config.slo.objective = 0.99;
    SearchService service(config, corpus.candidates);
    ASSERT_GT(service.adminPort(), 0);

    std::vector<std::future<QueryResult>> futures;
    futures.reserve(corpus.queries.size());
    for (const Graph &query : corpus.queries)
        futures.push_back(service.submit(query));

    std::set<uint64_t> ids;
    for (size_t q = 0; q < futures.size(); ++q) {
        QueryResult result = futures[q].get();
        ASSERT_EQ(result.scores.size(), kCandidates);
        for (size_t c = 0; c < kCandidates; ++c) {
            EXPECT_EQ(result.scores[c], reference[q * kCandidates + c])
                << "q=" << q << " c=" << c;
        }
        // The critical-path breakdown is filled and self-consistent.
        const obs::CriticalPath &cp = result.breakdown;
        EXPECT_GT(cp.requestId, 0u);
        ids.insert(cp.requestId);
        EXPECT_GT(cp.totalUs, 0u);
        EXPECT_LE(cp.queueUs, cp.totalUs);
        EXPECT_EQ(cp.batchSize, result.batchSize);
        // Stage times are thread-time: bounded by wall time times the
        // pool width (plus timer-granularity slack).
        EXPECT_LE(cp.stageSumUs(), cp.totalUs * kThreads + 1000)
            << "q=" << q;
    }
    // Request ids are unique across the run.
    EXPECT_EQ(ids.size(), futures.size());

    service.shutdown();
    ThreadPool::instance().setThreads(0);
}

TEST(Telemetry, RequestSpanEndsInsideItsHeadStage)
{
    // A result is ready when the head stage delivers it, so
    // QueryResult::totalMs — and the request span, critical path,
    // windows, SLO burn and slow log built from it — must run past the
    // start of the batch's head stage. Each request is awaited before
    // the next is submitted, so batches never overlap and request i
    // rode head stage i.
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, kQueries, kCandidates);
    ServeConfig config;
    config.model = ModelId::GraphSim;
    config.maxBatch = 1;
    config.topK = kCandidates;
    obs::clearTrace();
    obs::setTracingEnabled(true);
    {
        SearchService service(config, corpus.candidates);
        for (const Graph &query : corpus.queries)
            ASSERT_EQ(service.submit(query).get().scores.size(),
                      kCandidates);
        service.shutdown(); // a head span closes after its delivery
    }
    obs::setTracingEnabled(false);
    std::vector<obs::SpanRecord> spans = obs::collectSpans();
    obs::clearTrace();

    std::vector<obs::SpanRecord> requests, heads;
    for (const obs::SpanRecord &span : spans) {
        if (std::string(span.name) == "request")
            requests.push_back(span);
        else if (std::string(span.name) == "pipeline.head")
            heads.push_back(span);
    }
    ASSERT_EQ(requests.size(), corpus.queries.size());
    ASSERT_EQ(heads.size(), corpus.queries.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        uint64_t end = requests[i].startNs + requests[i].durNs;
        EXPECT_GE(end, heads[i].startNs) << "request " << i;
        EXPECT_LE(end, heads[i].startNs + heads[i].durNs)
            << "request " << i;
    }
}

TEST(Telemetry, AdminEndpointsServeAndStopWithService)
{
    CloneSearchCorpus corpus =
        makeCloneSearchCorpus(DatasetId::AIDS, 3, 2);
    ServeConfig config;
    config.flushMicros = 200;
    config.adminPort = 0;
    config.attribution = true;
    config.slo.targetMs = 50.0;
    SearchService service(config, corpus.candidates);
    int port = service.adminPort();
    ASSERT_GT(port, 0);

    for (const Graph &query : corpus.queries)
        service.submit(query).get();

    std::string health = adminGet(port, "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos) << health;
    EXPECT_NE(health.find("ok"), std::string::npos) << health;

    std::string ready = adminGet(port, "/readyz");
    EXPECT_NE(ready.find("HTTP/1.1 200"), std::string::npos) << ready;

    std::string metrics = adminGet(port, "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(metrics.find("cegma_build_info{"), std::string::npos);
    EXPECT_NE(metrics.find("serve_requests_completed 3"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("serve_win1m_p99_us"), std::string::npos);
    EXPECT_NE(metrics.find("serve_slo_burn_win1m"), std::string::npos);

    std::string varz = adminGet(port, "/varz");
    EXPECT_NE(varz.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(varz.find("application/json"), std::string::npos);
    EXPECT_NE(varz.find("\"serve.requests.completed\": 3"),
              std::string::npos)
        << varz;

    std::string statusz = adminGet(port, "/statusz");
    EXPECT_NE(statusz.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(statusz.find("\"simd\""), std::string::npos) << statusz;
    EXPECT_NE(statusz.find("\"corpus_epoch\""), std::string::npos);
    EXPECT_NE(statusz.find("\"draining\": false"), std::string::npos)
        << statusz;

    std::string tracez = adminGet(port, "/tracez");
    EXPECT_NE(tracez.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(tracez.find("\"slowest\""), std::string::npos) << tracez;
    EXPECT_NE(tracez.find("\"stage_sum_us\""), std::string::npos)
        << tracez;

    // The exemplar store holds every request (3 < top-K), slowest
    // first, with wall-time-consistent stage sums.
    std::vector<obs::CriticalPath> slow = service.tailExemplars();
    ASSERT_EQ(slow.size(), 3u);
    for (size_t i = 0; i + 1 < slow.size(); ++i)
        EXPECT_GE(slow[i].totalUs, slow[i + 1].totalUs);
    for (const obs::CriticalPath &cp : slow) {
        EXPECT_GT(cp.totalUs, 0u);
        EXPECT_LE(cp.queueUs, cp.totalUs);
    }

    // Shutdown stops the admin server with the service: connections
    // are refused afterwards, never served stale state.
    service.shutdown();
    EXPECT_TRUE(adminGet(port, "/healthz").empty());
}

} // namespace
} // namespace cegma
