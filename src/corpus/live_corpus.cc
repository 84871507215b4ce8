#include "corpus/live_corpus.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "gmn/model.hh"
#include "obs/trace.hh"
#include "retrieval/coarse.hh"
#include "tensor/matrix.hh"

namespace cegma {

/**
 * The slot store plus the epoch/pin registry. Shared (shared_ptr)
 * between the corpus and every outstanding snapshot, so a snapshot
 * stays safe even if it outlives the `LiveCorpus` that produced it.
 */
struct CorpusStore
{
    static constexpr uint32_t kChunkBits = 9;
    static constexpr uint32_t kChunkSize = 1u << kChunkBits;

    struct Slot
    {
        uint64_t id = 0;
        Graph graph;
        std::vector<uint64_t> tags;  ///< WL tag set (index enabled)
        /**
         * First epoch that does NOT see this slot; `kSlotAlive` while
         * live. Written exactly once (at the publishing flush) after
         * which the payload above is immutable until compaction —
         * which only runs once no snapshot can reach the slot.
         */
        std::atomic<uint64_t> diedEpoch{kSlotAlive};
        bool payloadFreed = false; ///< mutator-only (compaction state)
    };

    struct Chunk
    {
        std::array<Slot, kChunkSize> slots;

        /**
         * The chunk's coarse descriptors (index enabled): row r, of
         * `coarseDim` floats, is slots[r]'s descriptor and norms[r]
         * its squared L2 norm. A row is written once, by the mutator
         * filling its slot, before the slot is published, and never
         * again — compaction leaves it in place. Readers touch only
         * rows below their snapshot's bound.
         */
        std::unique_ptr<float[]> coarse;
        std::unique_ptr<float[]> norms;
    };

    explicit CorpusStore(size_t max_slots)
        : capacity(max_slots),
          dir((max_slots + kChunkSize - 1) / kChunkSize)
    {
    }

    Slot &slot(uint32_t s)
    {
        return dir[s >> kChunkBits].load(std::memory_order_acquire)
            ->slots[s & (kChunkSize - 1)];
    }

    const Slot &slot(uint32_t s) const
    {
        return dir[s >> kChunkBits].load(std::memory_order_acquire)
            ->slots[s & (kChunkSize - 1)];
    }

    const Chunk &chunkOf(uint32_t s) const
    {
        return *dir[s >> kChunkBits].load(std::memory_order_acquire);
    }

    /**
     * Mutator-only: make sure slot `s` is backed by a chunk, and the
     * chunk by a descriptor block once the width is known.
     */
    void ensureChunk(uint32_t s)
    {
        uint32_t c = s >> kChunkBits;
        Chunk *chunk = dir[c].load(std::memory_order_relaxed);
        if (chunk == nullptr) {
            chunks.push_back(std::make_unique<Chunk>());
            chunk = chunks.back().get();
            dir[c].store(chunk, std::memory_order_release);
        }
        if (coarseDim > 0 && chunk->coarse == nullptr) {
            // Exact size, outside the workspace pool: its power-of-two
            // buckets would round a 288-KiB block up to 512 KiB.
            chunk->coarse.reset(new float[kChunkSize * coarseDim]);
            chunk->norms.reset(new float[kChunkSize]);
            blockBytes.fetch_add(kChunkSize * (coarseDim + 1) *
                                     sizeof(float),
                                 std::memory_order_relaxed);
        }
    }

    /**
     * Mutator-only (or bootstrap-parallel, one slot per caller): copy
     * `v` into slot `s`'s block row and store its squared norm.
     */
    void storeCoarse(uint32_t s, const std::vector<float> &v)
    {
        cegma_assert(v.size() == coarseDim);
        Chunk &chunk = *dir[s >> kChunkBits].load(std::memory_order_acquire);
        uint32_t r = s & (kChunkSize - 1);
        std::copy(v.begin(), v.end(),
                  chunk.coarse.get() + static_cast<size_t>(r) * coarseDim);
        float norm = 0.0f;
        for (float x : v)
            norm += x * x;
        chunk.norms[r] = norm;
    }

    /** Pin the current epoch (under `pinMutex`). */
    void pinCurrent(uint64_t &epoch, uint32_t &bound, size_t &live)
    {
        std::lock_guard<std::mutex> lock(pinMutex);
        epoch = currentEpoch;
        bound = currentBound;
        live = currentLive;
        ++pins[epoch];
    }

    void unpin(uint64_t epoch)
    {
        std::lock_guard<std::mutex> lock(pinMutex);
        auto it = pins.find(epoch);
        if (--it->second == 0)
            pins.erase(it);
        advanceRetired();
    }

    /**
     * Retire every epoch that is superseded and no longer pinned
     * (`pinMutex` held). The `epochsReclaimed` counter is the
     * no-unbounded-growth proof the acceptance gate asserts.
     */
    void advanceRetired()
    {
        while (oldestLive < currentEpoch && pins.count(oldestLive) == 0) {
            ++oldestLive;
            epochsReclaimed.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /** Oldest pinned epoch, or the current one when nothing is pinned
     *  (`pinMutex` taken inside). Compaction's reclaim horizon. */
    uint64_t minRetainEpoch() const
    {
        std::lock_guard<std::mutex> lock(pinMutex);
        return pins.empty() ? currentEpoch : pins.begin()->first;
    }

    const size_t capacity;

    /**
     * Chunk directory: fixed size, so readers index it without any
     * lock; `ensureChunk` publishes new chunks with a release store
     * before any slot in them becomes visible.
     */
    std::vector<std::atomic<Chunk *>> dir;
    std::vector<std::unique_ptr<Chunk>> chunks; ///< mutator-only

    /**
     * Descriptor width, fixed by the first descriptor stored; written
     * before any row is, so a reader that reaches a row sees it.
     */
    size_t coarseDim = 0;
    std::atomic<size_t> blockBytes{0}; ///< allocated block bytes

    /** Published-slot bound; release-stored at flush. */
    std::atomic<uint32_t> publishedSlots{0};

    /// @name Epoch/pin registry, all guarded by `pinMutex`
    /// @{
    mutable std::mutex pinMutex;
    uint64_t currentEpoch = 0;
    uint32_t currentBound = 0;
    size_t currentLive = 0;
    std::map<uint64_t, uint32_t> pins; ///< epoch -> pin count
    uint64_t oldestLive = 0;           ///< oldest unretired epoch
    /// @}

    std::atomic<uint64_t> epochsReclaimed{0};
    std::atomic<uint64_t> epochGauge{0};
    std::atomic<size_t> liveGauge{0};
};

/** Live inverted WL-tag index plus mutation staging state. */
struct LiveCorpus::Index
{
    /**
     * Guards the posting map for the (brief) shared-lock survivor
     * walks against exclusive-lock insert batches and compactions.
     * Exact scoring never holds it — visibility filtering makes
     * tombstoning free at mutation time.
     */
    mutable std::shared_mutex mutex;
    std::unordered_map<uint64_t, std::vector<uint32_t>> postings;
    size_t postingCount = 0;
    size_t deadPostings = 0; ///< postings of tombstoned slots

    /// @name Mutation staging, guarded by `mutMutex`
    /// @{
    std::mutex mutMutex;
    std::vector<uint32_t> stagedInserts;
    std::vector<uint32_t> stagedRemoves;
    std::unordered_map<uint64_t, uint32_t> slotOfId;
    uint32_t nextSlot = 0;
    bool capacityWarned = false;
    std::vector<float> descriptor; ///< insert's descriptor scratch
    /// @}

    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> removes{0};
    std::atomic<size_t> reclaimedSlots{0};
    std::atomic<uint64_t> compactions{0};
    std::atomic<size_t> payloadBytes{0}; ///< resident tag bytes
};

namespace {

size_t
slotPayloadBytes(const CorpusStore::Slot &slot)
{
    return slot.tags.size() * sizeof(uint64_t);
}

} // namespace

CorpusSnapshot::CorpusSnapshot(std::shared_ptr<CorpusStore> store,
                               uint64_t epoch, uint32_t bound,
                               size_t live)
    : store_(std::move(store)), epoch_(epoch), bound_(bound), live_(live)
{
}

CorpusSnapshot::~CorpusSnapshot()
{
    store_->unpin(epoch_);
}

bool
CorpusSnapshot::visible(uint32_t s) const
{
    return s < bound_ &&
           epoch_ < store_->slot(s).diedEpoch.load(
                        std::memory_order_acquire);
}

const Graph &
CorpusSnapshot::graph(uint32_t s) const
{
    return store_->slot(s).graph;
}

uint64_t
CorpusSnapshot::id(uint32_t s) const
{
    return store_->slot(s).id;
}

std::vector<uint32_t>
CorpusSnapshot::liveSlots() const
{
    std::vector<uint32_t> slots;
    slots.reserve(live_);
    for (uint32_t s = 0; s < bound_; ++s) {
        if (visible(s))
            slots.push_back(s);
    }
    return slots;
}

std::vector<uint64_t>
CorpusSnapshot::liveIds() const
{
    std::vector<uint64_t> ids;
    ids.reserve(live_);
    for (uint32_t s = 0; s < bound_; ++s) {
        if (visible(s))
            ids.push_back(id(s));
    }
    return ids;
}

LiveCorpus::LiveCorpus(const MutationConfig &config)
    : config_(config), index_(std::make_unique<Index>())
{
}

LiveCorpus::~LiveCorpus() = default;

void
LiveCorpus::enableIndex(const RetrievalConfig &retrieval, bool model_aware,
                        DescriptorFn descriptor)
{
    cegma_assert(store_ == nullptr); // before bootstrap
    retrieval_ = retrieval;
    maintainIndex_ = true;
    modelAware_ = model_aware;
    descriptor_ = std::move(descriptor);
}

void
LiveCorpus::setRemovalHook(RemovalHook hook)
{
    removalHook_ = std::move(hook);
}

void
LiveCorpus::bootstrap(std::vector<Graph> graphs,
                      std::vector<uint64_t> ids)
{
    CEGMA_TRACE_SCOPE_CAT("corpus.bootstrap", "corpus");
    cegma_assert(store_ == nullptr);
    cegma_assert(graphs.size() == ids.size());
    uint32_t n = static_cast<uint32_t>(graphs.size());

    // Size the chunk directory once: the fixed capacity is what lets
    // readers index it lock-free forever after.
    size_t cap = std::max(config_.maxSlots, static_cast<size_t>(n) * 2);
    store_ = std::make_shared<CorpusStore>(cap);
    // The first descriptor fixes the width (a constant of the model /
    // sketch config), so every chunk's block is sized before the
    // parallel fill.
    const bool descriptors = maintainIndex_ && descriptor_;
    std::vector<float> first;
    if (descriptors && n > 0) {
        descriptor_(graphs[0], first);
        cegma_assert(!first.empty());
        store_->coarseDim = first.size();
    }
    for (uint32_t s = 0; s < n; ++s)
        store_->ensureChunk(s);

    // Fill slots index-parallel: the tag sets and coarse descriptors
    // are the expensive part of an index build (10^5-scale corpora),
    // and each slot is written independently before anything is
    // published.
    parallelFor(0, n, 1, [&](size_t s0, size_t s1) {
        std::vector<float> v;
        for (size_t s = s0; s < s1; ++s) {
            auto slot_id = static_cast<uint32_t>(s);
            CorpusStore::Slot &slot = store_->slot(slot_id);
            slot.id = ids[s];
            slot.graph = std::move(graphs[s]);
            if (maintainIndex_)
                slot.tags = wlTagSet(slot.graph, retrieval_.tagLevel);
            if (descriptors) {
                if (s > 0)
                    descriptor_(slot.graph, v);
                store_->storeCoarse(slot_id, s > 0 ? v : first);
            }
        }
    });

    size_t payload = 0;
    {
        std::lock_guard<std::mutex> mut(index_->mutMutex);
        for (uint32_t s = 0; s < n; ++s) {
            const CorpusStore::Slot &slot = store_->slot(s);
            bool fresh = index_->slotOfId.emplace(slot.id, s).second;
            cegma_assert(fresh); // bootstrap ids must be distinct
            payload += slotPayloadBytes(slot);
        }
        index_->nextSlot = n;
        if (maintainIndex_) {
            std::unique_lock<std::shared_mutex> ix(index_->mutex);
            for (uint32_t s = 0; s < n; ++s) {
                for (uint64_t tag : store_->slot(s).tags)
                    index_->postings[tag].push_back(s);
                index_->postingCount += store_->slot(s).tags.size();
            }
        }
    }
    index_->payloadBytes.store(payload, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> pin(store_->pinMutex);
        store_->currentBound = n;
        store_->currentLive = n;
    }
    store_->publishedSlots.store(n, std::memory_order_release);
    store_->liveGauge.store(n, std::memory_order_relaxed);
}

bool
LiveCorpus::insert(uint64_t id, Graph g)
{
    cegma_assert(store_ != nullptr);
    std::lock_guard<std::mutex> mut(index_->mutMutex);
    if (index_->slotOfId.count(id) != 0)
        return false;
    if (index_->nextSlot >= store_->capacity) {
        if (!index_->capacityWarned) {
            index_->capacityWarned = true;
            warn("LiveCorpus: slot capacity %zu reached; refusing "
                 "inserts (raise MutationConfig::maxSlots)",
                 store_->capacity);
        }
        return false;
    }
    uint32_t s = index_->nextSlot++;
    store_->ensureChunk(s);
    CorpusStore::Slot &slot = store_->slot(s);
    slot.id = id;
    slot.graph = std::move(g);
    slot.diedEpoch.store(kSlotAlive, std::memory_order_relaxed);
    slot.payloadFreed = false;
    if (maintainIndex_) {
        // Tag extraction and the descriptor run here, at insert: the
        // descriptor callback drives the model's pool-parallel
        // kernels, so the index cost lands on the mutation path, not
        // on any query. The row lands past every snapshot's bound.
        slot.tags = wlTagSet(slot.graph, retrieval_.tagLevel);
        if (descriptor_) {
            std::vector<float> &v = index_->descriptor;
            descriptor_(slot.graph, v);
            if (store_->coarseDim == 0) {
                cegma_assert(!v.empty());
                store_->coarseDim = v.size();
                store_->ensureChunk(s);
            }
            store_->storeCoarse(s, v);
        }
    }
    index_->payloadBytes.fetch_add(slotPayloadBytes(slot),
                                   std::memory_order_relaxed);
    index_->slotOfId.emplace(id, s);
    index_->stagedInserts.push_back(s);
    index_->inserts.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
LiveCorpus::remove(uint64_t id)
{
    cegma_assert(store_ != nullptr);
    std::lock_guard<std::mutex> mut(index_->mutMutex);
    auto it = index_->slotOfId.find(id);
    if (it == index_->slotOfId.end())
        return false;
    index_->stagedRemoves.push_back(it->second);
    // Un-mapping now lets the same id be re-inserted within the same
    // staged batch (landing in a fresh slot, visible from the same
    // epoch the removal takes effect).
    index_->slotOfId.erase(it);
    index_->removes.fetch_add(1, std::memory_order_relaxed);
    return true;
}

uint64_t
LiveCorpus::flush()
{
    cegma_assert(store_ != nullptr);
    std::lock_guard<std::mutex> mut(index_->mutMutex);
    if (index_->stagedInserts.empty() && index_->stagedRemoves.empty()) {
        std::lock_guard<std::mutex> pin(store_->pinMutex);
        return store_->currentEpoch;
    }
    CEGMA_TRACE_SCOPE_CAT("corpus.flush", "corpus");

    // Stamp tombstones first: a snapshot pinned at epoch E stays
    // unaffected (E < E+1), and nothing new is visible until the
    // bound/epoch publish below.
    uint64_t new_epoch;
    {
        std::lock_guard<std::mutex> pin(store_->pinMutex);
        new_epoch = store_->currentEpoch + 1;
    }
    size_t dead = 0;
    for (uint32_t s : index_->stagedRemoves) {
        CorpusStore::Slot &slot = store_->slot(s);
        slot.diedEpoch.store(new_epoch, std::memory_order_release);
        dead += slot.tags.size();
        if (removalHook_)
            removalHook_(slot.graph);
    }
    if (maintainIndex_ && !index_->stagedInserts.empty()) {
        std::unique_lock<std::shared_mutex> ix(index_->mutex);
        for (uint32_t s : index_->stagedInserts) {
            for (uint64_t tag : store_->slot(s).tags)
                index_->postings[tag].push_back(s);
            index_->postingCount += store_->slot(s).tags.size();
        }
    }
    if (dead > 0) {
        std::unique_lock<std::shared_mutex> ix(index_->mutex);
        index_->deadPostings += dead;
    }

    size_t inserted = index_->stagedInserts.size();
    size_t removed = index_->stagedRemoves.size();
    index_->stagedInserts.clear();
    index_->stagedRemoves.clear();

    // Publish: pin() reads (epoch, bound, live) under the same mutex,
    // so a snapshot always observes a consistent triple.
    {
        std::lock_guard<std::mutex> pin(store_->pinMutex);
        store_->currentBound = index_->nextSlot;
        store_->currentEpoch = new_epoch;
        store_->currentLive += inserted;
        store_->currentLive -= removed;
        store_->publishedSlots.store(index_->nextSlot,
                                     std::memory_order_release);
        store_->liveGauge.store(store_->currentLive,
                                std::memory_order_relaxed);
        store_->epochGauge.store(new_epoch, std::memory_order_relaxed);
        store_->advanceRetired();
    }

    // Reclaim once enough postings point at tombstones nothing can
    // see. The horizon is the oldest pinned epoch, which can only
    // move *forward* while we hold mutMutex (new pins land at
    // new_epoch), so acting on it here is safe.
    bool want_compact;
    {
        std::shared_lock<std::shared_mutex> ix(index_->mutex);
        want_compact =
            index_->deadPostings > 0 &&
            static_cast<double>(index_->deadPostings) >=
                config_.compactTombstoneRatio *
                    static_cast<double>(
                        std::max<size_t>(index_->postingCount, 1));
    }
    // Even with no index, dead payloads (the graphs) are reclaimed on
    // the same trigger, using slot counts instead of posting counts.
    if (!maintainIndex_) {
        size_t total = index_->nextSlot;
        size_t dead_slots =
            index_->removes.load(std::memory_order_relaxed) -
            index_->reclaimedSlots.load(std::memory_order_relaxed);
        want_compact = dead_slots > 0 &&
                       static_cast<double>(dead_slots) >=
                           config_.compactTombstoneRatio *
                               static_cast<double>(
                                   std::max<size_t>(total, 1));
    }
    if (want_compact)
        compactLocked(store_->minRetainEpoch());
    return new_epoch;
}

void
LiveCorpus::compactLocked(uint64_t min_retain)
{
    CEGMA_TRACE_SCOPE_CAT("corpus.compact", "corpus");
    // A slot is reclaimable when every pinned epoch — and any future
    // pin, which lands at the current epoch or later — satisfies
    // `epoch >= diedEpoch`, i.e. diedEpoch <= min_retain. Everything
    // touched below is invisible to every reachable snapshot, which
    // is the "compaction never changes results" contract.
    uint32_t bound = store_->publishedSlots.load(std::memory_order_acquire);
    std::vector<uint8_t> drop(bound, 0);
    size_t dropped_slots = 0;
    size_t freed_bytes = 0;
    for (uint32_t s = 0; s < bound; ++s) {
        CorpusStore::Slot &slot = store_->slot(s);
        if (slot.payloadFreed)
            continue;
        if (slot.diedEpoch.load(std::memory_order_acquire) <= min_retain) {
            drop[s] = 1;
            ++dropped_slots;
            freed_bytes += slotPayloadBytes(slot);
            slot.payloadFreed = true;
            slot.graph = Graph();
            slot.tags = {};
        }
    }
    if (dropped_slots == 0)
        return;

    if (maintainIndex_) {
        std::unique_lock<std::shared_mutex> ix(index_->mutex);
        size_t remaining = 0;
        size_t remaining_dead = 0;
        for (auto it = index_->postings.begin();
             it != index_->postings.end();) {
            auto &list = it->second;
            list.erase(std::remove_if(list.begin(), list.end(),
                                      [&](uint32_t s) {
                                          return s < bound && drop[s];
                                      }),
                       list.end());
            if (list.empty()) {
                it = index_->postings.erase(it);
                continue;
            }
            remaining += list.size();
            for (uint32_t s : list) {
                if (store_->slot(s).diedEpoch.load(
                        std::memory_order_acquire) != kSlotAlive)
                    ++remaining_dead;
            }
            ++it;
        }
        index_->postingCount = remaining;
        index_->deadPostings = remaining_dead;
    }
    index_->reclaimedSlots.fetch_add(dropped_slots,
                                     std::memory_order_relaxed);
    index_->payloadBytes.fetch_sub(freed_bytes,
                                   std::memory_order_relaxed);
    index_->compactions.fetch_add(1, std::memory_order_relaxed);
}

LiveCorpus::SnapshotPtr
LiveCorpus::pin() const
{
    cegma_assert(store_ != nullptr);
    uint64_t epoch;
    uint32_t bound;
    size_t live;
    store_->pinCurrent(epoch, bound, live);
    return SnapshotPtr(
        new CorpusSnapshot(store_, epoch, bound, live));
}

std::vector<uint32_t>
LiveCorpus::survivorsLocked(const CorpusSnapshot &snap,
                            const std::vector<uint64_t> &tags) const
{
    // Stage 1: count each slot's shared tags along the posting lists
    // of the query's tags; the snapshot's visibility check is what
    // makes a slot part of the corpus, so tombstoned and
    // not-yet-published slots fall out here, which is why removals
    // cost nothing at mutation time.
    double min_overlap = retrieval_.tagPrune;
    if (min_overlap <= 0.0 || tags.empty())
        return snap.liveSlots();

    uint32_t bound = snap.bound();
    std::vector<uint32_t> counts(bound, 0);
    {
        std::shared_lock<std::shared_mutex> ix(index_->mutex);
        for (uint64_t tag : tags) {
            auto it = index_->postings.find(tag);
            if (it == index_->postings.end())
                continue;
            for (uint32_t s : it->second) {
                if (s < bound)
                    ++counts[s];
            }
        }
    }
    auto needed = static_cast<size_t>(std::ceil(
        min_overlap * static_cast<double>(tags.size())));
    needed = std::max<size_t>(needed, 1);
    std::vector<uint32_t> out;
    for (uint32_t s = 0; s < bound; ++s) {
        if (counts[s] >= needed && snap.visible(s))
            out.push_back(s);
    }
    return out;
}

std::vector<uint32_t>
LiveCorpus::shortlist(const CorpusSnapshot &snap, const Graph &query,
                      const GmnModel &model,
                      RetrievalStages *stages) const
{
    cegma_assert(maintainIndex_);
    CEGMA_TRACE_SCOPE_CAT("corpus.shortlist", "corpus");
    std::vector<uint64_t> tags = wlTagSet(query, retrieval_.tagLevel);
    std::vector<uint32_t> surv = survivorsLocked(snap, tags);
    if (stages) {
        stages->corpus = snap.liveCount();
        stages->survivors = surv.size();
    }

    std::vector<uint32_t> out;
    if (retrieval_.shortlist == 0 || surv.size() <= retrieval_.shortlist) {
        out = std::move(surv);
    } else {
        // Rank survivors by the stored descriptors: the model's own
        // query-conditioned coarse scorer when it decomposes its
        // head, else squared L2 against the query's coarse vector.
        std::unique_ptr<CoarseScorer> scorer =
            makeCoarseScorer(query, model, modelAware_,
                             retrieval_.tagLevel, retrieval_.sketchDim);
        out = shortlist(snap, *scorer, surv);
    }
    if (stages)
        stages->shortlisted = out.size();
    return out;
}

std::vector<uint32_t>
LiveCorpus::shortlist(const CorpusSnapshot &snap,
                      const CoarseScorer &scorer,
                      const std::vector<uint32_t> &survivors) const
{
    cegma_assert(maintainIndex_);
    const size_t budget = retrieval_.shortlist;
    if (budget == 0 || survivors.size() <= budget)
        return survivors;
    // Survivors ascend, so each chunk's survivors are one contiguous
    // run, keyed by one scorer call over the chunk's block. Every row
    // read is a visible slot, so below the snapshot's bound: rows past
    // it may be mid-write by an insert. Keys land in indexed output
    // slots, so the ranking is bit-identical at any thread count;
    // (key, slot) ties break toward the lower slot.
    constexpr uint32_t kBits = CorpusStore::kChunkBits;
    std::vector<uint32_t> rows(survivors.size());
    std::vector<size_t> runs; // run r is survivors[runs[r] .. runs[r+1])
    for (size_t i = 0; i < survivors.size(); ++i) {
        cegma_assert(survivors[i] < snap.bound());
        rows[i] = survivors[i] & (CorpusStore::kChunkSize - 1);
        if (i == 0 ||
            (survivors[i] >> kBits) != (survivors[i - 1] >> kBits))
            runs.push_back(i);
    }
    runs.push_back(survivors.size());
    const size_t dim = store_->coarseDim;
    cegma_assert(dim > 0);
    std::vector<float> keys(survivors.size());
    parallelFor(0, runs.size() - 1, 1, [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            const size_t i0 = runs[r];
            const CorpusStore::Chunk &chunk =
                store_->chunkOf(survivors[i0]);
            const CoarseBlock block{chunk.coarse.get(), chunk.norms.get(),
                                    dim};
            scorer.keys(block, rows.data() + i0, runs[r + 1] - i0,
                        keys.data() + i0);
        }
    });
    return lowestKeyed(keys, survivors, budget);
}

void
LiveCorpus::setQueryKnobs(size_t shortlist, double tag_prune)
{
    retrieval_.shortlist = shortlist;
    retrieval_.tagPrune = tag_prune;
}

uint64_t
LiveCorpus::epoch() const
{
    return store_ ? store_->epochGauge.load(std::memory_order_relaxed)
                  : 0;
}

size_t
LiveCorpus::liveCount() const
{
    return store_ ? store_->liveGauge.load(std::memory_order_relaxed)
                  : 0;
}

uint32_t
LiveCorpus::slotCount() const
{
    return store_ ? store_->publishedSlots.load(std::memory_order_acquire)
                  : 0;
}

uint64_t
LiveCorpus::inserts() const
{
    return index_->inserts.load(std::memory_order_relaxed);
}

uint64_t
LiveCorpus::removes() const
{
    return index_->removes.load(std::memory_order_relaxed);
}

size_t
LiveCorpus::tombstones() const
{
    return index_->removes.load(std::memory_order_relaxed) -
           index_->reclaimedSlots.load(std::memory_order_relaxed);
}

uint64_t
LiveCorpus::epochsReclaimed() const
{
    return store_
               ? store_->epochsReclaimed.load(std::memory_order_relaxed)
               : 0;
}

uint64_t
LiveCorpus::compactions() const
{
    return index_->compactions.load(std::memory_order_relaxed);
}

size_t
LiveCorpus::indexBytes() const
{
    size_t posting_bytes = 0;
    {
        std::shared_lock<std::shared_mutex> ix(index_->mutex);
        posting_bytes =
            index_->postingCount * sizeof(uint32_t) +
            index_->postings.size() *
                (sizeof(uint64_t) + sizeof(std::vector<uint32_t>));
    }
    return posting_bytes +
           index_->payloadBytes.load(std::memory_order_relaxed) +
           (store_ ? store_->blockBytes.load(std::memory_order_relaxed)
                   : 0);
}

} // namespace cegma
