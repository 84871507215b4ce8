/**
 * @file
 * The live corpus: the graph store behind `SearchService`, supporting
 * online insert/remove under an epoch/snapshot scheme while queries
 * are in flight.
 *
 * Consistency model (MVCC by epoch stamping, no copying):
 *
 *   - Entries live in append-only *slots*. A slot is written fully
 *     (graph, tags, coarse descriptor) while still invisible, then a
 *     `flush()` publishes all staged mutations as one new epoch E by
 *     bumping the published-slot bound (inserts) and stamping
 *     tombstones `diedEpoch = E` (removes).
 *   - A `CorpusSnapshot` pins (epoch, bound) at a batch flush; slot s
 *     is visible to it iff `s < bound && epoch < diedEpoch(s)`. A
 *     snapshot therefore keeps seeing entries removed *after* it was
 *     pinned, and never sees entries inserted after — a consistent
 *     view with zero per-snapshot copying, O(mutations) per epoch.
 *   - Slot storage is chunked with a fixed directory of atomic chunk
 *     pointers, so readers never race a reallocation; published slot
 *     payloads are immutable until reclaimed.
 *   - Each 512-slot chunk keeps its slots' coarse descriptors as one
 *     contiguous 512 x dim float block plus per-row squared norms.
 *     A row is written once, while its slot is still unpublished, and
 *     readers never touch a row at or past their snapshot's bound —
 *     an insert may be writing it.
 *   - An epoch E is *retired* (counted in `epochsReclaimed`) once a
 *     newer epoch exists and E's last pinned snapshot is released.
 *     Compaction then reclaims what no live or future snapshot can
 *     see: tombstoned slots' graphs, tags and posting entries are
 *     dropped once `diedEpoch <= min(pinned epochs)` (descriptor rows
 *     stay in their block, invisible; their bytes are not freed). Because
 *     everything compaction touches is invisible to every possible
 *     snapshot, compaction timing can never change a query result.
 *
 * The corpus is also the program's only retrieval index: it keeps the
 * cascade's stage-1 WL-tag postings and stage-2 descriptor blocks
 * (retrieval/retrieval.hh) next to the slots they describe, and a
 * fixed corpus is just one that is bootstrapped and never mutated.
 *
 * Index maintenance is incremental: inserts extend the WL-tag posting
 * lists and store a per-graph coarse descriptor computed at insert
 * into the chunk's block (the descriptor callback runs the model's
 * pool-parallel kernels);
 * removes are free at mutation time — tombstone filtering happens at
 * query time via the visibility check — and are physically erased by
 * periodic compaction when the dead-posting ratio passes the
 * configured threshold. Removal also fires a hook the service uses to
 * invalidate the removed graph's content-keyed memo entries (an
 * optimization, never a correctness requirement: memo entries replay
 * identical bits).
 *
 * Determinism: `shortlist` is a pure function of (snapshot-visible
 * entries, stored descriptor bits, query, knobs) — independent of
 * thread count, posting order, compaction timing and how survivors
 * fall into chunks (each chunk's survivors are keyed by one scorer
 * call, and keys are per-row functions) — so an offline replay of the
 * same mutation schedule reproduces every served shortlist and score
 * bit for bit.
 */

#ifndef CEGMA_CORPUS_LIVE_CORPUS_HH
#define CEGMA_CORPUS_LIVE_CORPUS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.hh"
#include "retrieval/retrieval.hh"

namespace cegma {

class CoarseScorer;
class GmnModel;
struct CorpusStore;

/** Epoch value meaning "still alive". */
inline constexpr uint64_t kSlotAlive = ~0ull;

/** `ServeConfig.mutation`: knobs of the live-corpus subsystem. */
struct MutationConfig
{
    /**
     * Slot capacity: bootstrap size + total inserts over the corpus
     * lifetime must fit (slots are append-only; compaction reclaims
     * graph and tag bytes, not slot numbers or descriptor rows). The
     * chunk directory is sized from this at bootstrap, which is what
     * lets readers walk slots without any lock. Inserts past the cap
     * are refused with a warning. The default costs ~16 KiB of
     * directory.
     */
    size_t maxSlots = 1u << 21;

    /**
     * Compact the posting lists (and reclaim dead slots' payloads)
     * when reclaimable postings exceed this fraction of all postings.
     * <= 0 compacts at every flush; >= 1 never compacts.
     */
    double compactTombstoneRatio = 0.25;
};

/**
 * An immutable view of the corpus at one epoch. Obtained from
 * `LiveCorpus::pin()`; releasing the last `shared_ptr` unpins the
 * epoch, which is what lets retired epochs be reclaimed. Cheap to
 * hold — a snapshot is (store ref, epoch, bound), not a copy.
 */
class CorpusSnapshot
{
  public:
    ~CorpusSnapshot();

    CorpusSnapshot(const CorpusSnapshot &) = delete;
    CorpusSnapshot &operator=(const CorpusSnapshot &) = delete;

    /** The epoch this snapshot observes. */
    uint64_t epoch() const { return epoch_; }

    /** Slots below this bound existed at pin time (visible or dead). */
    uint32_t bound() const { return bound_; }

    /** Number of entries visible to this snapshot. */
    size_t liveCount() const { return live_; }

    /** True when slot `s` is visible to this snapshot. */
    bool visible(uint32_t s) const;

    /** Graph in slot `s` (must be `visible(s)`). */
    const Graph &graph(uint32_t s) const;

    /** Stable 64-bit id of slot `s` (must be `visible(s)`). */
    uint64_t id(uint32_t s) const;

    /** All visible slots, ascending — the exhaustive candidate list. */
    std::vector<uint32_t> liveSlots() const;

    /** `id(s)` for every visible slot, ascending by slot. */
    std::vector<uint64_t> liveIds() const;

  private:
    friend class LiveCorpus;
    CorpusSnapshot(std::shared_ptr<CorpusStore> store, uint64_t epoch,
                   uint32_t bound, size_t live);

    std::shared_ptr<CorpusStore> store_;
    uint64_t epoch_;
    uint32_t bound_;
    size_t live_;
};

/**
 * The mutable corpus. Thread safety: any number of concurrent readers
 * (pin / snapshot access / shortlist) against any number of mutator
 * threads (insert / remove / flush; mutators serialize on an internal
 * mutex). Snapshots stay valid across — and are never changed by —
 * concurrent mutations, flushes, and compactions.
 */
class LiveCorpus
{
  public:
    using SnapshotPtr = std::shared_ptr<const CorpusSnapshot>;

    /**
     * Computes a graph's stored coarse descriptor at insert time into
     * a reused scratch vector (out-param, so the callback never
     * materializes a per-graph temporary — it runs once per corpus
     * entry at bootstrap and once per insert); the corpus copies it
     * into the slot's block row. The first descriptor fixes the width.
     */
    using DescriptorFn =
        std::function<void(const Graph &, std::vector<float> &)>;

    /** Fired at flush for each removed graph (memo invalidation). */
    using RemovalHook = std::function<void(const Graph &)>;

    explicit LiveCorpus(const MutationConfig &config = {});
    ~LiveCorpus();

    /**
     * Turn on incremental retrieval-index maintenance (WL-tag postings
     * at `retrieval.tagLevel` plus per-slot coarse descriptors via
     * `descriptor`). `model_aware` selects ranking by the model's
     * `CoarseScorer` instead of L2 distance. Must be called before
     * `bootstrap`.
     */
    void enableIndex(const RetrievalConfig &retrieval, bool model_aware,
                     DescriptorFn descriptor);

    /** Install the removed-graph hook. Call before mutating. */
    void setRemovalHook(RemovalHook hook);

    /**
     * Load the initial corpus as epoch 0. Call exactly once, before
     * any concurrent use. Tags and descriptors are computed
     * index-parallel on the pool. `ids[i]` is `graphs[i]`'s stable id
     * (ids must be distinct); slot order is `graphs` order, so a
     * never-mutated corpus scores in exactly the legacy vector order.
     */
    void bootstrap(std::vector<Graph> graphs, std::vector<uint64_t> ids);

    /**
     * Stage an insert under stable id `id`. The entry becomes visible
     * at the next `flush()`. Fails (false) on a duplicate live/staged
     * id or when the slot cap is reached.
     */
    bool insert(uint64_t id, Graph g);

    /**
     * Stage a remove of `id`. Entries stay visible to already-pinned
     * snapshots; snapshots pinned after the next `flush()` no longer
     * see it. Fails (false) when `id` is not live/staged.
     */
    bool remove(uint64_t id);

    /**
     * Publish all staged mutations as one new epoch. No-op (returning
     * the current epoch) when nothing is staged. May trigger posting
     * compaction per `MutationConfig::compactTombstoneRatio`.
     *
     * @return the epoch now current
     */
    uint64_t flush();

    /** Pin the current epoch; release the pointer to unpin. */
    SnapshotPtr pin() const;

    /**
     * Stages 1–2 of the retrieval cascade against `snap`'s view: the
     * visible slots the exact stage must score, ascending. Requires
     * `enableIndex`. Pure function of (snapshot view, query, knobs);
     * see the file comment's determinism contract.
     */
    std::vector<uint32_t> shortlist(const CorpusSnapshot &snap,
                                    const Graph &query,
                                    const GmnModel &model,
                                    RetrievalStages *stages = nullptr) const;

    /**
     * Stage 2 alone: the `retrieval.shortlist` entries of `survivors`
     * (visible slots of `snap`, ascending — stage 1's output) with the
     * lowest `scorer` keys over their stored descriptor rows,
     * ascending; all of them when they fit the budget. Each chunk's
     * survivors are keyed by one `scorer.keys` call over the chunk's
     * descriptor block.
     */
    std::vector<uint32_t>
    shortlist(const CorpusSnapshot &snap, const CoarseScorer &scorer,
              const std::vector<uint32_t> &survivors) const;

    /**
     * Re-point the query-time cascade knobs (shortlist budget,
     * tag-prune threshold); build-time knobs are fixed. Not
     * thread-safe against concurrent `shortlist` calls.
     */
    void setQueryKnobs(size_t shortlist, double tag_prune);

    /// @name Stats (monotonic unless noted; safe to poll concurrently)
    /// @{
    uint64_t epoch() const;           ///< current epoch
    size_t liveCount() const;         ///< visible entries at current epoch
    uint32_t slotCount() const;       ///< published slots (incl. dead)
    uint64_t inserts() const;         ///< accepted inserts
    uint64_t removes() const;         ///< accepted removes
    size_t tombstones() const;        ///< dead slots awaiting reclaim
    uint64_t epochsReclaimed() const; ///< retired epochs
    uint64_t compactions() const;     ///< compaction passes run
    size_t indexBytes() const;        ///< postings + tags + blocks
    /// @}

    const MutationConfig &config() const { return config_; }
    const RetrievalConfig &retrievalConfig() const { return retrieval_; }

  private:
    struct Index;

    void compactLocked(uint64_t min_retain);
    std::vector<uint32_t> survivorsLocked(const CorpusSnapshot &snap,
                                          const std::vector<uint64_t> &tags) const;

    MutationConfig config_;
    RetrievalConfig retrieval_;
    bool maintainIndex_ = false;
    bool modelAware_ = false;
    DescriptorFn descriptor_;
    RemovalHook removalHook_;

    std::shared_ptr<CorpusStore> store_;
    std::unique_ptr<Index> index_;
};

} // namespace cegma

#endif // CEGMA_CORPUS_LIVE_CORPUS_HH
