/**
 * @file
 * Cross-pair memoization for the functional inference path.
 *
 * Serving workloads (clone search, library screening) pair the same
 * graph against many partners, yet a naive runner re-runs WL
 * refinement and the per-graph embedding chain for every pair. Both
 * are pure functions of one graph (for the non-cross-feedback models,
 * whose embeddings never see the partner graph), so this cache keys
 * them by *graph identity* — a content fingerprint over the CSR arrays
 * and labels, because pairs hold graphs by value and pointer identity
 * does not survive pair construction.
 *
 * Storage is a pair of bounded, sharded LRU caches
 * (common/sharded_lru.hh): under sustained serving traffic the working
 * set must not grow without limit, so a byte budget with LRU eviction
 * replaces the seed's unbounded single-mutex maps. Eviction never
 * changes any produced bit — a rebuilt entry is bit-identical to the
 * evicted one (everything memoized here is deterministic) — it only
 * costs the rebuild.
 *
 * Thread safety: lookups and insertions lock only the owning shard;
 * builds run outside any lock, and when two threads race to build the
 * same key the first insert wins and the loser's (bit-identical)
 * result is discarded.
 */

#ifndef CEGMA_GMN_MEMO_HH
#define CEGMA_GMN_MEMO_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sharded_lru.hh"
#include "graph/graph.hh"
#include "graph/wl_refine.hh"
#include "tensor/matrix.hh"

namespace cegma {

/**
 * Content identity of a graph: two 32-bit XXHash digests over the
 * adjacency lists and labels plus the exact node/arc counts. Equal
 * keys for distinct graphs would need a simultaneous 64-bit hash
 * collision at equal shape — negligible against the caches' scale.
 */
struct GraphKey
{
    uint64_t digest = 0; ///< two seeded XXH32 runs, concatenated
    uint64_t nodes = 0;
    uint64_t arcs = 0;

    bool operator==(const GraphKey &other) const = default;
};

/** @return the content key of `g`. */
GraphKey graphKey(const Graph &g);

struct GraphKeyHash
{
    size_t operator()(const GraphKey &k) const
    {
        return static_cast<size_t>(k.digest ^ (k.nodes * 0x9e3779b97f4a7c15ull) ^ k.arcs);
    }
};

/** One graph side's embedding chain, as a model produced it. */
struct GraphEmbedding
{
    /**
     * Node features per level: index 0 is the encoded input, index l
     * the output of embedding layer l (size numLayers + 1).
     */
    std::vector<Matrix> layers;

    /**
     * SimGNN's graph-level projection hx = project(readout(last
     * layer)), 1 x 128: the NTN input of its exact head and the first
     * half of its coarse descriptor, stored so neither recomputes it
     * per pair. Empty for models without one.
     */
    Matrix projection;
};

/** Approximate resident bytes of a WL coloring. */
size_t wlColoringBytes(const WlColoring &wl);

/** Approximate resident bytes of an embedding chain. */
size_t graphEmbeddingBytes(const GraphEmbedding &embed);

/** Capacity/sharding knobs for a `MemoCache`. */
struct MemoConfig
{
    /**
     * Total byte budget across both entry families; 0 = unbounded
     * (the single-shot benchmark behavior). Embeddings get 7/8 of the
     * budget and WL colorings 1/8 — an embedding chain is roughly 20x
     * the bytes of its coloring (numLayers+1 dense 64-wide float
     * matrices vs 12 bytes per node per level).
     */
    size_t maxBytes = 0;

    /** Shards per family (per-shard mutex; budget split evenly). */
    uint32_t shards = 8;
};

/**
 * The memoization layer: WL colorings (any model) and per-graph layer
 * embeddings (non-cross-feedback models only — GMN-Li's embeddings
 * depend on the partner graph and are never cached; see
 * `GmnModel::embeddingMemo`).
 *
 * One cache serves one model instance: embeddings bake in the model's
 * weights, so sharing a cache across differently-seeded models would
 * return wrong features. WL colorings are model-independent.
 */
class MemoCache
{
  public:
    explicit MemoCache(const MemoConfig &config = {});

    /** Memoized `wlRefine(g, num_layers)`. */
    std::shared_ptr<const WlColoring> wl(const Graph &g,
                                         unsigned num_layers);

    /**
     * Memoized per-graph embedding chain; `build` runs on a miss (and
     * must be a pure function of `g`).
     */
    std::shared_ptr<const GraphEmbedding>
    embedding(const Graph &g,
              const std::function<GraphEmbedding()> &build);

    /**
     * Drop every memo entry derived from the graph with content key
     * `key` — its embedding chain and its WL colorings at every depth.
     * Called when a corpus entry is removed so its bytes are reclaimed
     * promptly instead of aging out by LRU. Never required for
     * correctness: entries are content-keyed and deterministic, so a
     * stale entry for a re-inserted identical graph replays identical
     * bits.
     *
     * @return number of entries removed
     */
    size_t invalidate(const GraphKey &key);

    /** Convenience overload: `invalidate(graphKey(g))`. */
    size_t invalidate(const Graph &g);

    /** Lookups that returned a cached value (both families). */
    size_t hits() const;

    /** Lookups that had to build (both families). */
    size_t misses() const;

    /** Entries evicted to stay inside the byte budget. */
    size_t evictions() const;

    /** Resident bytes (never exceeds `config().maxBytes` when set). */
    size_t bytes() const;

    /** WL-coloring lookups (hits + misses). */
    size_t wlLookups() const;

    /**
     * Embedding-chain lookups (hits + misses). Exactly 0 when the
     * cache only ever served a cross-feedback model — the guard the
     * "memo is never a regression for GMN-Li" test asserts.
     */
    size_t embeddingLookups() const;

    /**
     * Total wall time spent in cache lookups and insertions (both
     * families), excluding miss-path builds. This is the price of
     * having the memo layer at all; the serving stats reporter turns
     * it into the memo share of a request's latency breakdown.
     * Identically 0 until a consumer enables lookup timing.
     */
    uint64_t lookupNs() const
    {
        return lookupNs_.load(std::memory_order_relaxed);
    }

    /**
     * Turn the `lookupNs()` wall-time accounting on or off (default
     * off). The lookup paths run on every scored pair, so with no
     * consumer the two `obs::nowNs()` clock reads per lookup are pure
     * overhead; the gate is one relaxed atomic load, the same pattern
     * `StageScope` uses for attribution. `SearchService` enables it —
     * it surfaces `serve.memo.lookup_us` and the memo latency share —
     * while bare caches (index builds, unit tests) stay clock-free.
     */
    void setLookupTimingEnabled(bool enabled)
    {
        lookupTiming_.store(enabled, std::memory_order_relaxed);
    }

    bool lookupTimingEnabled() const
    {
        return lookupTiming_.load(std::memory_order_relaxed);
    }

    const MemoConfig &config() const { return config_; }

  private:
    struct WlKey
    {
        GraphKey graph;
        unsigned layers = 0;
        bool operator==(const WlKey &other) const = default;
    };
    struct WlKeyHash
    {
        size_t operator()(const WlKey &k) const
        {
            return GraphKeyHash{}(k.graph) * 31 + k.layers;
        }
    };

    /** Count `ns` into `lookupNs_` and the current request's memo
     *  stage (per-request critical-path attribution). */
    void noteLookupNs(uint64_t ns) const;

    MemoConfig config_;
    ShardedLruCache<WlKey, WlColoring, WlKeyHash> wl_;
    ShardedLruCache<GraphKey, GraphEmbedding, GraphKeyHash> embeddings_;

    /** Accumulated lookup/insert time; telemetry only, never control
     *  flow, so relaxed ordering suffices. */
    mutable std::atomic<uint64_t> lookupNs_{0};

    /** Gates the clock reads around lookups (see the setter). */
    std::atomic<bool> lookupTiming_{false};
};

} // namespace cegma

#endif // CEGMA_GMN_MEMO_HH
