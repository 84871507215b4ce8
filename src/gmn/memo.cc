#include "gmn/memo.hh"

#include "hash/xxhash.hh"
#include "obs/trace.hh"

namespace cegma {

GraphKey
graphKey(const Graph &g)
{
    GraphKey key;
    key.nodes = g.numNodes();
    key.arcs = g.numArcs();

    // Two independently-seeded streaming digests over the exact
    // structure: per-node (degree, sorted neighbors, label). The CSR
    // representation is canonical (sorted adjacency, deduplicated), so
    // equal content means equal streams.
    XxHash32Stream lo(0x5eed0001u);
    XxHash32Stream hi(0x5eed0002u);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        auto nbrs = g.neighbors(v);
        uint32_t head[2] = {static_cast<uint32_t>(nbrs.size()),
                            g.label(v)};
        lo.update(head, sizeof(head));
        hi.update(head, sizeof(head));
        lo.update(nbrs.data(), nbrs.size() * sizeof(NodeId));
        hi.update(nbrs.data(), nbrs.size() * sizeof(NodeId));
    }
    key.digest = (static_cast<uint64_t>(hi.digest()) << 32) |
                 lo.digest();
    return key;
}

size_t
wlColoringBytes(const WlColoring &wl)
{
    size_t bytes = sizeof(WlColoring);
    for (const auto &level : wl.signatures)
        bytes += level.size() * sizeof(uint64_t);
    for (const auto &level : wl.colors)
        bytes += level.size() * sizeof(uint32_t);
    bytes += wl.numClasses.size() * sizeof(uint32_t);
    return bytes;
}

size_t
graphEmbeddingBytes(const GraphEmbedding &embed)
{
    size_t bytes = sizeof(GraphEmbedding);
    for (const Matrix &m : embed.layers)
        bytes += sizeof(Matrix) + m.size() * sizeof(float);
    bytes += embed.projection.size() * sizeof(float);
    return bytes;
}

namespace {

/** WL colorings take 1/8 of the budget, embeddings the rest. */
size_t
wlBudget(size_t max_bytes)
{
    return max_bytes / 8;
}

size_t
embeddingBudget(size_t max_bytes)
{
    return max_bytes == 0 ? 0 : max_bytes - wlBudget(max_bytes);
}

} // namespace

MemoCache::MemoCache(const MemoConfig &config)
    : config_(config), wl_(wlBudget(config.maxBytes), config.shards),
      embeddings_(embeddingBudget(config.maxBytes), config.shards)
{
}

void
MemoCache::noteLookupNs(uint64_t ns) const
{
    lookupNs_.fetch_add(ns, std::memory_order_relaxed);
    // The memo share of a request's critical path, when the serving
    // layer is attributing the current request.
    obs::attributeStageNs(&obs::StageAccum::memoNs, ns);
}

std::shared_ptr<const WlColoring>
MemoCache::wl(const Graph &g, unsigned num_layers)
{
    CEGMA_TRACE_SCOPE_CAT("memo.wl", "memo");
    // These paths run on every scored pair: the clock reads bracketing
    // lookup and insert are gated on one relaxed load (the StageScope
    // pattern), so a cache with no timing consumer never touches the
    // clock.
    const bool timed = lookupTimingEnabled();
    uint64_t t0 = timed ? obs::nowNs() : 0;
    WlKey key{graphKey(g), num_layers};
    if (auto cached = wl_.find(key)) {
        if (timed)
            noteLookupNs(obs::nowNs() - t0);
        return cached;
    }
    if (timed)
        noteLookupNs(obs::nowNs() - t0);
    // Build outside any lock: wlRefine is deterministic, so a racing
    // duplicate build produces identical bits and the loser is simply
    // discarded by the first-insert-wins policy.
    auto built =
        std::make_shared<const WlColoring>(wlRefine(g, num_layers));
    size_t bytes = wlColoringBytes(*built);
    uint64_t t1 = timed ? obs::nowNs() : 0;
    auto out = wl_.insert(key, std::move(built), bytes);
    if (timed)
        noteLookupNs(obs::nowNs() - t1);
    return out;
}

std::shared_ptr<const GraphEmbedding>
MemoCache::embedding(const Graph &g,
                     const std::function<GraphEmbedding()> &build)
{
    CEGMA_TRACE_SCOPE_CAT("memo.embedding", "memo");
    const bool timed = lookupTimingEnabled();
    uint64_t t0 = timed ? obs::nowNs() : 0;
    GraphKey key = graphKey(g);
    if (auto cached = embeddings_.find(key)) {
        if (timed)
            noteLookupNs(obs::nowNs() - t0);
        return cached;
    }
    if (timed)
        noteLookupNs(obs::nowNs() - t0);
    auto built = std::make_shared<const GraphEmbedding>(build());
    size_t bytes = graphEmbeddingBytes(*built);
    uint64_t t1 = timed ? obs::nowNs() : 0;
    auto out = embeddings_.insert(key, std::move(built), bytes);
    if (timed)
        noteLookupNs(obs::nowNs() - t1);
    return out;
}

size_t
MemoCache::invalidate(const GraphKey &key)
{
    CEGMA_TRACE_SCOPE_CAT("memo.invalidate", "memo");
    size_t removed = embeddings_.erase(key) ? 1u : 0u;
    // WL colorings for one graph exist at every refinement depth a
    // model ever asked for — a key *family* sharing the GraphKey
    // prefix, removed with a predicate scan rather than exact keys.
    removed += wl_.eraseIf(
        [&key](const WlKey &k) { return k.graph == key; });
    return removed;
}

size_t
MemoCache::invalidate(const Graph &g)
{
    return invalidate(graphKey(g));
}

size_t
MemoCache::hits() const
{
    return wl_.hits() + embeddings_.hits();
}

size_t
MemoCache::misses() const
{
    return wl_.misses() + embeddings_.misses();
}

size_t
MemoCache::evictions() const
{
    return wl_.evictions() + embeddings_.evictions();
}

size_t
MemoCache::bytes() const
{
    return wl_.bytes() + embeddings_.bytes();
}

size_t
MemoCache::wlLookups() const
{
    return wl_.hits() + wl_.misses();
}

size_t
MemoCache::embeddingLookups() const
{
    return embeddings_.hits() + embeddings_.misses();
}

} // namespace cegma
