/**
 * @file
 * The retrieval cascade: filter -> shortlist -> (caller's) exact
 * verify, following the Neural Subgraph Matching decomposition.
 *
 * Serving a query against an N-graph corpus exhaustively costs N exact
 * GMN scores. The cascade spends two cheap stages first, both run by
 * the live corpus (`LiveCorpus::shortlist`, corpus/live_corpus.hh)
 * over the per-graph keys of retrieval/coarse.hh:
 *
 *   1. *Tag filter*: inverted posting lists over canonical WL
 *      signatures prune candidates whose tag overlap with the query
 *      falls below a threshold.
 *   2. *Coarse shortlist*: survivors are ranked by the model's own
 *      query-conditioned coarse scorer over stored per-graph
 *      descriptors when the model decomposes its head (SimGNN), else
 *      by squared L2 distance between pooled per-graph embedding
 *      chains (or a WL sketch for cross-feedback models), and cut to
 *      the top C.
 *
 * Only the shortlist reaches the exact GMN — and those scores are
 * bit-identical to what exhaustive mode produces for the same pairs,
 * because the cascade changes *which* pairs are scored, never *how*.
 * Exhaustive mode is the same path with every visible slot as the
 * candidate list, so it stays the oracle: cascade trades recall (a
 * true top-k hit pruned early is gone) for a per-query cost that
 * scales with the shortlist, not the corpus.
 */

#ifndef CEGMA_RETRIEVAL_RETRIEVAL_HH
#define CEGMA_RETRIEVAL_RETRIEVAL_HH

#include <cstddef>

namespace cegma {

/** Candidate selection policy of a `SearchService`. */
enum class RetrievalMode
{
    Exhaustive, ///< score every corpus graph (the oracle)
    Cascade,    ///< tag filter -> coarse shortlist -> exact verify
};

/** @return "exhaustive" / "cascade". */
const char *retrievalModeName(RetrievalMode mode);

/** Knobs of the cascade. */
struct RetrievalConfig
{
    RetrievalMode mode = RetrievalMode::Exhaustive;

    /**
     * Exact-verify budget per query: at most this many survivors reach
     * the GMN. 0 = unlimited (tag filter only).
     */
    size_t shortlist = 64;

    /**
     * Stage-1 threshold: candidates must share at least
     * ceil(tagPrune * |query tags|) WL tags. <= 0 disables pruning.
     * Off by default: WL-tag overlap is a *structural* filter, the
     * right tool when relevance means "near-clone of the query", but
     * it can prune candidates an exact model ranks highly for
     * non-structural reasons — so recall-gated deployments leave it at
     * 0 and lean on the model-aware shortlist, while clone-retrieval
     * workloads opt in for the extra pruning.
     */
    double tagPrune = 0.0;

    /** WL depth of the tag index (levels of neighborhood context). */
    unsigned tagLevel = 1;

    /** WL-sketch width for models without per-graph embeddings. */
    unsigned sketchDim = 128;
};

/** Per-query stage sizes, for metrics and tests. */
struct RetrievalStages
{
    size_t corpus = 0;     ///< candidates entering the cascade
    size_t survivors = 0;  ///< after the tag filter
    size_t shortlisted = 0; ///< after the coarse stage = exact scores run
};

} // namespace cegma

#endif // CEGMA_RETRIEVAL_RETRIEVAL_HH
