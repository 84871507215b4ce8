/**
 * @file
 * The three GMN models of Table I — GMN-Li [24], GraphSim [5], and
 * SimGNN [4] — as functional (floating-point) inference models, plus
 * their static configuration used by the workload tracer.
 *
 * These are the golden reference: the EMF's duplicate detection and the
 * accelerator's dedup short-cuts are validated against the per-layer
 * features and similarity matrices these models produce.
 */

#ifndef CEGMA_GMN_MODEL_HH
#define CEGMA_GMN_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gmn/similarity.hh"
#include "graph/dataset.hh"
#include "obs/metrics.hh"
#include "tensor/matrix.hh"

namespace cegma {

class MemoCache;
struct GraphEmbedding;

/** Model identifiers (Table I rows). */
enum class ModelId
{
    GmnLi,
    GraphSim,
    SimGnn,
};

/** All three models in the paper's presentation order. */
const std::vector<ModelId> &allModels();

/**
 * How matching results are consumed (Section IV-D): type (a) models
 * write similarities back to DRAM for a later head; type (b) models
 * feed them into the same layer's node update on-chip.
 */
enum class MatchUse
{
    WriteBack,   ///< type (a): SimGNN, GraphSim
    OnChipReuse, ///< type (b): GMN-Li
};

/** Static model description (the Table I row). */
struct ModelConfig
{
    ModelId id;
    std::string name;
    SimilarityKind similarity;
    unsigned numLayers;     ///< embedding layers
    size_t nodeDim;         ///< hidden node-feature width (64)
    bool layerwiseMatching; ///< matching every layer vs last layer only
    bool crossFeedback;     ///< matching feeds the node update (GMN-Li)
    MatchUse matchUse;
};

/** @return the Table I configuration of `id`. */
const ModelConfig &modelConfig(ModelId id);

/**
 * Live counters for the dedup runtime, safe to share across the
 * pair-parallel scoring threads (obs::Counter is a relaxed atomic;
 * the counts are telemetry, never control flow). Owners that expose a
 * metrics registry publish these through provider gauges — see
 * serve/service.cc.
 */
struct DedupStats
{
    /** Feature rows that entered a dedup'd matching stage. */
    obs::Counter rowsTotal;

    /** Rows the dense kernel actually ran on (the unique block). */
    obs::Counter rowsUnique;

    /** Fraction of rows the EMF skip elided (0 when nothing ran). */
    double skipRatio() const
    {
        uint64_t total = rowsTotal.value();
        uint64_t unique = rowsUnique.value();
        return total > 0
                   ? 1.0 - static_cast<double>(unique) /
                               static_cast<double>(total)
                   : 0.0;
    }
};

/**
 * Elastic execution knobs for the functional inference path. Neither
 * knob changes any produced bit: dedup scatters representative results
 * back through a `memcmp`-confirmed map, and the memo cache only
 * replays deterministic per-graph computations.
 */
struct InferenceOptions
{
    /**
     * Run the matching stage EMF-skipped: hash node features, compute
     * similarity on the unique-row block only, scatter back. GMN-Li
     * additionally dedups its cross-attention messages and, through
     * the same confirmed classes, its embedding stage (one edge-MLP
     * row per distinct arc, one update-MLP row per distinct node).
     */
    bool dedupMatching = false;

    /**
     * Cross-pair memoization of WL colorings and (for the
     * non-cross-feedback models) per-graph layer embeddings. One
     * cache per model instance; not owned.
     */
    MemoCache *memo = nullptr;

    /** Optional dedup telemetry sink (not owned; may be shared). */
    DedupStats *dedupStats = nullptr;

    /**
     * Optional per-stage timing sink (not owned): embed / match /
     * dedup / head durations per forward pass land in the referenced
     * histograms. Null members (or a null sink) cost two branches per
     * stage — the always-on serving default is to wire this.
     */
    const obs::StageSink *stages = nullptr;
};

/**
 * A row-major block of stored coarse descriptors: row r is the `dim`
 * floats at `data + r * dim`. `norms[r]` is row r's squared L2 norm
 * where the index keeps norms (the L2 key reads them; model-aware
 * scorers do not, and may get null).
 */
struct CoarseBlock
{
    const float *data = nullptr;
    const float *norms = nullptr;
    size_t dim = 0;

    const float *row(uint32_t r) const
    {
        return data + static_cast<size_t>(r) * dim;
    }
};

/**
 * A query-conditioned ranking function over stored per-graph coarse
 * descriptors — the retrieval cascade's shortlist stage. Built once
 * per query (implementations precompute every query-side term there),
 * then applied block by block: one call keys a list of rows of one
 * contiguous descriptor block, so dispatch, the head's GEMM chain and
 * its buffers are paid per block rather than per candidate. Keys rank
 * ascending (lower = more likely in the exact top-k) and are a ranking
 * surrogate only, with no bit-level relationship to `score`. Each key
 * is a function of its own row alone, bit for bit, so how rows are
 * grouped into calls never changes a key (DESIGN.md §7b). Safe to
 * call concurrently; must not outlive the model that built it.
 */
class CoarseScorer
{
  public:
    virtual ~CoarseScorer() = default;

    /** keys[i] = the key of row rows[i] of `block`, for i < n. */
    virtual void keys(const CoarseBlock &block, const uint32_t *rows,
                      size_t n, float *keys) const = 0;
};

/**
 * The part of a model's exact score that depends on the query graph
 * alone, built once per query by `GmnModel::queryTerms` and shared by
 * every pair of that query. Opaque and immutable, so any number of
 * threads may score with it at once; must not outlive its model.
 */
class QueryTerms
{
  public:
    virtual ~QueryTerms() = default;
};

/** Functional GMN inference model. */
class GmnModel
{
  public:
    virtual ~GmnModel() = default;

    const ModelConfig &config() const { return config_; }

    /** Everything the forward pass produced, for validation. */
    struct Detail
    {
        /**
         * Node features of the target/query graph after each
         * embedding layer; index 0 is the encoded input (so size is
         * numLayers + 1).
         */
        std::vector<Matrix> xLayers;
        std::vector<Matrix> yLayers;

        /**
         * Similarity matrices, one per matching layer (layer-wise
         * models produce numLayers of them, model-wise models one).
         */
        std::vector<Matrix> simLayers;

        /** The scalar similarity score. */
        double score = 0.0;
    };

    /**
     * Run inference, keeping all intermediates. Takes a non-owning
     * view so hot callers (the serving batch loop) can pair corpus
     * and query graphs without copying either; `GraphPair` converts
     * implicitly.
     */
    virtual Detail forwardDetailed(GraphPairView pair) const = 0;

    /**
     * Run inference, returning only the score: `score(pair, nullptr)`,
     * bit-identical to `forwardDetailed(pair).score`.
     */
    double score(GraphPairView pair) const
    {
        return scoreWith(pair, nullptr);
    }

    /**
     * The exact score of `pair`, bit-identical to
     * `forwardDetailed(pair).score`, taking the query-side work from
     * `terms`. `terms` must be null or the result of
     * `queryTerms(pair.query)` on this same model; null computes
     * those terms inline. A model may skip building the `Detail` here.
     */
    double score(GraphPairView pair, const QueryTerms *terms) const
    {
        return scoreWith(pair, terms);
    }

    /**
     * Everything of the exact score that depends on `query` alone,
     * for `score(pair, terms)` over many candidates of that query
     * (SimGNN: the query's embedding chain and its NTN products
     * W_k·hy and v_k[E:]·hy). Null when the model keeps no such terms
     * (GMN-Li's cross feedback, GraphSim), which `score` accepts.
     * Goes through the memo cache like `graphEmbedding`.
     */
    virtual std::shared_ptr<const QueryTerms>
    queryTerms(const Graph &query) const
    {
        (void)query;
        return nullptr;
    }

    /**
     * The per-graph embedding chain of `g` alone, or null when the
     * model has no partner-independent embedding (GMN-Li's cross
     * feedback makes every layer depend on the partner graph). When a
     * memo cache is wired it is consulted exactly like the forward
     * pass does, so a retrieval index built through this call warms
     * the same entries the exact scoring stage will hit. Used by the
     * coarse shortlist stage (retrieval/coarse.hh).
     */
    virtual std::shared_ptr<const GraphEmbedding>
    graphEmbedding(const Graph &g) const
    {
        (void)g;
        return nullptr;
    }

    /**
     * Width of the model-aware coarse descriptor, or 0 when the model
     * has none (the retrieval shortlist then falls back to generic
     * pooled-chain / WL-sketch distance). A model whose exact score
     * has a per-graph decomposable head (SimGNN's NTN over projected
     * readouts) exposes that head's inputs here, because ranking by
     * the model's own head is what keeps shortlist recall high when
     * scores separate at noise level — a generic embedding distance
     * cannot resolve that.
     */
    virtual size_t coarseDim() const { return 0; }

    /**
     * Fill `out[0 .. coarseDim())` with `g`'s coarse descriptor. Goes
     * through the memo cache like `graphEmbedding`, so index builds
     * warm the entries exact scoring reuses. Only called when
     * `coarseDim() > 0`.
     */
    virtual void coarseDescriptor(const Graph &g, float *out) const
    {
        (void)g;
        (void)out;
    }

    /**
     * The query-conditioned coarse scorer over blocks of this model's
     * descriptors, or null when `coarseDim() == 0`. Thread-safe to
     * build and apply concurrently for different queries.
     */
    virtual std::unique_ptr<CoarseScorer>
    coarseScorer(const Graph &query) const
    {
        (void)query;
        return nullptr;
    }

    /** Set the elastic execution knobs (see `InferenceOptions`). */
    void setInferenceOptions(const InferenceOptions &options)
    {
        infer_ = options;
    }

    const InferenceOptions &inferenceOptions() const { return infer_; }

  protected:
    explicit GmnModel(ModelConfig config) : config_(std::move(config)) {}

    /**
     * Both `score` overloads. `terms` is null or this model's own
     * `queryTerms(pair.query)`; the default ignores it and builds the
     * full `Detail`.
     */
    virtual double scoreWith(GraphPairView pair,
                             const QueryTerms *terms) const
    {
        (void)terms;
        return forwardDetailed(pair).score;
    }

    /**
     * The memo cache usable for per-graph embedding chains: null for
     * cross-feedback models, whose embeddings depend on the partner
     * graph. Keying by one graph would be wrong there, and even the
     * lookups would be pure overhead — so they are skipped entirely
     * (memo mode must never be a regression; see the serve tests).
     */
    MemoCache *embeddingMemo() const
    {
        return config_.crossFeedback ? nullptr : infer_.memo;
    }

    /** Record one side's dedup outcome into the telemetry sink. */
    void noteDedup(size_t rows, size_t unique_rows) const
    {
        if (infer_.dedupStats == nullptr)
            return;
        infer_.dedupStats->rowsTotal.add(rows);
        infer_.dedupStats->rowsUnique.add(unique_rows);
    }

    /** The stage histogram for `member`, or null when unwired. */
    obs::Histogram *stageHist(obs::Histogram *obs::StageSink::*member) const
    {
        return infer_.stages != nullptr ? infer_.stages->*member
                                        : nullptr;
    }

    ModelConfig config_;
    InferenceOptions infer_;
};

/** Build model `id` with seeded random weights. */
std::unique_ptr<GmnModel> makeModel(ModelId id, uint64_t seed = 1234);

// Per-model factories (defined in the respective .cc files).
std::unique_ptr<GmnModel> makeGmnLi(uint64_t seed);
std::unique_ptr<GmnModel> makeGraphSim(uint64_t seed);
std::unique_ptr<GmnModel> makeSimGnn(uint64_t seed);

/**
 * Encode a graph's raw node labels into the scalar input feature
 * column used by every model (Table I input width 1): label + 1.
 */
Matrix initialFeatures(const Graph &g);

} // namespace cegma

#endif // CEGMA_GMN_MODEL_HH
