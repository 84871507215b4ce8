/**
 * @file
 * `SearchService` — the request-level serving layer over the
 * functional GMN models: graph-similarity search of a query graph
 * against an indexed candidate corpus, with micro-batched admission,
 * a bounded cross-request memo cache, and full latency telemetry.
 *
 * Execution model: `submit()` hands a query to the admission queue and
 * returns a future. A single dispatcher thread pulls micro-batches
 * (flush on batch size or deadline — see serve/batcher.hh) and scores
 * each batch in ONE pair-parallel pass over the shared thread pool:
 * all batch_size x corpus pairs are independent tasks, so the
 * dedup/memo machinery amortizes across every request in the batch
 * (a corpus graph's WL coloring and embedding chain are built once,
 * then hit from every concurrent query). With `pipelineDepth >= 1`
 * (the default) each flushed batch then flows through the pipelined
 * execution engine (serve/pipeline.hh): an embed stage pre-warms the
 * queries' memoized embedding chains while the previous batch is
 * still matching, and a head stage assembles/delivers results while
 * the next batch scores — overlap without changing a single bit.
 *
 * Overload robustness (request lifecycle, in failure order):
 *   1. admission — a full queue (or a closed service) rejects with
 *      `RequestErrorCode::Rejected`; a request whose deadline budget
 *      is already spent fails `DeadlineExceeded` without enqueueing;
 *   2. shedding — past `shedWatermark`, the queued requests with the
 *      least remaining deadline budget are dropped (`Shed`) to keep
 *      admission open for requests that can still make it;
 *   3. flush — a request whose deadline passed while queued fails
 *      `DeadlineExceeded` *without being scored*, so one slow batch
 *      cannot cascade into a convoy of wasted scoring work;
 *   4. drain — `shutdown()` scores everything admitted, but when
 *      `drainTimeoutMs` is set and the dispatcher cannot drain in
 *      time, still-queued requests fail `DrainTimeout` instead of
 *      blocking the caller forever.
 * All of it is deterministic under test via the seeded fault injector
 * (`serve/faults.hh`), and all of it is off by default.
 *
 * Determinism: every score the service returns is bit-identical to
 * what a serial `runFunctional` over the same (candidate, query) pairs
 * produces, at any thread count and any batch size. The argument
 * composes three invariants the repo already enforces:
 *   1. each pair's forward pass is bit-deterministic regardless of the
 *      pool size (parallel.hh chunking contract);
 *   2. pairs are scored into disjoint output slots, so pair-level
 *      parallelism cannot reorder any arithmetic *within* a pair;
 *   3. the memo cache only replays deterministic per-graph results —
 *      a hit returns exactly the bits a rebuild would produce, so
 *      cache state (including evictions) never leaks into scores.
 * Batching therefore affects *when* a pair is scored, never *what* it
 * computes — the property tests/serve_test.cc proves at 1/2/8 threads
 * and batch sizes 1/4/32. Deadlines/shedding/faults only decide
 * *whether* a pair is scored, never what it computes.
 */

#ifndef CEGMA_SERVE_SERVICE_HH
#define CEGMA_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "corpus/live_corpus.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "gmn/window_sched.hh"
#include "graph/dataset.hh"
#include "obs/admin_http.hh"
#include "obs/perf_counters.hh"
#include "obs/slo.hh"
#include "obs/trace.hh"
#include "retrieval/retrieval.hh"
#include "serve/batcher.hh"
#include "serve/errors.hh"
#include "serve/faults.hh"
#include "serve/metrics.hh"
#include "serve/pipeline.hh"

namespace cegma {

/** Static configuration of one `SearchService`. */
struct ServeConfig
{
    ModelId model = ModelId::GraphSim;
    uint64_t modelSeed = 1234;

    /** Elastic knobs (bit-neutral; see the determinism note above). */
    bool dedup = true;
    bool memo = true;

    /** Memo byte budget; bounded by default — serving must not leak. */
    size_t memoBytes = size_t{256} << 20;
    uint32_t memoShards = 8;

    /** Micro-batcher: flush on size or deadline, whichever first. */
    uint32_t maxBatch = 16;
    uint32_t flushMicros = 2000;

    /** Admission bound: submits past this depth are rejected. */
    size_t maxQueueDepth = 4096;

    /**
     * Pipelined batch execution (serve/pipeline.hh): capacity of each
     * bounded inter-stage queue. 0 runs the legacy monolithic batch
     * path (match + head back-to-back on the dispatcher thread);
     * >= 1 gives the embed / dedup-match / head stages their own
     * workers, so batch N+1's embedding (memo pre-warm) overlaps
     * batch N's matching. Bit-neutral either way — see the
     * determinism note above and DESIGN.md §7e.
     */
    uint32_t pipelineDepth = 2;

    /**
     * Shared workspace-pool budget in MiB (tensor/workspace.hh): the
     * cap on recycled tensor blocks parked in the process-wide shared
     * pool beyond the per-thread free lists. Applied at construction;
     * the pool itself is process-wide, so the latest-constructed
     * service wins.
     */
    size_t workspaceMb = 256;

    /**
     * Default per-request deadline budget in milliseconds; 0 disables
     * deadlines. A per-`submit` override takes precedence. Expired
     * requests fail with `RequestErrorCode::DeadlineExceeded` without
     * being scored.
     */
    double requestDeadlineMs = 0.0;

    /**
     * Queue depth past which deadline-aware load shedding kicks in;
     * 0 disables. When the depth crosses the watermark, the waiting
     * requests with the least remaining deadline budget are dropped
     * (`RequestErrorCode::Shed`) — they were the likeliest to expire
     * unserved — instead of blindly rejecting new arrivals.
     * Deadline-less requests are never shed.
     */
    size_t shedWatermark = 0;

    /**
     * Bound on how long `shutdown()` waits for the dispatcher to
     * drain, in milliseconds; 0 waits indefinitely (the pre-existing
     * behavior). On timeout, still-queued requests fail with
     * `RequestErrorCode::DrainTimeout` instead of blocking the
     * shutdown caller behind a stuck dispatcher.
     */
    double drainTimeoutMs = 0.0;

    /**
     * Fault injection hook (not owned; null = off, at the cost of one
     * null-pointer branch per batch/request). See serve/faults.hh.
     */
    FaultInjector *faults = nullptr;

    /** Results keep the best `topK` candidates (and all raw scores). */
    uint32_t topK = 10;

    /**
     * Candidate selection (retrieval/retrieval.hh). Exhaustive scores
     * the whole corpus per query — the oracle. Cascade prunes through
     * the tag filter and coarse shortlist first and runs the exact GMN
     * only on the survivors; those exact scores are bit-identical to
     * exhaustive mode's, but a true top-k hit pruned early is lost
     * (recall < 1 is possible). Cascade has the live corpus keep its
     * tag postings and descriptor blocks from bootstrap on.
     */
    RetrievalConfig retrieval;

    /**
     * Live-corpus knobs (corpus/live_corpus.hh): slot capacity for
     * online inserts and the tombstone ratio that triggers posting
     * compaction. Only consulted once mutations happen — a service
     * that never calls `insert`/`remove` behaves exactly like the
     * fixed-corpus service did.
     */
    MutationConfig mutation;

    /**
     * Slow-request log threshold in milliseconds of end-to-end
     * latency; 0 disables. A breaching request logs one warn() line
     * with its queue/total split and batch size.
     */
    double slowMs = 0.0;

    /**
     * Serving SLO (latency target + objective; see obs/slo.hh).
     * Disabled by default; when enabled, every request outcome feeds
     * the multi-window burn-rate gauges (`serve.slo.burn.*`).
     */
    obs::SloConfig slo;

    /**
     * Embedded admin/scrape server port: negative = off (the
     * default), 0 = bind an ephemeral port (read it back via
     * `adminPort()`), >0 = bind that port on 127.0.0.1. Starting the
     * admin server also turns on per-request critical-path
     * attribution (`/tracez` needs it).
     */
    int adminPort = -1;

    /**
     * Per-request critical-path attribution without the admin server
     * (benches): fills `QueryResult::breakdown` and the tail-exemplar
     * store. Off by default — the disabled cost on the scoring path
     * is one relaxed atomic load per stage scope.
     */
    bool attribution = false;

    /**
     * Poll hardware cache counters (perf_event_open) on the
     * dispatcher thread and expose them as `hw.*` gauges. Gracefully
     * unavailable in containers/locked-down kernels: the gauges stay
     * 0 and `/statusz` reports why.
     */
    bool hwCounters = false;
};

/** One ranked search result. */
struct SearchHit
{
    /**
     * Index into `QueryResult::scores` / `QueryResult::ids`: the
     * position of the candidate in the pinned snapshot's live-entry
     * order. For a never-mutated corpus this is exactly the corpus
     * vector index (the pre-live-corpus meaning).
     */
    uint32_t candidate = 0;
    double score = 0.0;
};

/** What a completed query resolves to. */
struct QueryResult
{
    /**
     * Per-candidate similarity scores, in the pinned snapshot's
     * live-entry order (== corpus order when no mutation ever
     * happened). In cascade mode only the verified (shortlisted)
     * candidates carry scores; every pruned candidate's slot is NaN —
     * "not scored", distinct from any real similarity.
     */
    std::vector<double> scores;

    /** Best `topK` hits, score-descending (ties: lower index first). */
    std::vector<SearchHit> topK;

    /**
     * The corpus epoch this query was scored against: every score in
     * this result reflects exactly that epoch's corpus — one
     * consistent view, never a torn one. An offline oracle replaying
     * the mutation schedule up to this epoch reproduces `scores` bit
     * for bit.
     */
    uint64_t epoch = 0;

    /**
     * Stable 64-bit id of each scored candidate, parallel to
     * `scores`. Shared across the batch (one vector per pinned
     * snapshot), so carrying it is O(1) per request.
     */
    std::shared_ptr<const std::vector<uint64_t>> ids;

    double queueMs = 0.0; ///< submit -> batch flush
    double totalMs = 0.0; ///< submit -> result ready
    uint32_t batchSize = 0; ///< size of the batch this query rode in

    /**
     * Per-request critical path (request id, queue/total wall time,
     * per-stage thread-times). Stage fields are non-zero only when
     * attribution is on (`ServeConfig::adminPort >= 0` or
     * `ServeConfig::attribution`); the id and wall segments are
     * always filled.
     */
    obs::CriticalPath breakdown;
};

/**
 * Best-k hits over `scores`, score-descending, ties broken by lower
 * candidate index. NaN scores order strictly last (by index among
 * themselves) — a NaN-oblivious comparator would violate strict weak
 * ordering and hand `std::partial_sort` undefined behavior.
 * Exposed for direct unit testing.
 */
std::vector<SearchHit> topKHits(const std::vector<double> &scores,
                                uint32_t k);

/**
 * Best-k of a sparse score vector given as its scored (candidate,
 * score) entries, in any order: exactly `topKHits` over the dense
 * vector holding those scores and NaN everywhere else, with the NaN
 * tail dropped. The cascade ranks its verified candidates with it.
 */
std::vector<SearchHit> topKScoredHits(std::vector<SearchHit> hits,
                                      uint32_t k);

/**
 * A graph-similarity search service over a fixed corpus. Construction
 * builds the model and starts the dispatcher; destruction (or
 * `shutdown()`) stops admission, drains every admitted request, and
 * joins. Thread-safe: any number of threads may `submit()`
 * concurrently with each other, with `metrics()`, and with
 * `shutdown()`.
 */
class SearchService
{
  public:
    /**
     * Bootstrap over `corpus` with stable ids `ids` (one per graph,
     * distinct) — what dataset loaders provide via
     * `CloneSearchCorpus::candidateIds`.
     */
    SearchService(ServeConfig config, std::vector<Graph> corpus,
                  std::vector<uint64_t> ids);

    /** Convenience: stable ids default to the vector indices. */
    SearchService(ServeConfig config, std::vector<Graph> corpus);

    ~SearchService();

    SearchService(const SearchService &) = delete;
    SearchService &operator=(const SearchService &) = delete;

    /**
     * Submit one query for scoring against the whole corpus, under
     * the service's default deadline (`ServeConfig.requestDeadlineMs`).
     *
     * @return a future that resolves to the result, or throws a
     *         `RequestError` from `get()` (see `RequestErrorCode` for
     *         the failure taxonomy)
     */
    std::future<QueryResult> submit(Graph query);

    /**
     * Submit with a per-request deadline budget override:
     * `deadline_ms` > 0 bounds this request, 0 disables its deadline,
     * and a negative budget means the client already spent it — the
     * request fails `DeadlineExceeded` at admission, unscored.
     */
    std::future<QueryResult> submit(Graph query, double deadline_ms);

    /**
     * Stop admitting, score every already-admitted request (bounded
     * by `ServeConfig.drainTimeoutMs` when set), and join the
     * dispatcher. Idempotent and thread-safe; called by the
     * destructor. After shutdown the provider gauges are frozen to
     * their final values, so late metric scrapes during teardown
     * never poll a dead member.
     */
    void shutdown();

    /** Live metrics, including memo-cache and dedup counters. */
    MetricsSnapshot metrics() const;

    /**
     * The service's metrics registry (counters, latency and per-stage
     * histograms, provider gauges over the memo cache and queue) for
     * JSON / Prometheus exposition.
     */
    const obs::MetricsRegistry &registry() const
    {
        return metrics_.registry();
    }

    /**
     * Client-side retry accounting: load generators report each retry
     * here so `serve.requests.retries` flows through the same registry
     * as the server-side counters.
     */
    void noteClientRetry() { metrics_.recordRetry(); }

    /// @name Online corpus mutation
    /// Thread-safe against concurrent submits and each other. Staged
    /// mutations become visible at `flushMutations()`; batches already
    /// in flight keep scoring their pinned epoch (see
    /// corpus/live_corpus.hh for the snapshot contract).
    /// @{

    /** Stage inserting `g` under stable id `id` (false on dup/full). */
    bool insert(uint64_t id, Graph g);

    /** Stage removing the entry with id `id` (false when unknown). */
    bool remove(uint64_t id);

    /**
     * Publish all staged mutations as one new epoch, incrementally
     * updating the retrieval structures and invalidating removed
     * graphs' memo entries. @return the epoch now current.
     */
    uint64_t flushMutations();
    /// @}

    const ServeConfig &config() const { return config_; }

    /** Live entries at the current epoch. */
    size_t corpusSize() const { return corpus_.liveCount(); }

    const MemoCache &memo() const { return memo_; }

    /** The live corpus behind the service (stats, pinning in tests). */
    const LiveCorpus &corpus() const { return corpus_; }

    /**
     * The admin server's bound port, or -1 when it is off. With
     * `ServeConfig::adminPort == 0` this is the ephemeral port the
     * kernel picked.
     */
    int adminPort() const
    {
        return admin_ ? static_cast<int>(admin_->port()) : -1;
    }

    /** Tail exemplars (`/tracez` data) for direct inspection. */
    std::vector<obs::CriticalPath> tailExemplars() const
    {
        return exemplars_.collect();
    }

  private:
    struct Pending
    {
        Graph query;
        std::promise<QueryResult> promise;
        std::chrono::steady_clock::time_point submitted;
        std::chrono::steady_clock::time_point deadline = kNoDeadline;
        uint64_t id = 0; ///< service-unique request id
    };

    using SteadyTime = std::chrono::steady_clock::time_point;

    /**
     * Per-batch pipeline unit: the pinned snapshot, the live requests,
     * and every intermediate the stages hand to each other. Defined in
     * service.cc; flows through `StagePipeline` as a `PipelineItem`
     * (or through the same stage functions inline when
     * `pipelineDepth == 0`).
     */
    struct BatchWork;

    void dispatchLoop();
    void scoreBatch(std::vector<Pending> &batch);
    /** Stage 1: pre-warm each query's memoized embedding chain. */
    void stageEmbed(BatchWork &work);
    /**
     * Stage 2: each query's candidate list (every visible slot, or
     * the cascade shortlist) and terms, then one pair-parallel
     * dedup/match scoring pass over all lists.
     */
    void stageMatch(BatchWork &work);
    /** Stage 3: top-k over the verified pairs, result assembly,
     *  promise delivery. */
    void stageHead(BatchWork &work);
    /** Fill `result`'s wall figures, record them, deliver it. */
    void finishQuery(Pending &pending, QueryResult result,
                     SteadyTime flushed, uint32_t batch_size,
                     const obs::StageAccum *accum);
    void freezeGauges();
    void startAdminServer();
    std::string statusJson() const;

    /** Window-scheduler activity since this service was constructed. */
    WindowSchedStats windowDelta() const;

    ServeConfig config_;
    std::unique_ptr<GmnModel> model_;

    // Provider-gauge targets (memo_, dedupStats_, batcher_, corpus_,
    // windowBase_) are declared BEFORE metrics_: members destroy in
    // reverse order, so the registry (inside metrics_) dies first and
    // a provider callback can never poll an already-destroyed member.
    MemoCache memo_;
    DedupStats dedupStats_;
    MicroBatcher<Pending> batcher_;
    LiveCorpus corpus_;
    WindowSchedStats windowBase_; ///< process totals at construction
    obs::TailExemplars exemplars_;

    /**
     * Dispatcher-thread hardware counters (perf counters are per
     * calling thread, so the dispatcher opens and reads them; the
     * gauges sample under the mutex). `frozen` holds the final counts
     * once the dispatcher exits. Declared before metrics_: the hw
     * provider gauges poll it.
     */
    struct HwState
    {
        mutable std::mutex mutex;
        std::unique_ptr<obs::CacheCounters> counters;
        obs::CacheCounterSample frozen;
    };
    HwState hw_;

    /**
     * The pipelined execution engine (null when `pipelineDepth == 0`).
     * Declared before metrics_ — the `serve.pipeline.*` provider
     * gauges poll it — and its workers are joined by the dispatcher's
     * drain before shutdown() freezes the gauges.
     */
    std::unique_ptr<StagePipeline> pipeline_;

    ServiceMetrics metrics_;

    std::atomic<uint64_t> nextRequestId_{1};
    std::chrono::steady_clock::time_point started_;

    std::atomic<bool> stopping_{false};
    std::mutex shutdownMutex_; ///< serializes concurrent shutdown()

    // Bounded-drain handshake: the dispatcher flags completion, the
    // shutdown path waits on it with a timeout.
    std::mutex drainMutex_;
    std::condition_variable drainCv_;
    bool drained_ = false;

    std::thread dispatcher_;

    // Declared last: the admin server's accept thread may call into
    // any member above, so it must be destroyed (joined) first. It is
    // stopped explicitly at the END of shutdown(), after the drain —
    // so /healthz can report "draining" while the drain runs.
    std::unique_ptr<obs::AdminServer> admin_;
};

} // namespace cegma

#endif // CEGMA_SERVE_SERVICE_HH
