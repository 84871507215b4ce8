#include "serve/service.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "obs/build_info.hh"
#include "obs/trace.hh"
#include "retrieval/coarse.hh"
#include "tensor/workspace.hh"

namespace cegma {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
msSince(SteadyClock::time_point start, SteadyClock::time_point now)
{
    return std::chrono::duration<double, std::milli>(now - start)
        .count();
}

/** A steady time point on the tracing timeline (see obs::nowNs). */
uint64_t
traceNs(SteadyClock::time_point tp)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
}

/** Fail `pending`'s promise with a typed `RequestError`. */
void
failPending(std::promise<QueryResult> &promise, RequestErrorCode code,
            const char *what)
{
    promise.set_exception(
        std::make_exception_ptr(RequestError(code, what)));
}

} // namespace

/**
 * Everything one flushed batch carries through the embed → match →
 * head stages: the pinned snapshot (one consistent corpus view for
 * the batch's whole pipeline transit), the live requests, and the
 * intermediates the stages hand to each other. Destroyed at the end
 * of the head stage, which is what releases the epoch pin.
 */
struct SearchService::BatchWork : PipelineItem
{
    std::vector<Pending> live;
    SteadyTime flushed{};
    LiveCorpus::SnapshotPtr snap;
    std::vector<uint32_t> slots;
    std::unique_ptr<obs::StageAccum[]> accums;

    // Filled by the match stage: each query's candidate slots (every
    // visible slot in exhaustive mode, the shortlist in cascade mode),
    // its stage sizes, and the lists' exact scores flattened
    // query-major at `offsets`.
    std::vector<std::vector<uint32_t>> lists;
    std::vector<RetrievalStages> stages;
    std::vector<size_t> offsets;
    std::vector<double> scores;
};

namespace {

/** Keep the best `k` of `hits`, sorted, under `topKHits`'s order. */
void
selectTopK(std::vector<SearchHit> &hits, uint32_t k)
{
    // NaN-aware comparator: NaN orders strictly after every real
    // score (and by index among NaNs). The naive `a.score > b.score`
    // form is not a strict weak ordering once a NaN appears — NaN
    // compares "equivalent" to *everything*, breaking transitivity of
    // equivalence — and std::partial_sort on it is undefined behavior.
    auto better = [](const SearchHit &a, const SearchHit &b) {
        bool a_nan = std::isnan(a.score);
        bool b_nan = std::isnan(b.score);
        if (a_nan != b_nan)
            return b_nan; // the non-NaN side wins
        if (!a_nan && a.score != b.score)
            return a.score > b.score;
        return a.candidate < b.candidate;
    };
    // Select-then-sort beats a heap-based partial_sort over the whole
    // corpus: nth_element is linear in the candidate count, and the
    // O(k log k) sort touches only the k winners — the difference is
    // measurable once the corpus is 10^5+ and k stays small.
    size_t keep = std::min<size_t>(k, hits.size());
    std::nth_element(hits.begin(),
                     hits.begin() + static_cast<ptrdiff_t>(keep),
                     hits.end(), better);
    std::sort(hits.begin(), hits.begin() + static_cast<ptrdiff_t>(keep),
              better);
    hits.resize(keep);
}

} // namespace

std::vector<SearchHit>
topKHits(const std::vector<double> &scores, uint32_t k)
{
    std::vector<SearchHit> hits;
    hits.reserve(scores.size());
    for (size_t c = 0; c < scores.size(); ++c)
        hits.push_back(SearchHit{static_cast<uint32_t>(c), scores[c]});
    selectTopK(hits, k);
    return hits;
}

std::vector<SearchHit>
topKScoredHits(std::vector<SearchHit> hits, uint32_t k)
{
    // The dense vector's extra entries are NaN, which order after
    // every real score, so its top-k minus the NaN tail is this one's.
    selectTopK(hits, k);
    while (!hits.empty() && std::isnan(hits.back().score))
        hits.pop_back();
    return hits;
}

SearchService::SearchService(ServeConfig config, std::vector<Graph> corpus)
    : SearchService(std::move(config), std::move(corpus),
                    std::vector<uint64_t>())
{
}

SearchService::SearchService(ServeConfig config, std::vector<Graph> corpus,
                             std::vector<uint64_t> ids)
    : config_(config), model_(makeModel(config.model, config.modelSeed)),
      memo_(MemoConfig{config.memoBytes, config.memoShards}),
      batcher_(config.maxBatch,
               std::chrono::microseconds(config.flushMicros),
               config.maxQueueDepth, config.shedWatermark),
      corpus_(config.mutation),
      // /tracez keeps the 8 slowest requests per minute, 5 minutes
      // retained — O(40) records regardless of traffic.
      exemplars_(8, uint64_t{60} * 1000000000ull, 5),
      started_(SteadyClock::now())
{
    InferenceOptions infer;
    infer.dedupMatching = config_.dedup;
    infer.memo = config_.memo ? &memo_ : nullptr;
    infer.dedupStats = config_.dedup ? &dedupStats_ : nullptr;
    infer.stages = &metrics_.stages();
    model_->setInferenceOptions(infer);

    // Memo lookup timing feeds `serve.memo.lookup_us` and the
    // stage_memo_ms snapshot field here, so this service pays the two
    // clock reads per lookup; a bare MemoCache (index builds, unit
    // tests) keeps the default clock-free lookup path.
    memo_.setLookupTimingEnabled(true);

    WorkspacePool::instance().setSharedBudgetBytes(
        static_cast<size_t>(config_.workspaceMb) << 20);

    windowBase_ = windowSchedTotals();

    if (config_.retrieval.mode == RetrievalMode::Cascade) {
        // Incremental index maintenance: the corpus stores each
        // entry's WL tags and coarse descriptor at bootstrap/insert
        // time. Model-aware descriptors go through the model's memo
        // (coarseDescriptor), so the chains the exact stage will need
        // are warmed right here.
        bool model_aware = model_->coarseDim() > 0;
        LiveCorpus::DescriptorFn descriptor;
        if (model_aware) {
            // Fills the corpus's reused scratch vector, which the
            // corpus copies into the slot's chunk-block row.
            descriptor = [this](const Graph &g, std::vector<float> &out) {
                out.resize(model_->coarseDim());
                model_->coarseDescriptor(g, out.data());
            };
        } else {
            descriptor = [this](const Graph &g, std::vector<float> &out) {
                out = coarseVector(g, *model_,
                                   config_.retrieval.tagLevel,
                                   config_.retrieval.sketchDim);
            };
        }
        corpus_.enableIndex(config_.retrieval, model_aware,
                            std::move(descriptor));
    }
    // Removed graphs drop their content-keyed memo entries. Purely an
    // eviction optimization — memo hits replay identical bits, so
    // skipping this could never change a score.
    corpus_.setRemovalHook([this](const Graph &g) { memo_.invalidate(g); });

    // Empty `ids` (the two-argument constructor) means "vector index
    // is the stable id" — exactly the legacy fixed-corpus identity.
    if (ids.empty() && !corpus.empty()) {
        ids.resize(corpus.size());
        for (size_t i = 0; i < ids.size(); ++i)
            ids[i] = static_cast<uint64_t>(i);
    }
    corpus_.bootstrap(std::move(corpus), std::move(ids));

    if (config_.pipelineDepth > 0) {
        // The stage functions are exactly what the monolithic path
        // runs back-to-back; the engine only adds the queues and the
        // per-stage workers (see serve/pipeline.hh for why this is
        // bit-neutral).
        std::vector<StagePipeline::Stage> stages;
        stages.push_back({"pipeline.embed", [this](PipelineItem &item) {
                              stageEmbed(static_cast<BatchWork &>(item));
                          }});
        stages.push_back({"pipeline.match", [this](PipelineItem &item) {
                              stageMatch(static_cast<BatchWork &>(item));
                          }});
        stages.push_back({"pipeline.head", [this](PipelineItem &item) {
                              stageHead(static_cast<BatchWork &>(item));
                          }});
        pipeline_ = std::make_unique<StagePipeline>(
            std::move(stages), config_.pipelineDepth);
    }

    // Publish the values other members already own as provider gauges
    // (polled at exposition time). Member order guarantees the
    // lifetime: metrics_ (and so the registry) is declared after
    // every provider target, so it is destroyed first; shutdown()
    // additionally freezes these gauges to constants.
    obs::MetricsRegistry &reg = metrics_.registry();
    reg.providerGauge("serve.queue.depth", [this] {
        return static_cast<int64_t>(batcher_.depth());
    });
    reg.providerGauge("serve.cache.hits", [this] {
        return static_cast<int64_t>(memo_.hits());
    });
    reg.providerGauge("serve.cache.misses", [this] {
        return static_cast<int64_t>(memo_.misses());
    });
    reg.providerGauge("serve.cache.evictions", [this] {
        return static_cast<int64_t>(memo_.evictions());
    });
    reg.providerGauge("serve.cache.bytes", [this] {
        return static_cast<int64_t>(memo_.bytes());
    });
    reg.providerGauge("serve.memo.lookup_us", [this] {
        return static_cast<int64_t>(memo_.lookupNs() / 1000);
    });
    reg.providerGauge("serve.dedup.rows_total", [this] {
        return static_cast<int64_t>(dedupStats_.rowsTotal.value());
    });
    reg.providerGauge("serve.dedup.rows_unique", [this] {
        return static_cast<int64_t>(dedupStats_.rowsUnique.value());
    });
    reg.providerGauge("serve.retrieval.index_bytes", [this] {
        return static_cast<int64_t>(corpus_.indexBytes());
    });
    // Live-corpus lifecycle: epoch progress, visible vs dead entries,
    // and the reclamation counters that prove retired epochs are
    // actually freed (corpus.epochs_reclaimed > 0 under mutation).
    reg.providerGauge("serve.corpus.epoch", [this] {
        return static_cast<int64_t>(corpus_.epoch());
    });
    reg.providerGauge("serve.corpus.live", [this] {
        return static_cast<int64_t>(corpus_.liveCount());
    });
    reg.providerGauge("serve.corpus.slots", [this] {
        return static_cast<int64_t>(corpus_.slotCount());
    });
    reg.providerGauge("serve.corpus.tombstones", [this] {
        return static_cast<int64_t>(corpus_.tombstones());
    });
    reg.providerGauge("serve.corpus.inserts", [this] {
        return static_cast<int64_t>(corpus_.inserts());
    });
    reg.providerGauge("serve.corpus.removes", [this] {
        return static_cast<int64_t>(corpus_.removes());
    });
    reg.providerGauge("serve.corpus.epochs_reclaimed", [this] {
        return static_cast<int64_t>(corpus_.epochsReclaimed());
    });
    reg.providerGauge("serve.corpus.compactions", [this] {
        return static_cast<int64_t>(corpus_.compactions());
    });
    // Joint-window scheduler visibility (satellite of the CGC port):
    // the process-wide totals, rebased to this service's lifetime so
    // concurrent services (and tests) do not see each other's windows.
    reg.providerGauge("serve.window.windows", [this] {
        return static_cast<int64_t>(windowDelta().windows);
    });
    reg.providerGauge("serve.window.slides", [this] {
        return static_cast<int64_t>(windowDelta().slides);
    });
    reg.providerGauge("serve.window.jumps", [this] {
        return static_cast<int64_t>(windowDelta().jumps);
    });
    reg.providerGauge("serve.window.x_tile_loads", [this] {
        return static_cast<int64_t>(windowDelta().xTileLoads);
    });
    reg.providerGauge("serve.window.y_tile_loads", [this] {
        return static_cast<int64_t>(windowDelta().yTileLoads);
    });
    // Workspace-pool telemetry (tensor/workspace.hh): a warm steady
    // state shows `misses` flat while `hits` climbs — every tensor of
    // a recurring shape is a recycled block, not an OS allocation.
    reg.providerGauge("workspace.hits", [] {
        return static_cast<int64_t>(WorkspacePool::instance().stats().hits);
    });
    reg.providerGauge("workspace.misses", [] {
        return static_cast<int64_t>(
            WorkspacePool::instance().stats().misses);
    });
    reg.providerGauge("workspace.bytes", [] {
        return static_cast<int64_t>(
            WorkspacePool::instance().stats().cachedBytes);
    });
    if (pipeline_) {
        // Pipelined-execution visibility: per-stage busy time plus the
        // wall-clock overlap counter — identically 0 for a serial
        // executor, so any positive value is proof batches really do
        // overlap across stages.
        reg.providerGauge("serve.pipeline.depth", [this] {
            return static_cast<int64_t>(pipeline_->depth());
        });
        reg.providerGauge("serve.pipeline.batches", [this] {
            return static_cast<int64_t>(pipeline_->stats().completed);
        });
        reg.providerGauge("serve.pipeline.inflight", [this] {
            return static_cast<int64_t>(pipeline_->inflight());
        });
        reg.providerGauge("serve.pipeline.embed_busy_us", [this] {
            return static_cast<int64_t>(
                pipeline_->stats().stages[0].busyNs / 1000);
        });
        reg.providerGauge("serve.pipeline.match_busy_us", [this] {
            return static_cast<int64_t>(
                pipeline_->stats().stages[1].busyNs / 1000);
        });
        reg.providerGauge("serve.pipeline.head_busy_us", [this] {
            return static_cast<int64_t>(
                pipeline_->stats().stages[2].busyNs / 1000);
        });
        reg.providerGauge("serve.pipeline.queue_wait_us", [this] {
            PipelineStats s = pipeline_->stats();
            uint64_t wait = 0;
            for (const PipelineStageStats &st : s.stages)
                wait += st.queueWaitNs;
            return static_cast<int64_t>(wait / 1000);
        });
        reg.providerGauge("serve.pipeline.overlap_us", [this] {
            return static_cast<int64_t>(
                pipeline_->stats().overlapNs / 1000);
        });
    }
    // Trace-ring health: a non-zero dropped count means the span rings
    // wrapped and the exported trace is missing its oldest spans.
    reg.providerGauge("obs.trace.dropped", [] {
        return static_cast<int64_t>(obs::droppedSpans());
    });
    reg.providerGauge("obs.trace.enabled", [] {
        return static_cast<int64_t>(obs::tracingEnabled() ? 1 : 0);
    });
    if (config_.hwCounters) {
        // The dispatcher opens the counters (perf groups are per
        // calling thread); until then — and whenever the kernel
        // refuses perf_event_open — the gauges read the zero `frozen`
        // sample, so scrapes degrade to 0 instead of failing.
        auto hwGauge = [this](uint64_t obs::CacheCounterSample::*field) {
            return [this, field]() -> int64_t {
                std::lock_guard<std::mutex> lock(hw_.mutex);
                obs::CacheCounterSample s =
                    hw_.counters ? hw_.counters->sample() : hw_.frozen;
                return static_cast<int64_t>(s.*field);
            };
        };
        reg.providerGauge(
            "hw.llc.refs",
            hwGauge(&obs::CacheCounterSample::llcReferences));
        reg.providerGauge(
            "hw.llc.miss",
            hwGauge(&obs::CacheCounterSample::llcMisses));
        reg.providerGauge(
            "hw.l1d.miss",
            hwGauge(&obs::CacheCounterSample::l1dMisses));
    }

    metrics_.configureSlo(config_.slo);
    if (config_.adminPort >= 0 || config_.attribution)
        obs::setAttributionEnabled(true);

    dispatcher_ = std::thread([this] { dispatchLoop(); });

    if (config_.adminPort >= 0)
        startAdminServer();
}

SearchService::~SearchService()
{
    shutdown();
}

std::future<QueryResult>
SearchService::submit(Graph query)
{
    return submit(std::move(query), config_.requestDeadlineMs);
}

std::future<QueryResult>
SearchService::submit(Graph query, double deadline_ms)
{
    metrics_.recordSubmitted();
    Pending pending;
    pending.query = std::move(query);
    pending.submitted = SteadyClock::now();
    pending.id = nextRequestId_.fetch_add(1, std::memory_order_relaxed);
    if (deadline_ms != 0.0) {
        // A positive budget bounds the request; a negative one is
        // already spent — enforce the deadline at admission too.
        pending.deadline =
            pending.submitted +
            std::chrono::duration_cast<SteadyClock::duration>(
                std::chrono::duration<double, std::milli>(
                    std::max(deadline_ms, 0.0)));
    }
    std::future<QueryResult> future = pending.promise.get_future();

    if (deadline_ms < 0.0) {
        metrics_.recordExpired();
        failPending(pending.promise, RequestErrorCode::DeadlineExceeded,
                    "SearchService: deadline budget exhausted before "
                    "admission");
        return future;
    }

    SteadyClock::time_point deadline = pending.deadline;
    std::vector<Pending> shed;
    if (stopping_.load(std::memory_order_acquire) ||
        !batcher_.enqueue(std::move(pending), deadline, &shed)) {
        metrics_.recordRejected();
        // enqueue only moves the item out on admission, so the
        // promise is still ours to fail on either rejection path.
        failPending(pending.promise, RequestErrorCode::Rejected,
                    "SearchService: request rejected (shutting down "
                    "or queue full)");
        return future;
    }
    // Admitting this request may have shed lower-budget ones (or, if
    // it carried the least budget itself, the new arrival).
    for (Pending &victim : shed) {
        metrics_.recordShed();
        failPending(victim.promise, RequestErrorCode::Shed,
                    "SearchService: shed under overload (least "
                    "remaining deadline budget)");
    }
    return future;
}

void
SearchService::shutdown()
{
    std::lock_guard<std::mutex> guard(shutdownMutex_);
    stopping_.store(true, std::memory_order_release);
    batcher_.close();
    if (config_.drainTimeoutMs > 0.0 && dispatcher_.joinable()) {
        std::unique_lock<std::mutex> lock(drainMutex_);
        bool drained = drainCv_.wait_for(
            lock,
            std::chrono::duration<double, std::milli>(
                config_.drainTimeoutMs),
            [&] { return drained_; });
        lock.unlock();
        if (!drained) {
            // Bounded drain: fail whatever is still queued instead of
            // blocking forever behind a stuck dispatcher. The batch
            // already in flight still finishes (join below).
            std::vector<Pending> leftover = batcher_.abort();
            for (Pending &victim : leftover) {
                metrics_.recordDrainDropped();
                failPending(victim.promise,
                            RequestErrorCode::DrainTimeout,
                            "SearchService: shutdown drain timed out "
                            "with the request still queued");
            }
            if (!leftover.empty()) {
                warn("shutdown drain timed out after %.1f ms; failed "
                     "%zu still-queued request(s)",
                     config_.drainTimeoutMs, leftover.size());
            }
        }
    }
    if (dispatcher_.joinable())
        dispatcher_.join();
    freezeGauges();
    metrics_.freezeWindowGauges();
    // Stop the admin plane LAST: while the drain ran, /healthz was
    // reporting "draining"; after this, the port is released.
    if (admin_)
        admin_->stop();
}

void
SearchService::freezeGauges()
{
    // Re-bind every provider gauge to its final value: a scrape that
    // races teardown then reads constants instead of polling members
    // whose destruction is imminent. Re-binding and snapshotting
    // share the registry mutex, so this is race-free.
    obs::MetricsRegistry &reg = metrics_.registry();
    auto freeze = [&reg](const char *name, size_t value) {
        int64_t frozen = static_cast<int64_t>(value);
        reg.providerGauge(name, [frozen] { return frozen; });
    };
    freeze("serve.queue.depth", batcher_.depth());
    freeze("serve.cache.hits", memo_.hits());
    freeze("serve.cache.misses", memo_.misses());
    freeze("serve.cache.evictions", memo_.evictions());
    freeze("serve.cache.bytes", memo_.bytes());
    freeze("serve.memo.lookup_us", memo_.lookupNs() / 1000);
    freeze("serve.dedup.rows_total", dedupStats_.rowsTotal.value());
    freeze("serve.dedup.rows_unique", dedupStats_.rowsUnique.value());
    freeze("serve.retrieval.index_bytes", corpus_.indexBytes());
    freeze("serve.corpus.epoch", corpus_.epoch());
    freeze("serve.corpus.live", corpus_.liveCount());
    freeze("serve.corpus.slots", corpus_.slotCount());
    freeze("serve.corpus.tombstones", corpus_.tombstones());
    freeze("serve.corpus.inserts", corpus_.inserts());
    freeze("serve.corpus.removes", corpus_.removes());
    freeze("serve.corpus.epochs_reclaimed", corpus_.epochsReclaimed());
    freeze("serve.corpus.compactions", corpus_.compactions());
    WindowSchedStats win = windowDelta();
    freeze("serve.window.windows", win.windows);
    freeze("serve.window.slides", win.slides);
    freeze("serve.window.jumps", win.jumps);
    freeze("serve.window.x_tile_loads", win.xTileLoads);
    freeze("serve.window.y_tile_loads", win.yTileLoads);
    WorkspaceStats ws = WorkspacePool::instance().stats();
    freeze("workspace.hits", ws.hits);
    freeze("workspace.misses", ws.misses);
    freeze("workspace.bytes", ws.cachedBytes);
    if (pipeline_) {
        PipelineStats ps = pipeline_->stats();
        freeze("serve.pipeline.depth", pipeline_->depth());
        freeze("serve.pipeline.batches", ps.completed);
        freeze("serve.pipeline.inflight", pipeline_->inflight());
        freeze("serve.pipeline.embed_busy_us", ps.stages[0].busyNs / 1000);
        freeze("serve.pipeline.match_busy_us", ps.stages[1].busyNs / 1000);
        freeze("serve.pipeline.head_busy_us", ps.stages[2].busyNs / 1000);
        uint64_t wait = 0;
        for (const PipelineStageStats &st : ps.stages)
            wait += st.queueWaitNs;
        freeze("serve.pipeline.queue_wait_us", wait / 1000);
        freeze("serve.pipeline.overlap_us", ps.overlapNs / 1000);
    }
}

void
SearchService::startAdminServer()
{
    admin_ = std::make_unique<obs::AdminServer>();

    admin_->handle("/", [](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        resp.body = "cegma admin endpoints:\n"
                    "  /metrics  Prometheus exposition\n"
                    "  /varz     full registry as JSON\n"
                    "  /healthz  liveness (503 while draining)\n"
                    "  /readyz   readiness (queue-depth aware)\n"
                    "  /tracez   slowest requests, stage breakdowns\n"
                    "  /statusz  build / uptime / corpus / SIMD\n";
        return resp;
    });
    admin_->handle("/metrics", [this](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = metrics_.registry().snapshot().toPrometheus();
        return resp;
    });
    admin_->handle("/varz", [this](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = metrics_.registry().snapshot().toJson();
        resp.body += "\n";
        return resp;
    });
    admin_->handle("/healthz", [this](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        if (stopping_.load(std::memory_order_acquire)) {
            resp.status = 503;
            resp.body = "draining\n";
        } else {
            resp.body = "ok\n";
        }
        return resp;
    });
    admin_->handle("/readyz", [this](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        if (stopping_.load(std::memory_order_acquire)) {
            resp.status = 503;
            resp.body = "draining\n";
        } else if (batcher_.depth() >= config_.maxQueueDepth) {
            resp.status = 503;
            resp.body = "overloaded: admission queue full\n";
        } else {
            resp.body = "ready\n";
        }
        return resp;
    });
    admin_->handle("/tracez", [this](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        resp.contentType = "application/json";
        std::vector<obs::CriticalPath> slow = exemplars_.collect();
        std::string body = "{\"top_k_per_window\": ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%zu", exemplars_.topK());
        body += buf;
        body += ", \"slowest\": [";
        for (size_t i = 0; i < slow.size(); ++i) {
            if (i > 0)
                body += ", ";
            body += slow[i].toJson();
        }
        body += "]}\n";
        resp.body = std::move(body);
        return resp;
    });
    admin_->handle("/statusz", [this](const obs::HttpRequest &) {
        obs::HttpResponse resp;
        resp.contentType = "application/json";
        resp.body = statusJson();
        return resp;
    });

    obs::AdminServer::Config cfg;
    cfg.port = static_cast<uint16_t>(config_.adminPort);
    if (!admin_->start(cfg)) {
        warn("admin server failed to start on port %d: %s",
             config_.adminPort, admin_->status().c_str());
        admin_.reset();
    }
}

std::string
SearchService::statusJson() const
{
    double uptime =
        msSince(started_, SteadyClock::now()) / 1e3;
    std::string out = "{\"build\": " + obs::buildInfoJson();
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        ", \"uptime_sec\": %.3f, \"model\": \"%s\", \"simd\": \"%s\", "
        "\"corpus_epoch\": %" PRIu64 ", \"corpus_live\": %zu, "
        "\"queue_depth\": %zu, \"draining\": %s",
        uptime, modelConfig(config_.model).name.c_str(),
        simdLevelName(simdLevel()), corpus_.epoch(),
        corpus_.liveCount(), batcher_.depth(),
        stopping_.load(std::memory_order_acquire) ? "true" : "false");
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        ", \"slo\": {\"target_ms\": %.3f, \"objective\": %.4f, "
        "\"enabled\": %s}, \"attribution\": %s, \"admin_requests\": "
        "%" PRIu64 "}\n",
        config_.slo.targetMs, config_.slo.objective,
        config_.slo.enabled() ? "true" : "false",
        obs::attributionEnabled() ? "true" : "false",
        admin_ ? admin_->requestsServed() : 0);
    out += buf;
    return out;
}

WindowSchedStats
SearchService::windowDelta() const
{
    WindowSchedStats now = windowSchedTotals();
    WindowSchedStats d;
    d.windows = now.windows - windowBase_.windows;
    d.slides = now.slides - windowBase_.slides;
    d.jumps = now.jumps - windowBase_.jumps;
    d.xTileLoads = now.xTileLoads - windowBase_.xTileLoads;
    d.yTileLoads = now.yTileLoads - windowBase_.yTileLoads;
    d.aoeKeepX = now.aoeKeepX - windowBase_.aoeKeepX;
    d.aoeKeepY = now.aoeKeepY - windowBase_.aoeKeepY;
    return d;
}

MetricsSnapshot
SearchService::metrics() const
{
    MetricsSnapshot snap = metrics_.snapshot(batcher_.depth());
    snap.cacheHits = memo_.hits();
    snap.cacheMisses = memo_.misses();
    snap.cacheEvictions = memo_.evictions();
    snap.cacheBytes = memo_.bytes();
    uint64_t lookups = snap.cacheHits + snap.cacheMisses;
    snap.cacheHitRate =
        lookups > 0 ? static_cast<double>(snap.cacheHits) /
                          static_cast<double>(lookups)
                    : 0.0;
    snap.dedupRowsTotal = dedupStats_.rowsTotal.value();
    snap.dedupRowsUnique = dedupStats_.rowsUnique.value();
    snap.dedupSkipRatio = dedupStats_.skipRatio();
    snap.stageMemoMs = static_cast<double>(memo_.lookupNs()) / 1e6;
    WindowSchedStats win = windowDelta();
    snap.windowWindows = win.windows;
    snap.windowSlides = win.slides;
    snap.windowJumps = win.jumps;
    snap.windowXTileLoads = win.xTileLoads;
    snap.windowYTileLoads = win.yTileLoads;
    snap.corpusEpoch = corpus_.epoch();
    snap.corpusLive = corpus_.liveCount();
    snap.corpusSlots = corpus_.slotCount();
    snap.corpusTombstones = corpus_.tombstones();
    snap.corpusInserts = corpus_.inserts();
    snap.corpusRemoves = corpus_.removes();
    snap.corpusEpochsReclaimed = corpus_.epochsReclaimed();
    snap.corpusCompactions = corpus_.compactions();
    return snap;
}

bool
SearchService::insert(uint64_t id, Graph g)
{
    return corpus_.insert(id, std::move(g));
}

bool
SearchService::remove(uint64_t id)
{
    return corpus_.remove(id);
}

uint64_t
SearchService::flushMutations()
{
    return corpus_.flush();
}

void
SearchService::dispatchLoop()
{
    if (config_.hwCounters) {
        // Perf counter groups measure the *calling* thread, so they
        // must be opened (and later read) here, not in the ctor.
        auto counters = std::make_unique<obs::CacheCounters>();
        if (!counters->available()) {
            warn("hw counters unavailable: %s", counters->status());
            counters.reset();
        } else {
            counters->start();
        }
        std::lock_guard<std::mutex> lock(hw_.mutex);
        hw_.counters = std::move(counters);
    }
    for (;;) {
        std::vector<Pending> batch = batcher_.nextBatch();
        if (batch.empty())
            break; // closed and drained (or aborted)
        scoreBatch(batch);
    }
    // Everything admitted has been *submitted*; the pipeline drain is
    // what makes it all *scored* — so it happens before the drained_
    // handshake below, keeping "drained" meaning what it always did.
    if (pipeline_)
        pipeline_->drain();
    if (config_.hwCounters) {
        // Freeze the final counts before this thread exits; the
        // gauges then read the frozen sample.
        std::lock_guard<std::mutex> lock(hw_.mutex);
        if (hw_.counters) {
            hw_.frozen = hw_.counters->stop();
            hw_.counters.reset();
        }
    }
    {
        std::lock_guard<std::mutex> lock(drainMutex_);
        drained_ = true;
    }
    drainCv_.notify_all();
}

void
SearchService::scoreBatch(std::vector<Pending> &batch)
{
    FaultInjector *faults = config_.faults;
    if (faults != nullptr)
        faults->onBatchStart(); // injected delay / stall (tests only)

    // Deadline enforcement at flush: a request whose budget ran out
    // while it queued fails fast, *without* being scored — the whole
    // point of a deadline is not to spend corpus-sized scoring work
    // on an answer nobody is waiting for anymore. Injected spurious
    // failures take the same unscored early exit.
    SteadyClock::time_point flushed = SteadyClock::now();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending &pending : batch) {
        if (pending.deadline <= flushed) {
            metrics_.recordExpired();
            failPending(pending.promise,
                        RequestErrorCode::DeadlineExceeded,
                        "SearchService: request deadline exceeded "
                        "before scoring");
        } else if (faults != nullptr && faults->shouldFailRequest()) {
            failPending(pending.promise, RequestErrorCode::Injected,
                        "SearchService: injected fault");
        } else {
            live.push_back(std::move(pending));
        }
    }
    if (live.empty())
        return;

    metrics_.recordBatch(live.size());

    auto work = std::make_unique<BatchWork>();
    work->live = std::move(live);
    work->flushed = flushed;
    // Pin ONE snapshot for the whole batch: every query in it scores
    // against the same epoch's corpus — a consistent view, even while
    // mutations flush concurrently. The pin is released when the
    // BatchWork dies at the end of the head stage, which is what lets
    // the epoch retire.
    work->snap = corpus_.pin();
    work->slots = work->snap->liveSlots();
    // Critical-path attribution: one accumulator per request in the
    // batch; each worker binds its thread-local pointer to the pair's
    // owning request, so stage scopes inside the forward pass charge
    // the right request. Purely observational — scores are untouched.
    if (obs::attributionEnabled()) {
        work->accums =
            std::make_unique<obs::StageAccum[]>(work->live.size());
    }

    if (pipeline_) {
        // Blocks when the embed queue is full — bounded backpressure
        // onto the dispatcher, which in turn bounds admission.
        pipeline_->submit(std::move(work));
    } else {
        // Monolithic fallback (pipelineDepth == 0): the exact PR-3..9
        // batch path — match + head back-to-back on this thread, no
        // embed pre-warm.
        stageMatch(*work);
        stageHead(*work);
    }
}

void
SearchService::stageEmbed(BatchWork &work)
{
    // Pre-warm each query's partner-independent embedding chain
    // through the memo, so the match stage's pair workers hit instead
    // of racing to build. First-insert-wins replay makes this
    // bit-neutral; for cross-feedback models (no per-graph chain)
    // graphEmbedding is a constant-time no-op. Running the handful of
    // per-query chains serially on this stage's own worker is the
    // point: it never touches the shared pool, so it truly overlaps
    // the previous batch's pool-wide match pass.
    if (!config_.memo)
        return;
    obs::TraceScope span("batch.embed", "serve", "batch_size",
                         work.live.size());
    for (size_t q = 0; q < work.live.size(); ++q) {
        if (work.accums)
            obs::setCurrentStageAccum(&work.accums[q]);
        (void)model_->graphEmbedding(work.live[q].query);
    }
    if (work.accums)
        obs::setCurrentStageAccum(nullptr);
}

void
SearchService::stageMatch(BatchWork &work)
{
    const size_t num_queries = work.live.size();
    const bool cascade = config_.retrieval.mode == RetrievalMode::Cascade;

    // Query-parallel: each query's candidate list and its exact-score
    // terms. Exhaustive mode lists every visible slot; cascade mode
    // runs stages 1–2 against the pinned snapshot's (immutable) view,
    // so the list is a deterministic function of (snapshot, model,
    // query), never of the thread count or of concurrent mutations.
    // The terms are built next to the list, charged to the same
    // request, and shared by all of its pairs below.
    work.lists.resize(num_queries);
    work.stages.resize(num_queries);
    std::vector<std::shared_ptr<const QueryTerms>> terms(num_queries);
    {
        obs::TraceScope span("batch.retrieve", "serve", "batch_size",
                             num_queries);
        parallelFor(0, num_queries, 1, [&](size_t q0, size_t q1) {
            for (size_t q = q0; q < q1; ++q) {
                if (work.accums)
                    obs::setCurrentStageAccum(&work.accums[q]);
                if (cascade) {
                    work.lists[q] =
                        corpus_.shortlist(*work.snap, work.live[q].query,
                                          *model_, &work.stages[q]);
                } else {
                    const size_t n = work.slots.size();
                    work.lists[q] = work.slots;
                    work.stages[q] = RetrievalStages{n, n, n};
                }
                if (!work.lists[q].empty())
                    terms[q] = model_->queryTerms(work.live[q].query);
            }
            if (work.accums)
                obs::setCurrentStageAccum(nullptr);
        });
    }

    // One pair-parallel exact pass over the flattened lists: every
    // (query, candidate) pair is an independent task writing its own
    // slot, so any thread count produces the same bits, and the memo
    // cache amortizes per-graph work across all queries in the batch.
    // A verified score is therefore bit-identical whichever mode
    // listed its pair. Pairs are scored through non-owning views — the
    // corpus and query graphs are never copied on the hot path.
    work.offsets.assign(num_queries + 1, 0);
    for (size_t q = 0; q < num_queries; ++q)
        work.offsets[q + 1] = work.offsets[q] + work.lists[q].size();
    const size_t num_pairs = work.offsets.back();
    work.scores.assign(num_pairs, 0.0);
    if (num_pairs > 0) {
        obs::TraceScope span("batch.score", "serve", "batch_size",
                             num_queries);
        parallelFor(0, num_pairs, 1, [&](size_t i0, size_t i1) {
            for (size_t i = i0; i < i1; ++i) {
                size_t q = static_cast<size_t>(
                               std::upper_bound(work.offsets.begin(),
                                                work.offsets.end(), i) -
                               work.offsets.begin()) -
                           1;
                if (work.accums)
                    obs::setCurrentStageAccum(&work.accums[q]);
                uint32_t c = work.lists[q][i - work.offsets[q]];
                work.scores[i] = model_->score(
                    GraphPairView(work.snap->graph(c), work.live[q].query),
                    terms[q].get());
            }
            if (work.accums)
                obs::setCurrentStageAccum(nullptr);
        });
    }
}

void
SearchService::stageHead(BatchWork &work)
{
    const size_t num_queries = work.live.size();
    const size_t num_candidates = work.slots.size();

    auto ids = std::make_shared<const std::vector<uint64_t>>(
        work.snap->liveIds());
    for (size_t q = 0; q < num_queries; ++q) {
        QueryResult result;
        // Unlisted candidates stay NaN: "not scored". Results are
        // indexed by *position in the snapshot's live order* (== slot
        // order), so the list's slot numbers map through lower_bound
        // on the ascending live-slot list. Only the verified positions
        // are ranked — the same hits `topKHits` would rank first over
        // the whole NaN-padded vector, and exactly `topKHits(scores)`
        // when every position is verified and no score is NaN.
        result.scores.assign(num_candidates,
                             std::numeric_limits<double>::quiet_NaN());
        std::vector<SearchHit> verified(work.lists[q].size());
        for (size_t j = 0; j < work.lists[q].size(); ++j) {
            uint32_t c = work.lists[q][j];
            size_t pos = static_cast<size_t>(
                std::lower_bound(work.slots.begin(), work.slots.end(),
                                 c) -
                work.slots.begin());
            verified[j] = SearchHit{static_cast<uint32_t>(pos),
                                    work.scores[work.offsets[q] + j]};
            result.scores[pos] = verified[j].score;
        }
        result.topK = topKScoredHits(std::move(verified), config_.topK);
        result.epoch = work.snap->epoch();
        result.ids = ids;
        metrics_.recordRetrieval(work.stages[q].corpus,
                                 work.stages[q].survivors,
                                 work.stages[q].shortlisted);
        finishQuery(work.live[q], std::move(result), work.flushed,
                    static_cast<uint32_t>(num_queries),
                    work.accums ? &work.accums[q] : nullptr);
    }
}

void
SearchService::finishQuery(Pending &pending, QueryResult result,
                           SteadyTime flushed, uint32_t batch_size,
                           const obs::StageAccum *accum)
{
    // Completion is stamped here, in the head stage, so every wall
    // figure below covers the match -> head wait and the head stage.
    const SteadyTime done = SteadyClock::now();
    result.queueMs = msSince(pending.submitted, flushed);
    result.totalMs = msSince(pending.submitted, done);
    result.batchSize = batch_size;

    obs::CriticalPath &cp = result.breakdown;
    cp.requestId = pending.id;
    cp.queueUs = static_cast<uint64_t>(
        std::max(result.queueMs, 0.0) * 1e3);
    cp.totalUs = static_cast<uint64_t>(
        std::max(result.totalMs, 0.0) * 1e3);
    cp.batchSize = batch_size;
    cp.epoch = result.epoch;
    cp.startNs = traceNs(pending.submitted);
    if (accum != nullptr) {
        auto us = [](const std::atomic<uint64_t> &ns) {
            return ns.load(std::memory_order_relaxed) / 1000;
        };
        cp.embedUs = us(accum->embedNs);
        cp.dedupUs = us(accum->dedupNs);
        cp.matchUs = us(accum->matchNs);
        cp.headUs = us(accum->headNs);
        cp.memoUs = us(accum->memoNs);
        exemplars_.record(cp);
    }

    metrics_.recordCompleted(result.queueMs * 1e3, result.totalMs * 1e3);
    if (obs::tracingEnabled()) {
        uint64_t sub_ns = traceNs(pending.submitted);
        obs::recordSpan("request", "serve", sub_ns,
                        traceNs(done) - sub_ns, "request_id",
                        pending.id);
        obs::recordSpan("queue.wait", "serve", sub_ns,
                        traceNs(flushed) - sub_ns);
    }
    if (config_.slowMs > 0.0 && result.totalMs >= config_.slowMs) {
        if (accum != nullptr) {
            warn("slow request #%llu: %.2f ms total (%.2f ms queued, "
                 "batch %u, %zu candidates; stage us: embed %llu "
                 "dedup %llu match %llu head %llu memo %llu)",
                 static_cast<unsigned long long>(cp.requestId),
                 result.totalMs, result.queueMs, result.batchSize,
                 corpus_.liveCount(),
                 static_cast<unsigned long long>(cp.embedUs),
                 static_cast<unsigned long long>(cp.dedupUs),
                 static_cast<unsigned long long>(cp.matchUs),
                 static_cast<unsigned long long>(cp.headUs),
                 static_cast<unsigned long long>(cp.memoUs));
        } else {
            warn("slow request: %.2f ms total (%.2f ms queued, batch "
                 "%u, %zu candidates)",
                 result.totalMs, result.queueMs, result.batchSize,
                 corpus_.liveCount());
        }
    }
    pending.promise.set_value(std::move(result));
}

} // namespace cegma
