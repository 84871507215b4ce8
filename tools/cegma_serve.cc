/**
 * @file
 * cegma_serve — load generator + metrics front end for the serving
 * subsystem (src/serve): build a clone-search corpus, start a
 * `SearchService`, drive it open-loop (Poisson arrivals at --qps) or
 * closed-loop (--clients back-to-back workers), and print the latency
 * and cache metrics table.
 *
 * Usage:
 *   cegma_serve [--model NAME] [--dataset NAME]
 *               [--candidates C] [--queries Q] [--requests N]
 *               [--qps R | --clients K]
 *               [--retrieval=exhaustive|cascade] [--shortlist=C]
 *               [--tag-prune=F] [--tag-level L]
 *               [--batch B] [--flush-us U] [--topk K]
 *               [--pipeline-depth D] [--workspace-mb M]
 *               [--dedup=on|off] [--memo=on|off] [--memo-mb M]
 *               [--threads T] [--seed S] [--json] [--csv] [--prom]
 *               [--trace-out FILE] [--metrics-every SEC]
 *               [--slow-ms MS] [--version]
 *               [--admin-port P] [--slo-ms MS] [--slo-objective F]
 *               [--hw-counters]
 *               [--deadline-ms D] [--shed-watermark N]
 *               [--drain-timeout-ms D] [--retries K] [--backoff-ms B]
 *               [--fault-error-prob P] [--fault-delay-prob P]
 *               [--fault-delay-us U] [--fault-stall-batches N]
 *               [--fault-stall-us U] [--fault-seed S]
 *               [--mutate-rate R] [--mutate-inserts F]
 *               [--mutate-publish N] [--mutate-pool P] [--skew S]
 *
 * Examples:
 *   cegma_serve --model GraphSim --dataset RD-B --qps 50 --requests 200
 *   cegma_serve --clients 8 --requests 400       # closed-loop capacity
 *   cegma_serve --qps 20 --json                  # JSON metrics snapshot
 *   cegma_serve --trace-out trace.json           # Perfetto-loadable trace
 *   cegma_serve --qps 10 --metrics-every 1 --slow-ms 50
 *   cegma_serve --qps 50 --deadline-ms 100 --shed-watermark 64 \
 *               --retries 3 --json       # overload-robust serving
 *   cegma_serve --fault-error-prob 0.3 --retries 5 --json
 *   cegma_serve --dataset AIDS --candidates 100000 \
 *               --retrieval=cascade --shortlist=64   # filter-then-verify
 *   cegma_serve --qps 50 --mutate-rate 0.1 --skew 1.0 \
 *               --json             # live inserts/removes under load
 *   cegma_serve --qps 20 --admin-port 0 --slo-ms 50 \
 *               # live admin plane; curl the printed port's /metrics
 */

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "obs/build_info.hh"
#include "obs/trace.hh"
#include "serve/loadgen.hh"
#include "serve/service.hh"

using namespace cegma;

namespace {

/** Largest MiB budget a flag takes (16 TiB; budgets shift left by 20). */
constexpr size_t kMaxMb = size_t(1) << 24;

struct Options
{
    ModelId model = ModelId::GraphSim;
    DatasetId dataset = DatasetId::RD_B;
    uint32_t candidates = 8;
    uint32_t queries = 8;
    uint32_t requests = 64;
    double qps = 0.0;      // > 0 selects open loop
    uint32_t clients = 4;  // closed loop otherwise
    uint32_t batch = 16;
    uint32_t flushUs = 2000;
    uint32_t topk = 5;

    // Retrieval cascade (exhaustive by default; see retrieval/).
    RetrievalConfig retrieval;

    // Live-corpus mutation stream (open loop only; off by default).
    double mutateRate = 0.0;     // mutations per query
    double mutateInserts = 0.5;  // insert fraction of mutations
    uint32_t mutatePublish = 1;  // staged mutations per epoch
    uint32_t mutatePool = 0;     // insert pool size; 0 sizes from rate
    double skew = 0.0;           // Zipf skew of the query stream
    bool dedup = true;
    bool memo = true;
    size_t memoMb = 256;
    uint32_t pipelineDepth = 2; // 0 = monolithic batch path
    size_t workspaceMb = 256;   // shared workspace-pool budget
    uint32_t threads = 0;
    uint64_t seed = 7;
    bool json = false;
    bool csv = false;
    bool prom = false;
    std::string traceOut;     // Chrome trace_event JSON path
    double metricsEvery = 0.0; // seconds; > 0 starts the reporter
    double slowMs = 0.0;       // slow-request log threshold

    // Live telemetry plane (all off by default).
    int adminPort = -1;        // admin server port; 0 = ephemeral
    double sloMs = 0.0;        // SLO latency target; 0 disables
    double sloObjective = 0.99; // SLO good-fraction objective
    bool hwCounters = false;   // perf_event cache counters

    // Overload robustness (all off by default).
    double deadlineMs = 0.0;     // per-request deadline budget
    size_t shedWatermark = 0;    // shed depth; 0 disables
    double drainTimeoutMs = 0.0; // bounded shutdown drain
    uint32_t retries = 0;        // client retries past the 1st attempt
    double backoffMs = 1.0;      // base retry backoff

    // Fault injection (all zero = injector not installed).
    FaultConfig faults;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--model NAME] [--dataset NAME]\n"
        "          [--candidates C] [--queries Q] [--requests N]\n"
        "          [--qps R | --clients K]\n"
        "          [--retrieval=exhaustive|cascade] [--shortlist=C]\n"
        "          [--tag-prune=F] [--tag-level L]\n"
        "          [--batch B] [--flush-us U] [--topk K]\n"
        "          [--pipeline-depth D] [--workspace-mb M]\n"
        "          [--dedup=on|off] [--memo=on|off] [--memo-mb M]\n"
        "          [--threads T] [--seed S] [--json] [--csv] [--prom]\n"
        "          [--trace-out FILE] [--metrics-every SEC]\n"
        "          [--slow-ms MS] [--version]\n"
        "          [--admin-port P] [--slo-ms MS]\n"
        "          [--slo-objective F] [--hw-counters]\n"
        "          [--deadline-ms D] [--shed-watermark N]\n"
        "          [--drain-timeout-ms D] [--retries K]\n"
        "          [--backoff-ms B]\n"
        "          [--fault-error-prob P] [--fault-delay-prob P]\n"
        "          [--fault-delay-us U] [--fault-stall-batches N]\n"
        "          [--fault-stall-us U] [--fault-seed S]\n"
        "          [--mutate-rate R] [--mutate-inserts F]\n"
        "          [--mutate-publish N] [--mutate-pool P] [--skew S]\n"
        "models: GMN-Li GraphSim SimGNN\n"
        "datasets: AIDS COLLAB GITHUB RD-B RD-5K RD-12K BIN-CFG\n"
        "--qps > 0 drives open-loop Poisson arrivals; otherwise\n"
        "--clients closed-loop workers issue back-to-back requests.\n"
        "--pipeline-depth D sets the per-stage queue depth of the\n"
        "embed/match/head batch pipeline (default 2; 0 selects the\n"
        "monolithic batch path — bit-identical, no overlap);\n"
        "--workspace-mb caps the shared tensor workspace pool behind\n"
        "the workspace.* gauges.\n"
        "--trace-out writes a Chrome trace_event JSON (Perfetto /\n"
        "chrome://tracing); --prom prints the metrics registry as\n"
        "Prometheus text; --metrics-every prints periodic stats to\n"
        "stderr; --slow-ms logs requests slower than the threshold.\n"
        "--retrieval=cascade serves through the filter-then-verify\n"
        "cascade: WL-tag filter (--tag-prune overlap threshold at\n"
        "--tag-level depth; default 0 = off, opt in for clone-style\n"
        "workloads), coarse model-aware shortlist of --shortlist\n"
        "candidates, exact GMN on the survivors only. Exhaustive mode\n"
        "stays the oracle; cascade trades recall for latency.\n"
        "--admin-port starts the embedded admin/scrape server on\n"
        "127.0.0.1 (0 = ephemeral; the bound address is printed to\n"
        "stdout) serving /metrics /varz /healthz /readyz /tracez\n"
        "/statusz; --slo-ms + --slo-objective define the latency SLO\n"
        "behind the serve.slo.burn.* gauges; --hw-counters polls\n"
        "perf_event cache counters into hw.* gauges (gracefully\n"
        "unavailable in containers).\n"
        "--deadline-ms bounds each request (expired requests fail\n"
        "fast, unscored); --shed-watermark sheds the least-budget\n"
        "queued requests past that depth; --drain-timeout-ms bounds\n"
        "the shutdown drain; --retries enables jittered-backoff\n"
        "client retries; the --fault-* flags install the seeded\n"
        "fault injector (serve/faults.hh) for chaos runs.\n"
        "--mutate-rate R interleaves R corpus mutations per query on\n"
        "the open-loop arrival stream (live inserts from a seeded\n"
        "generator pool, removes of random live entries), published\n"
        "as a new corpus epoch every --mutate-publish staged ops;\n"
        "in-flight batches keep scoring their pinned epoch. --skew\n"
        "draws query indices Zipf(S) instead of round-robin.\n",
        argv0);
    std::exit(2);
}

ModelId
parseModel(const std::string &name, const char *argv0)
{
    for (ModelId id : allModels()) {
        if (modelConfig(id).name == name)
            return id;
    }
    std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
    usage(argv0);
}

DatasetId
parseDataset(const std::string &name, const char *argv0)
{
    for (DatasetId id : extendedDatasets()) {
        if (datasetSpec(id).name == name)
            return id;
    }
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    usage(argv0);
}

bool
parseToggle(const std::string &value, const char *flag, const char *argv0)
{
    if (value == "on")
        return true;
    if (value == "off")
        return false;
    std::fprintf(stderr, "%s expects on|off, got '%s'\n", flag,
                 value.c_str());
    usage(argv0);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg.rfind("--dedup=", 0) == 0) {
            opts.dedup = parseToggle(arg.substr(8), "--dedup", argv[0]);
        } else if (arg.rfind("--retrieval=", 0) == 0) {
            std::string mode = arg.substr(12);
            if (mode == "exhaustive") {
                opts.retrieval.mode = RetrievalMode::Exhaustive;
            } else if (mode == "cascade") {
                opts.retrieval.mode = RetrievalMode::Cascade;
            } else {
                std::fprintf(stderr,
                             "--retrieval expects exhaustive|cascade, "
                             "got '%s'\n",
                             mode.c_str());
                usage(argv[0]);
            }
        } else if (arg.rfind("--shortlist=", 0) == 0) {
            opts.retrieval.shortlist =
                flagValue<size_t>("--shortlist", arg.substr(12));
        } else if (arg == "--shortlist") {
            opts.retrieval.shortlist = flagValue<size_t>("--shortlist", next());
        } else if (arg.rfind("--tag-prune=", 0) == 0) {
            opts.retrieval.tagPrune =
                flagValue("--tag-prune", arg.substr(12), 0.0, 1.0);
        } else if (arg == "--tag-prune") {
            opts.retrieval.tagPrune =
                flagValue("--tag-prune", next(), 0.0, 1.0);
        } else if (arg == "--tag-level") {
            opts.retrieval.tagLevel =
                flagValue<unsigned>("--tag-level", next(), 0, 64);
        } else if (arg.rfind("--memo=", 0) == 0) {
            opts.memo = parseToggle(arg.substr(7), "--memo", argv[0]);
        } else if (arg == "--model") {
            opts.model = parseModel(next(), argv[0]);
        } else if (arg == "--dataset") {
            opts.dataset = parseDataset(next(), argv[0]);
        } else if (arg == "--candidates") {
            opts.candidates = flagValue<uint32_t>("--candidates", next(), 1);
        } else if (arg == "--queries") {
            opts.queries = flagValue<uint32_t>("--queries", next(), 1);
        } else if (arg == "--requests") {
            opts.requests = flagValue<uint32_t>("--requests", next(), 1);
        } else if (arg == "--qps") {
            opts.qps = flagValue("--qps", next(), 0.0, 1e9);
        } else if (arg == "--clients") {
            opts.clients =
                flagValue<uint32_t>("--clients", next(), 1, kMaxThreads);
        } else if (arg == "--batch") {
            opts.batch = flagValue<uint32_t>("--batch", next(), 1);
        } else if (arg == "--flush-us") {
            opts.flushUs = flagValue<uint32_t>("--flush-us", next());
        } else if (arg == "--topk") {
            opts.topk = flagValue<uint32_t>("--topk", next());
        } else if (arg == "--memo-mb") {
            opts.memoMb = flagValue<size_t>("--memo-mb", next(), 0, kMaxMb);
        } else if (arg == "--pipeline-depth") {
            opts.pipelineDepth =
                flagValue<uint32_t>("--pipeline-depth", next());
        } else if (arg == "--workspace-mb") {
            opts.workspaceMb =
                flagValue<size_t>("--workspace-mb", next(), 0, kMaxMb);
        } else if (arg == "--threads") {
            opts.threads =
                flagValue<uint32_t>("--threads", next(), 0, kMaxThreads);
        } else if (arg == "--seed") {
            opts.seed = flagValue<uint64_t>("--seed", next());
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--prom") {
            opts.prom = true;
        } else if (arg == "--trace-out") {
            opts.traceOut = next();
        } else if (arg == "--metrics-every") {
            opts.metricsEvery = flagValue("--metrics-every", next(), 0.0, 1e9);
        } else if (arg == "--slow-ms") {
            opts.slowMs = flagValue("--slow-ms", next(), 0.0, 1e9);
        } else if (arg.rfind("--admin-port=", 0) == 0) {
            opts.adminPort =
                flagValue("--admin-port", arg.substr(13), -1, 65535);
        } else if (arg == "--admin-port") {
            opts.adminPort = flagValue("--admin-port", next(), -1, 65535);
        } else if (arg == "--slo-ms") {
            opts.sloMs = flagValue("--slo-ms", next(), 0.0, 1e9);
        } else if (arg == "--slo-objective") {
            opts.sloObjective = flagValue("--slo-objective", next(), 0.0, 1.0);
        } else if (arg == "--hw-counters") {
            opts.hwCounters = true;
        } else if (arg == "--deadline-ms") {
            opts.deadlineMs = flagValue("--deadline-ms", next(), 0.0, 1e9);
        } else if (arg == "--shed-watermark") {
            opts.shedWatermark = flagValue<size_t>("--shed-watermark", next());
        } else if (arg == "--drain-timeout-ms") {
            opts.drainTimeoutMs =
                flagValue("--drain-timeout-ms", next(), 0.0, 1e9);
        } else if (arg == "--retries") {
            opts.retries = flagValue<uint32_t>("--retries", next(), 0, 1000);
        } else if (arg == "--backoff-ms") {
            opts.backoffMs = flagValue("--backoff-ms", next(), 0.0, 1e9);
        } else if (arg == "--fault-error-prob") {
            opts.faults.errorProb =
                flagValue("--fault-error-prob", next(), 0.0, 1.0);
        } else if (arg == "--fault-delay-prob") {
            opts.faults.delayProb =
                flagValue("--fault-delay-prob", next(), 0.0, 1.0);
        } else if (arg == "--fault-delay-us") {
            opts.faults.delayMicros =
                flagValue<uint32_t>("--fault-delay-us", next());
        } else if (arg == "--fault-stall-batches") {
            opts.faults.stallBatches =
                flagValue<uint32_t>("--fault-stall-batches", next());
        } else if (arg == "--fault-stall-us") {
            opts.faults.stallMicros =
                flagValue<uint32_t>("--fault-stall-us", next());
        } else if (arg == "--fault-seed") {
            opts.faults.seed = flagValue<uint64_t>("--fault-seed", next());
        } else if (arg == "--mutate-rate") {
            opts.mutateRate = flagValue("--mutate-rate", next(), 0.0, 1e6);
        } else if (arg == "--mutate-inserts") {
            opts.mutateInserts =
                flagValue("--mutate-inserts", next(), 0.0, 1.0);
        } else if (arg == "--mutate-publish") {
            opts.mutatePublish =
                flagValue<uint32_t>("--mutate-publish", next(), 1);
        } else if (arg == "--mutate-pool") {
            opts.mutatePool = flagValue<uint32_t>("--mutate-pool", next());
        } else if (arg == "--skew") {
            opts.skew = flagValue("--skew", next(), 0.0, 1e3);
        } else if (arg == "--version") {
            std::printf("%s\n", obs::buildInfoString().c_str());
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
        }
    }
    if (opts.candidates == 0 || opts.queries == 0 || opts.requests == 0)
        usage(argv[0]);
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opts = parseArgs(argc, argv);
    if (opts.threads != 0)
        ThreadPool::instance().setThreads(opts.threads);

    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        opts.dataset, opts.queries, opts.candidates, opts.seed);

    ServeConfig config;
    config.model = opts.model;
    config.dedup = opts.dedup;
    config.memo = opts.memo;
    config.memoBytes = opts.memoMb << 20;
    config.maxBatch = opts.batch;
    config.flushMicros = opts.flushUs;
    config.topK = opts.topk;
    config.pipelineDepth = opts.pipelineDepth;
    config.workspaceMb = opts.workspaceMb;
    config.retrieval = opts.retrieval;
    config.slowMs = opts.slowMs;
    config.requestDeadlineMs = opts.deadlineMs;
    config.shedWatermark = opts.shedWatermark;
    config.drainTimeoutMs = opts.drainTimeoutMs;
    config.adminPort = opts.adminPort;
    config.slo.targetMs = opts.sloMs;
    config.slo.objective = opts.sloObjective;
    config.hwCounters = opts.hwCounters;

    // Install the seeded fault injector only when a fault was asked
    // for; a null hook keeps the hot path at one branch per batch.
    std::optional<FaultInjector> injector;
    if (opts.faults.errorProb > 0.0 || opts.faults.delayProb > 0.0 ||
        opts.faults.stallBatches > 0) {
        injector.emplace(opts.faults);
        config.faults = &*injector;
    }

    RetryPolicy retry;
    retry.maxAttempts = opts.retries + 1;
    retry.baseBackoffMs = opts.backoffMs;
    retry.deadlineMs = opts.deadlineMs;

    if (!opts.traceOut.empty())
        obs::setTracingEnabled(true);

    bool mutating = opts.mutateRate > 0.0 || opts.skew > 0.0;
    if (mutating && opts.qps <= 0.0) {
        std::fprintf(stderr, "--mutate-rate/--skew require open-loop "
                             "mode (--qps > 0)\n");
        return 2;
    }

    SearchService service(config, corpus.candidates,
                          corpus.candidateIds);

    if (opts.adminPort >= 0) {
        if (service.adminPort() < 0) {
            std::fprintf(stderr, "admin: failed to start\n");
            return 1;
        }
        // Printed to stdout (and flushed) before the load starts so
        // scripts can scrape the ephemeral port while the run is live.
        std::printf("admin: listening on 127.0.0.1:%d\n",
                    service.adminPort());
        std::fflush(stdout);
    }

    // Periodic stats reporter: one stderr line per interval while the
    // load runs (single fwrite per line — see common/logging.cc).
    std::mutex reporter_mutex;
    std::condition_variable reporter_cv;
    bool reporter_stop = false;
    std::thread reporter;
    if (opts.metricsEvery > 0.0) {
        reporter = std::thread([&] {
            std::unique_lock<std::mutex> lock(reporter_mutex);
            auto interval =
                std::chrono::duration<double>(opts.metricsEvery);
            while (!reporter_cv.wait_for(
                lock, interval, [&] { return reporter_stop; })) {
                MetricsSnapshot s = service.metrics();
                std::fprintf(
                    stderr,
                    "stats: %llu/%llu done, %.1f qps, p50 %.2f ms, "
                    "p95 %.2f ms, queue %llu, cache hit %.0f%%\n",
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.submitted),
                    s.qps, s.latencyP50Ms, s.latencyP95Ms,
                    static_cast<unsigned long long>(s.queueDepth),
                    100.0 * s.cacheHitRate);
            }
        });
    }

    LoadGenResult run;
    if (mutating) {
        // Seeded insert pool: enough fresh graphs to satisfy the
        // offered insert stream (sized from the rate when not given).
        MutationMix mix;
        mix.perQuery = opts.mutateRate;
        mix.insertFraction = opts.mutateInserts;
        mix.publishBatch = opts.mutatePublish;
        mix.zipfSkew = opts.skew;
        uint32_t pool_size =
            opts.mutatePool > 0
                ? opts.mutatePool
                : static_cast<uint32_t>(
                      opts.mutateRate * opts.requests + 1.0);
        MutationPool pool =
            makeMutationPool(opts.dataset, pool_size, opts.seed);
        MutationPlan plan =
            planMutations(corpus.candidateIds, pool, opts.requests,
                          mix, opts.seed + 11);
        run = runOpenLoopMutating(service, corpus.queries, pool, plan,
                                  mix, opts.requests, opts.qps,
                                  opts.seed, retry);
        std::fprintf(
            stderr,
            "corpus: epoch %llu, %llu live, %llu inserts, "
            "%llu removes, %llu tombstones, %llu epochs reclaimed, "
            "%llu compactions\n",
            static_cast<unsigned long long>(run.metrics.corpusEpoch),
            static_cast<unsigned long long>(run.metrics.corpusLive),
            static_cast<unsigned long long>(run.metrics.corpusInserts),
            static_cast<unsigned long long>(run.metrics.corpusRemoves),
            static_cast<unsigned long long>(
                run.metrics.corpusTombstones),
            static_cast<unsigned long long>(
                run.metrics.corpusEpochsReclaimed),
            static_cast<unsigned long long>(
                run.metrics.corpusCompactions));
    } else if (opts.qps > 0.0) {
        run = runOpenLoop(service, corpus.queries, opts.requests,
                          opts.qps, opts.seed, retry);
    } else {
        run = runClosedLoop(service, corpus.queries, opts.requests,
                            opts.clients, retry, opts.seed);
    }

    if (reporter.joinable()) {
        {
            std::lock_guard<std::mutex> lock(reporter_mutex);
            reporter_stop = true;
        }
        reporter_cv.notify_all();
        reporter.join();
    }
    service.shutdown();
    MetricsSnapshot snap = run.metrics;

    if (!opts.traceOut.empty()) {
        size_t spans = obs::writeChromeTrace(opts.traceOut);
        std::fprintf(stderr, "trace: %zu spans -> %s\n", spans,
                     opts.traceOut.c_str());
    }

    if (opts.prom) {
        std::fputs(service.registry().snapshot().toPrometheus().c_str(),
                   stdout);
        return 0;
    }

    if (opts.json) {
        std::printf("%s\n", snap.toJson().c_str());
        return 0;
    }

    std::string mode =
        opts.qps > 0.0
            ? "open@" + TextTable::fmt(opts.qps, 1) + "qps"
            : "closed x" + std::to_string(opts.clients);
    TextTable table({"model", "dataset", "mode", "reqs", "ok", "rej",
                     "exp", "shed", "retry", "qps", "p50 ms", "p95 ms",
                     "p99 ms", "batch", "hit%", "skip%", "pruned%",
                     "evict", "cache"});
    table.addRow({
        modelConfig(opts.model).name,
        datasetSpec(opts.dataset).name,
        mode,
        std::to_string(snap.submitted),
        std::to_string(snap.completed),
        std::to_string(snap.rejected),
        std::to_string(snap.expired),
        std::to_string(snap.shed),
        std::to_string(snap.retries),
        TextTable::fmt(run.achievedQps, 2),
        TextTable::fmt(snap.latencyP50Ms, 2),
        TextTable::fmt(snap.latencyP95Ms, 2),
        TextTable::fmt(snap.latencyP99Ms, 2),
        TextTable::fmt(snap.batchMean, 2),
        TextTable::fmtPct(snap.cacheHitRate),
        TextTable::fmtPct(snap.dedupSkipRatio),
        TextTable::fmtPct(snap.retrievalPruneRatio),
        std::to_string(snap.cacheEvictions),
        TextTable::fmtBytes(static_cast<double>(snap.cacheBytes)),
    });
    if (opts.csv) {
        table.printCsv(std::cout);
    } else {
        table.print(std::cout);
    }
    return 0;
}
