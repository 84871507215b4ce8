/**
 * @file
 * servebench — the repository's serving benchmark. Drives
 * `SearchService` through its public API on one workload and prints
 * the end-to-end metrics (`--trace 0`) or the per-layer metrics
 * (`--trace 1`), then checks every served score against a serial
 * oracle. The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Usage:
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--out-dir DIR]
 *
 * One repetition: input generation from the seed (untimed), set-up
 * (service construction plus one warm-up pass, repeated and reported
 * as a median), an open-loop phase at the workload's fixed rate, a
 * bulk phase that submits a multiple of 16 queries at once, the peak
 * RSS read, then the oracle checks. perfbench/README.md explains the
 * workloads, metrics and design rules.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "corpus/live_corpus.hh"
#include "emf/emf.hh"
#include "gmn/memo.hh"
#include "gmn/model.hh"
#include "gmn/similarity.hh"
#include "graph/dataset.hh"
#include "obs/build_info.hh"
#include "perfbench/harness.hh"
#include "retrieval/coarse.hh"
#include "serve/service.hh"
#include "tensor/matrix.hh"
#include "tensor/workspace.hh"

using namespace cegma;
using namespace servebench;

namespace {

constexpr uint32_t kPoolThreads = 2;   ///< design rule 5
constexpr uint32_t kOracleThreads = 4; ///< after the timed phases only
constexpr int kSetups = 3;             ///< setup_s is their median
constexpr uint32_t kQueries = 16;
constexpr uint32_t kTopK = 10;
constexpr double kTailPct = 90.0;

/**
 * One workload. Offered rates are constants (never calibrated at run
 * time), so the parent and a change face the same traffic.
 */
struct Workload
{
    const char *name;
    ModelId model;
    DatasetId dataset;
    uint32_t candidates;
    bool cascade;
    bool writes;
    /** Every graph at the dataset's mean size (see README, rule 8). */
    bool fixedSize;
    double qps;       ///< open-loop query rate
    double openShare; ///< share of --seconds given to the open loop
    uint32_t bulk;    ///< bulk-phase queries, a multiple of kQueries
};

const Workload kWorkloads[] = {
    {"clone-rdb-gmnli", ModelId::GmnLi, DatasetId::RD_B, 4, false, false,
     true, 3.0, 0.9, 224},
    {"live-aids-20k", ModelId::SimGnn, DatasetId::AIDS, 20000, true, true,
     false, 10.0, 0.5, 960},
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "servebench: %s\n", msg.c_str());
    std::exit(2);
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt, uint64_t index)
{
    uint64_t z = seed + salt * 0xd1b54a32d192ed03ULL +
                 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---- Inputs ---------------------------------------------------------

struct Inputs
{
    std::vector<Graph> candidates;
    std::vector<uint64_t> ids;
    std::vector<Graph> queries; ///< each a 1-edge clone of a candidate
    MutationPool pool;
    std::vector<double> arrivals;
    std::vector<WriteOp> writes;
    /**
     * Traced run only: the untraced pass that precedes the traced one
     * (for trace.overhead_share) runs the first half of `arrivals` with
     * these writes; `writes` then continues from the state they leave.
     */
    std::vector<WriteOp> baselineWrites;
    uint32_t bulk = 0;
    double writeQps = 0.0;
};

/**
 * A clone-search corpus whose graphs all have the dataset's mean node
 * count; structure, clones and ids still come from the seed.
 */
CloneSearchCorpus
fixedSizeCorpus(DatasetId base, uint32_t num_queries,
                uint32_t num_candidates, uint64_t seed)
{
    const DatasetSpec &spec = datasetSpec(base);
    auto n = static_cast<NodeId>(std::lround(spec.avgNodes));
    CloneSearchCorpus corpus;
    corpus.candidates.resize(num_candidates);
    corpus.candidateIds.resize(num_candidates);
    for (uint32_t c = 0; c < num_candidates; ++c) {
        uint64_t stream = mixSeed(seed, 1, c);
        corpus.candidateIds[c] = stream;
        Rng rng(stream);
        corpus.candidates[c] = makeDatasetGraph(base, n, rng);
    }
    corpus.queries.resize(num_queries);
    for (uint32_t q = 0; q < num_queries; ++q) {
        Rng rng(mixSeed(seed, 2, q));
        corpus.queries[q] =
            corpus.candidates[q % num_candidates].substituteEdges(1, rng);
    }
    return corpus;
}

/**
 * Replace the queries by 1-edge clones of the candidates at the
 * `kQueries` stratified quantiles of the corpus's node counts, so every
 * seed queries the same spread of sizes (a query's work grows with its
 * size); which graphs have those sizes, and their structure, still come
 * from the seed.
 */
void
stratifyQueries(CloneSearchCorpus &corpus, uint64_t seed)
{
    std::vector<uint32_t> by_size(corpus.candidates.size());
    for (uint32_t c = 0; c < by_size.size(); ++c)
        by_size[c] = c;
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](uint32_t a, uint32_t b) {
                         return corpus.candidates[a].numNodes() <
                                corpus.candidates[b].numNodes();
                     });
    for (uint32_t q = 0; q < corpus.queries.size(); ++q) {
        const auto rank = static_cast<size_t>(
            (q + 0.5) / static_cast<double>(corpus.queries.size()) *
            static_cast<double>(by_size.size()));
        Rng rng(mixSeed(seed, 2, q));
        corpus.queries[q] =
            corpus.candidates[by_size[rank]].substituteEdges(1, rng);
    }
}

/** Ids live after `plan` has been applied to `ids`. */
std::vector<uint64_t>
liveAfter(std::vector<uint64_t> ids, const std::vector<WriteOp> &plan)
{
    for (const WriteOp &op : plan) {
        if (op.insert)
            ids.push_back(op.id);
        else
            ids.erase(std::find(ids.begin(), ids.end(), op.id));
    }
    return ids;
}

Inputs
makeInputs(const Workload &w, uint64_t seed, double seconds, bool traced)
{
    Inputs in;
    CloneSearchCorpus corpus;
    if (w.fixedSize) {
        corpus = fixedSizeCorpus(w.dataset, kQueries, w.candidates, seed);
    } else {
        corpus = makeCloneSearchCorpus(w.dataset, kQueries, w.candidates,
                                       seed);
        stratifyQueries(corpus, seed);
    }
    in.candidates = std::move(corpus.candidates);
    in.ids = std::move(corpus.candidateIds);
    in.queries = std::move(corpus.queries);

    const double open_sec = w.openShare * seconds;
    auto arrivals = static_cast<uint32_t>(std::floor(w.qps * open_sec));
    in.arrivals = arrivalSchedule(mixSeed(seed, 3, 0), w.qps, arrivals);

    in.bulk = w.bulk;

    if (w.writes) {
        in.writeQps = w.qps / 2.0;
        auto writes =
            static_cast<uint32_t>(std::floor(in.writeQps * open_sec));
        const uint32_t inserts = writes / 2 + 1;
        const uint32_t baseline = traced ? writes / 2 : 0;
        in.pool = makeMutationPool(w.dataset, inserts + baseline / 2 + 1,
                                   seed);
        std::vector<uint64_t> main_ids(in.pool.ids.begin(),
                                       in.pool.ids.begin() + inserts);
        std::vector<uint64_t> live = in.ids;
        if (traced) {
            std::vector<uint64_t> extra(in.pool.ids.begin() + inserts,
                                        in.pool.ids.end());
            in.baselineWrites = planWrites(mixSeed(seed, 4, 1), in.writeQps,
                                           baseline, in.ids, extra);
            for (WriteOp &op : in.baselineWrites)
                op.poolIndex += op.insert ? inserts : 0;
            live = liveAfter(live, in.baselineWrites);
        }
        in.writes = planWrites(mixSeed(seed, 4, 0), in.writeQps, writes,
                               live, main_ids);
    }
    return in;
}

ServeConfig
serveConfig(const Workload &w)
{
    // ServeConfig defaults otherwise (design rule 7): maxBatch 16,
    // 2 ms flush, pipeline depth 2, 256 MiB memo and workspace, top-10;
    // admin, attribution and tracing off.
    ServeConfig config;
    config.model = w.model;
    config.retrieval.mode =
        w.cascade ? RetrievalMode::Cascade : RetrievalMode::Exhaustive;
    return config;
}

// ---- Process probes -------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Peak resident set (VmHWM) in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

long
l2Bytes()
{
#ifdef _SC_LEVEL2_CACHE_SIZE
    return sysconf(_SC_LEVEL2_CACHE_SIZE);
#else
    return -1;
#endif
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Phases ---------------------------------------------------------

/** One served query whose result the oracle will check. */
struct Served
{
    uint32_t query = 0;
    const QueryResult *result = nullptr; ///< owned by its phase's run
};

struct WriteRecord
{
    double dueSec = 0.0;
    double startSec = 0.0;
    double appliedSec = 0.0; ///< insert/remove returned
    double flushedSec = 0.0; ///< flushMutations returned
    bool ok = false;
    uint64_t epoch = 0;
};

struct OpenPhase
{
    OpenLoopRun<QueryResult> run;
    std::vector<WriteRecord> writes;
    obs::RegistrySnapshot before, after;
};

/** Joins a thread on every exit path. */
struct Joiner
{
    std::thread &t;
    ~Joiner()
    {
        if (t.joinable())
            t.join();
    }
};

void
recordSpan(SpanLog *spans, const char *name, Clock::time_point start,
           double a_sec, double b_sec, int64_t parent, int64_t request,
           int64_t *id_out = nullptr)
{
    if (spans == nullptr)
        return;
    uint64_t base = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count());
    Span s;
    s.name = name;
    s.startNs = base + static_cast<uint64_t>(a_sec * 1e9);
    s.endNs = base + static_cast<uint64_t>(std::max(a_sec, b_sec) * 1e9);
    s.parent = parent;
    s.request = request;
    int64_t id = spans->add(std::move(s));
    if (id_out)
        *id_out = id;
}

/**
 * The open-loop phase: queries from the calling thread at the fixed
 * rate, writes (live workload) from their own thread on their own
 * schedule. With `spans`, each request and write becomes a span tree.
 */
OpenPhase
runOpenPhase(SearchService &service, const Inputs &in,
             const std::vector<double> &arrivals,
             const std::vector<WriteOp> &plan, SpanLog *spans)
{
    OpenPhase phase;
    phase.before = service.registry().snapshot();
    Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);

    phase.writes.resize(plan.size());
    std::thread writer;
    Joiner join_writer{writer};
    if (!plan.empty()) {
        writer = std::thread([&] {
            const int64_t base = static_cast<int64_t>(arrivals.size());
            for (size_t k = 0; k < plan.size(); ++k) {
                const WriteOp &op = plan[k];
                WriteRecord &rec = phase.writes[k];
                rec.dueSec = op.dueSec;
                std::this_thread::sleep_until(
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(op.dueSec)));
                rec.startSec = secondsBetween(start, Clock::now());
                try {
                    rec.ok = op.insert
                                 ? service.insert(
                                       op.id, in.pool.graphs[op.poolIndex])
                                 : service.remove(op.id);
                    rec.appliedSec = secondsBetween(start, Clock::now());
                    rec.epoch = service.flushMutations();
                } catch (const std::exception &) {
                    rec.ok = false;
                    rec.appliedSec = secondsBetween(start, Clock::now());
                }
                rec.flushedSec = secondsBetween(start, Clock::now());
                int64_t root = -1;
                const int64_t req = base + static_cast<int64_t>(k);
                recordSpan(spans, "driver.write", start, rec.dueSec,
                           rec.flushedSec, -1, req, &root);
                recordSpan(spans, op.insert ? "corpus.insert" : "corpus.remove",
                           start, rec.startSec, rec.appliedSec, root, req);
                recordSpan(spans, "corpus.flush", start, rec.appliedSec,
                           rec.flushedSec, root, req);
            }
        });
    }

    phase.run = driveOpenLoop<QueryResult>(
        arrivals,
        [&](size_t i) {
            return service.submit(in.queries[i % kQueries]);
        },
        start);
    if (writer.joinable())
        writer.join();
    phase.after = service.registry().snapshot();

    if (spans != nullptr) {
        for (size_t i = 0; i < phase.run.timing.size(); ++i) {
            const RequestTiming &t = phase.run.timing[i];
            const auto req = static_cast<int64_t>(i);
            double done = t.ok ? t.doneSec : t.sentSec;
            int64_t root = -1, query = -1;
            recordSpan(spans, "driver.request", start, t.dueSec, done, -1,
                       req, &root);
            recordSpan(spans, "driver.late", start, t.dueSec, t.sentSec,
                       root, req);
            recordSpan(spans, "serve.query", start, t.sentSec, done, root,
                       req, &query);
            if (phase.run.results[i]) {
                const QueryResult &r = *phase.run.results[i];
                recordSpan(spans, "serve.batcher", start, t.sentSec,
                           t.sentSec + r.queueMs / 1e3, query, req);
            }
        }
    }
    return phase;
}

struct BulkPhase
{
    OpenLoopRun<QueryResult> run;
    double throughputQps = 0.0;
    double cpuMsPerQuery = 0.0;
    obs::RegistrySnapshot before, after;
};

/**
 * Submit `in.bulk` queries at once. Capacity and CPU per query are
 * taken over every batch of 16 after the first, which fills the
 * pipeline: the host's speed swings from one second to the next, and a
 * mean over the whole phase evens them out where a median of a few
 * batches does not.
 */
BulkPhase
runBulkPhase(SearchService &service, const Inputs &in, uint32_t batch)
{
    BulkPhase phase;
    phase.before = service.registry().snapshot();
    std::vector<double> at_once(in.bulk, 0.0);
    std::vector<double> cpu_done(in.bulk, 0.0);
    phase.run = driveOpenLoop<QueryResult>(
        at_once,
        [&](size_t i) { return service.submit(in.queries[i % kQueries]); },
        Clock::now(), [&](size_t i) { cpu_done[i] = cpuSeconds(); });
    phase.after = service.registry().snapshot();
    std::vector<double> done;
    for (const RequestTiming &t : phase.run.timing)
        done.push_back(t.doneSec);
    phase.throughputQps = batch / steadyBatchSpan(done, batch);
    phase.cpuMsPerQuery = steadyBatchSpan(cpu_done, batch) * 1e3 / batch;
    return phase;
}

void
warmUp(SearchService &service, const Inputs &in)
{
    std::vector<std::future<QueryResult>> futures;
    for (const Graph &q : in.queries)
        futures.push_back(service.submit(q));
    for (auto &f : futures)
        f.get();
}

// ---- Oracle ---------------------------------------------------------

struct OracleReport
{
    bool correct = true;
    size_t scoresChecked = 0;
    size_t mismatches = 0;
    size_t liveSetMismatches = 0;
    double recall = 0.0;
    std::string firstError;

    void fail(const std::string &what)
    {
        if (correct)
            firstError = what;
        correct = false;
    }
};

uint64_t
idHash(uint64_t id)
{
    return mixSeed(id, 5, 0);
}

/**
 * The correctness gate. Every served score must equal, bit for bit,
 * a serial oracle's score (`makeModel` with the same seed, no memo,
 * no dedup) on the same (candidate, query) pair; every result's live
 * set must be the one the writer published at its pinned epoch; and
 * recall@10 is judged tie-aware against the exhaustive top-10 over
 * that live set.
 */
OracleReport
runOracle(const Workload &w, const Inputs &in,
          const std::vector<Served> &served,
          const std::vector<WriteOp> &ops,
          const std::vector<WriteRecord> &writes)
{
    OracleReport rep;
    ServeConfig config = serveConfig(w);

    // Column space: bootstrap candidates, then pool graphs.
    std::vector<const Graph *> graph_of;
    std::unordered_map<uint64_t, uint32_t> col_of;
    for (size_t c = 0; c < in.candidates.size(); ++c) {
        col_of[in.ids[c]] = static_cast<uint32_t>(graph_of.size());
        graph_of.push_back(&in.candidates[c]);
    }
    for (size_t p = 0; p < in.pool.graphs.size(); ++p) {
        col_of[in.pool.ids[p]] = static_cast<uint32_t>(graph_of.size());
        graph_of.push_back(&in.pool.graphs[p]);
    }

    // Distinct served (query, column) pairs -> strict oracle scores.
    std::map<std::pair<uint32_t, uint32_t>, double> strict;
    for (const Served &s : served) {
        const std::vector<uint64_t> &ids = *s.result->ids;
        for (size_t j = 0; j < s.result->scores.size(); ++j) {
            if (std::isnan(s.result->scores[j]))
                continue;
            auto it = col_of.find(ids[j]);
            if (it == col_of.end()) {
                rep.fail("served id unknown to the oracle");
                continue;
            }
            strict.emplace(std::make_pair(s.query, it->second), 0.0);
        }
    }
    std::vector<std::pair<uint32_t, uint32_t>> keys;
    for (auto &kv : strict)
        keys.push_back(kv.first);
    std::vector<double> values(keys.size());
    std::unique_ptr<GmnModel> oracle = makeModel(config.model,
                                                 config.modelSeed);
    parallelFor(0, keys.size(), 1, [&](size_t a, size_t b) {
        for (size_t i = a; i < b; ++i)
            values[i] = oracle->score(GraphPairView(
                *graph_of[keys[i].second], in.queries[keys[i].first]));
    });
    for (size_t i = 0; i < keys.size(); ++i)
        strict[keys[i]] = values[i];

    // Exhaustive scores over every column, for recall. Exhaustive
    // workloads serve every pair, so the strict scores are complete;
    // cascade workloads score the rest with a memoized, deduplicated
    // model (bit-identical by the repository's contract), checked
    // against the strict oracle on every served pair.
    const size_t cols = graph_of.size();
    std::vector<std::vector<double>> exact(kQueries,
                                           std::vector<double>(cols, NAN));
    if (w.cascade) {
        std::unique_ptr<GmnModel> fast = makeModel(config.model,
                                                   config.modelSeed);
        MemoConfig mc;
        mc.maxBytes = size_t{64} << 20;
        MemoCache memo(mc);
        InferenceOptions opts;
        opts.dedupMatching = false;
        opts.memo = &memo;
        fast->setInferenceOptions(opts);
        parallelFor(0, cols, 16, [&](size_t a, size_t b) {
            for (size_t c = a; c < b; ++c)
                for (uint32_t q = 0; q < kQueries; ++q)
                    exact[q][c] = fast->score(
                        GraphPairView(*graph_of[c], in.queries[q]));
        });
        for (const auto &[key, v] : strict) {
            if (std::memcmp(&exact[key.first][key.second], &v,
                            sizeof v) != 0)
                rep.fail("memoized exhaustive oracle disagrees with the "
                         "strict oracle");
        }
    } else {
        for (const auto &[key, v] : strict)
            exact[key.first][key.second] = v;
    }

    // Live-set hash of every epoch the writer published.
    std::unordered_map<uint64_t, std::pair<uint64_t, size_t>> epoch_set;
    {
        uint64_t h = 0;
        for (uint64_t id : in.ids)
            h += idHash(id);
        size_t n = in.ids.size();
        epoch_set[0] = {h, n};
        for (size_t k = 0; k < writes.size(); ++k) {
            if (!writes[k].ok)
                continue;
            if (ops[k].insert) {
                h += idHash(ops[k].id);
                ++n;
            } else {
                h -= idHash(ops[k].id);
                --n;
            }
            epoch_set[writes[k].epoch] = {h, n};
        }
    }

    std::map<std::pair<uint32_t, uint64_t>, double> kth_cache;
    std::set<const std::vector<uint64_t> *> ids_checked;
    size_t hits = 0, slots = 0;
    for (const Served &s : served) {
        const QueryResult &r = *s.result;
        const std::vector<uint64_t> &ids = *r.ids;
        if (r.scores.size() != ids.size()) {
            rep.fail("scores and ids differ in length");
            continue;
        }
        if (ids_checked.insert(r.ids.get()).second) {
            uint64_t h = 0;
            for (uint64_t id : ids)
                h += idHash(id);
            auto it = epoch_set.find(r.epoch);
            if (it == epoch_set.end() || it->second.first != h ||
                it->second.second != ids.size()) {
                ++rep.liveSetMismatches;
                rep.fail("live set differs from the writer's at epoch " +
                         std::to_string(r.epoch));
            }
        }
        for (size_t j = 0; j < r.scores.size(); ++j) {
            if (std::isnan(r.scores[j]))
                continue;
            auto it = col_of.find(ids[j]);
            if (it == col_of.end())
                continue;
            double want = strict[{s.query, it->second}];
            ++rep.scoresChecked;
            if (std::memcmp(&want, &r.scores[j], sizeof want) != 0) {
                ++rep.mismatches;
                rep.fail("served score differs from the serial oracle");
            }
        }
        auto key = std::make_pair(s.query, r.epoch);
        auto kit = kth_cache.find(key);
        if (kit == kth_cache.end()) {
            std::vector<double> live;
            live.reserve(ids.size());
            for (uint64_t id : ids)
                live.push_back(exact[s.query][col_of.at(id)]);
            size_t keep = std::min<size_t>(kTopK, live.size());
            std::nth_element(live.begin(),
                             live.begin() +
                                 static_cast<ptrdiff_t>(keep - 1),
                             live.end(), std::greater<>());
            kit = kth_cache.emplace(key, live[keep - 1]).first;
        }
        for (const SearchHit &hit : r.topK) {
            if (hit.candidate >= r.scores.size() ||
                std::memcmp(&hit.score, &r.scores[hit.candidate],
                            sizeof hit.score) != 0) {
                rep.fail("top-k hit does not match its score slot");
                continue;
            }
            if (hit.score >= kit->second)
                ++hits;
        }
        slots += std::min<size_t>(kTopK, ids.size());
    }
    rep.recall = slots > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(slots)
                           : 0.0;
    return rep;
}

// ---- Traced replay --------------------------------------------------

struct ReplayReport
{
    double shortlistMs = 0.0;      ///< median per query
    double scoreMs = 0.0;          ///< median per pair
    double embedMs = 0.0, matchMs = 0.0, dedupMs = 0.0, headMs = 0.0;
    double layerMsPerQuery = 0.0;  ///< shortlist + scores, per query
    double emfUsPerKrow = 0.0;
    double matmulGflops = 0.0;
    double similarityGflops = 0.0;
};

double
histSumMs(const obs::Histogram &h)
{
    return h.summary().sum / 1e3;
}

/**
 * Serial replay of each distinct query against a pinned snapshot:
 * the shortlist, then every pair the service would score, then the
 * kernels at the pair's layer shapes. Runs on one pool thread, so a
 * call's wall time is its CPU time.
 */
ReplayReport
runReplay(const Workload &w, const SearchService &service, const Inputs &in,
          SpanLog &spans)
{
    ReplayReport rep;
    ServeConfig config = serveConfig(w);
    std::unique_ptr<GmnModel> model = makeModel(config.model,
                                                config.modelSeed);
    MemoConfig mc;
    mc.maxBytes = config.memoBytes;
    mc.shards = config.memoShards;
    MemoCache memo(mc);
    obs::Histogram embed("us"), match("us"), dedup("us"), head("us");
    obs::StageSink sink{&embed, &match, &dedup, &head};
    InferenceOptions opts;
    opts.dedupMatching = config.dedup;
    opts.memo = config.memo ? &memo : nullptr;
    model->setInferenceOptions(opts);

    LiveCorpus::SnapshotPtr snap = service.corpus().pin();
    auto pairsOf = [&](const Graph &q) {
        return w.cascade ? service.corpus().shortlist(*snap, q, *model)
                         : snap->liveSlots();
    };
    for (const Graph &q : in.queries) // warm-up pass
        for (uint32_t s : pairsOf(q))
            model->score(GraphPairView(snap->graph(s), q));

    opts.stages = &sink;
    model->setInferenceOptions(opts);
    std::vector<double> shortlist_ms, score_ms;
    double layer_ms = 0.0;
    for (uint32_t qi = 0; qi < in.queries.size(); ++qi) {
        const Graph &q = in.queries[qi];
        const int64_t req = -2 - static_cast<int64_t>(qi);
        int64_t root = spans.open("bench.replay", -1, req);
        std::vector<uint32_t> slots;
        if (w.cascade) {
            int64_t id = spans.open("retrieval.shortlist", root, req);
            auto t0 = Clock::now();
            slots = service.corpus().shortlist(*snap, q, *model);
            double ms = secondsBetween(t0, Clock::now()) * 1e3;
            spans.close(id);
            shortlist_ms.push_back(ms);
            layer_ms += ms;
        } else {
            slots = snap->liveSlots();
        }
        for (uint32_t s : slots) {
            int64_t id = spans.open("gmn.score", root, req);
            auto t0 = Clock::now();
            model->score(GraphPairView(snap->graph(s), q));
            double ms = secondsBetween(t0, Clock::now()) * 1e3;
            spans.close(id);
            score_ms.push_back(ms);
            layer_ms += ms;
        }
        spans.close(root);
    }
    const double pairs = static_cast<double>(std::max<size_t>(score_ms.size(), 1));
    rep.shortlistMs = median(shortlist_ms);
    rep.scoreMs = median(score_ms);
    rep.embedMs = histSumMs(embed) / pairs;
    rep.matchMs = histSumMs(match) / pairs;
    rep.dedupMs = histSumMs(dedup) / pairs;
    rep.headMs = histSumMs(head) / pairs;
    rep.layerMsPerQuery = layer_ms / static_cast<double>(in.queries.size());

    // Kernels at the layer shapes of each query's first pair.
    std::unique_ptr<GmnModel> plain = makeModel(config.model,
                                                config.modelSeed);
    const SimilarityKind kind = plain->config().similarity;
    double emf_ns = 0.0, emf_rows = 0.0;
    double mm_ns = 0.0, mm_flops = 0.0, sim_ns = 0.0, sim_flops = 0.0;
    for (uint32_t qi = 0; qi < in.queries.size(); ++qi) {
        const Graph &q = in.queries[qi];
        std::vector<uint32_t> slots = pairsOf(q);
        if (slots.empty())
            continue;
        const int64_t req = -2 - static_cast<int64_t>(qi);
        GmnModel::Detail d =
            plain->forwardDetailed(GraphPairView(snap->graph(slots[0]), q));
        for (size_t l = 1; l < d.xLayers.size() && l < d.yLayers.size();
             ++l) {
            const Matrix &x = d.xLayers[l];
            const Matrix &y = d.yLayers[l];
            if (x.rows() == 0 || y.rows() == 0)
                continue;
            Matrix weight(x.cols(), x.cols());
            for (size_t i = 0; i < weight.rows(); ++i)
                for (size_t j = 0; j < weight.cols(); ++j)
                    weight.at(i, j) = (i == j) ? 1.0f : 0.01f;

            int64_t id = spans.open("emf.filter", -1, req);
            uint64_t t0 = nowNs();
            EmfResult emf = emfFilter(x);
            emf_ns += static_cast<double>(nowNs() - t0);
            spans.close(id);
            emf_rows += static_cast<double>(x.rows());
            (void)emf;

            id = spans.open("tensor.matmul", -1, req);
            t0 = nowNs();
            Matrix prod = matmul(x, weight);
            mm_ns += static_cast<double>(nowNs() - t0);
            spans.close(id);
            mm_flops += 2.0 * static_cast<double>(x.rows()) *
                        static_cast<double>(x.cols()) *
                        static_cast<double>(weight.cols());

            id = spans.open("tensor.similarity", -1, req);
            t0 = nowNs();
            Matrix sim = similarityMatrix(x, y, kind);
            sim_ns += static_cast<double>(nowNs() - t0);
            spans.close(id);
            sim_flops += static_cast<double>(
                similarityFlops(x.rows(), y.rows(), x.cols(), kind));
            (void)prod;
            (void)sim;
        }
    }
    rep.emfUsPerKrow = emf_rows > 0 ? emf_ns / 1e3 / (emf_rows / 1e3) : 0.0;
    rep.matmulGflops = mm_ns > 0 ? mm_flops / mm_ns : 0.0;
    rep.similarityGflops = sim_ns > 0 ? sim_flops / sim_ns : 0.0;
    return rep;
}

/** Median time of a trivially small parallelFor at the pool size. */
double
parallelForUs()
{
    std::vector<double> us;
    std::vector<int> sink(kPoolThreads, 0);
    for (int i = 0; i < 2000; ++i) {
        uint64_t t0 = nowNs();
        parallelFor(0, kPoolThreads, 1, [&](size_t a, size_t b) {
            for (size_t k = a; k < b; ++k)
                sink[k] += 1;
        });
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return median(us);
}

/** Standalone index build over the same corpus: `retrieval.bootstrap_s`. */
double
indexBootstrapSeconds(const Workload &w, const Inputs &in)
{
    if (!w.cascade)
        return 0.0;
    ServeConfig config = serveConfig(w);
    std::unique_ptr<GmnModel> model = makeModel(config.model,
                                                config.modelSeed);
    MemoConfig mc;
    mc.maxBytes = config.memoBytes;
    mc.shards = config.memoShards;
    MemoCache memo(mc);
    InferenceOptions opts;
    opts.dedupMatching = config.dedup;
    opts.memo = config.memo ? &memo : nullptr;
    model->setInferenceOptions(opts);
    std::vector<Graph> graphs = in.candidates;
    std::vector<uint64_t> ids = in.ids;

    auto t0 = Clock::now();
    LiveCorpus corpus(config.mutation);
    bool model_aware = model->coarseDim() > 0;
    LiveCorpus::DescriptorFn fn;
    if (model_aware) {
        fn = [&](const Graph &g, std::vector<float> &out) {
            out.resize(model->coarseDim());
            model->coarseDescriptor(g, out.data());
        };
    } else {
        fn = [&](const Graph &g, std::vector<float> &out) {
            out = coarseVector(g, *model, config.retrieval.tagLevel,
                               config.retrieval.sketchDim);
        };
    }
    corpus.enableIndex(config.retrieval, model_aware, std::move(fn));
    corpus.bootstrap(std::move(graphs), std::move(ids));
    return secondsBetween(t0, Clock::now());
}

// ---- Output ---------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 40.0;
    int trace = 0;
    std::string outDir = ".bench_out";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                a.workload = next();
                have_workload = true;
            } else if (arg == "--seed") {
                a.seed = std::stoull(next());
            } else if (arg == "--seconds") {
                a.seconds = std::stod(next());
            } else if (arg == "--trace") {
                a.trace = std::stoi(next());
            } else if (arg == "--out-dir") {
                a.outDir = next();
            } else {
                die("unknown argument " + arg);
            }
        } catch (const std::logic_error &) {
            die("bad value for " + arg);
        }
    }
    if (!have_workload)
        die("--workload is required");
    if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
        die("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

} // namespace

static int run(const Args &args, const Workload &w);

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (args.workload == w.name)
            wp = &w;
    if (wp == nullptr)
        die("unknown workload " + args.workload);
    const Workload &w = *wp;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs)
            if (!validMetricName(d.name))
                die(std::string("invalid metric name ") + d.name);
    const auto open_requests =
        static_cast<size_t>(std::floor(w.qps * w.openShare * args.seconds));
    if (open_requests < minSamplesFor(kTailPct))
        die("p90 needs " + std::to_string(minSamplesFor(kTailPct)) +
            " open-loop requests; raise --seconds");

    try {
        return run(args, w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}

static int
run(const Args &args, const Workload &w)
{
    const Clock::time_point process_start = Clock::now();
    auto progress = [&](const char *step) {
        std::fprintf(stderr, "servebench: %-8s done at %6.1f s\n", step,
                     secondsBetween(process_start, Clock::now()));
    };

    // Inputs, untimed, generated on every core.
    ThreadPool::instance().setThreads(kOracleThreads);
    Inputs in = makeInputs(w, args.seed, args.seconds, args.trace == 1);
    progress("inputs");
    ThreadPool::instance().setThreads(kPoolThreads);

    // Set-up: construction plus one warm-up pass, kSetups times; the
    // last service serves the timed phases.
    ServeConfig config = serveConfig(w);
    std::unique_ptr<SearchService> service;
    std::vector<double> setup_sec;
    for (int k = 0; k < kSetups; ++k) {
        service.reset();
        std::vector<Graph> corpus = in.candidates;
        std::vector<uint64_t> ids = in.ids;
        auto t0 = Clock::now();
        service = std::make_unique<SearchService>(config, std::move(corpus),
                                                  std::move(ids));
        warmUp(*service, in);
        setup_sec.push_back(secondsBetween(t0, Clock::now()));
    }
    progress("setup");

    const MemoCache &memo = service->memo();
    const size_t hits0 = memo.hits(), misses0 = memo.misses(),
                 evict0 = memo.evictions();
    const WorkspaceStats ws0 = WorkspacePool::instance().stats();

    // The traced run first runs an untraced baseline pass over the
    // first half of the schedule, for trace.overhead_share.
    SpanLog spans;
    std::optional<OpenPhase> baseline;
    if (args.trace) {
        std::vector<double> half(in.arrivals.begin(),
                                 in.arrivals.begin() +
                                     static_cast<ptrdiff_t>(
                                         in.arrivals.size() / 2));
        baseline = runOpenPhase(*service, in, half, in.baselineWrites,
                                nullptr);
    }
    OpenPhase open = runOpenPhase(*service, in, in.arrivals, in.writes,
                                  args.trace ? &spans : nullptr);
    progress("open");
    BulkPhase bulk = runBulkPhase(*service, in, config.maxBatch);
    progress("bulk");

    const double mem_mb = peakRssMb();
    const double cpu_ms_per_query = bulk.cpuMsPerQuery;
    const size_t hits1 = memo.hits(), misses1 = memo.misses(),
                 evict1 = memo.evictions();
    const WorkspaceStats ws1 = WorkspacePool::instance().stats();
    const obs::RegistrySnapshot final_snap = service->registry().snapshot();
    service->shutdown();

    // Everything below is untimed: oracle, replay, output.
    std::vector<const OpenLoopRun<QueryResult> *> runs = {&open.run,
                                                          &bulk.run};
    std::vector<WriteOp> ops = in.baselineWrites;
    std::vector<WriteRecord> records;
    if (baseline) {
        runs.push_back(&baseline->run);
        records = baseline->writes;
    }
    ops.insert(ops.end(), in.writes.begin(), in.writes.end());
    records.insert(records.end(), open.writes.begin(), open.writes.end());

    std::vector<Served> served;
    size_t q_attempted = 0, q_ok = 0;
    for (const auto *run : runs) {
        for (size_t i = 0; i < run->timing.size(); ++i) {
            ++q_attempted;
            if (!run->results[i])
                continue;
            ++q_ok;
            served.push_back({static_cast<uint32_t>(i % kQueries),
                              &*run->results[i]});
        }
    }
    size_t w_ok = 0;
    for (const WriteRecord &r : records)
        w_ok += r.ok ? 1 : 0;
    const size_t w_attempted = records.size();

    ThreadPool::instance().setThreads(kOracleThreads);
    OracleReport oracle = runOracle(w, in, served, ops, records);
    progress("oracle");

    Values v;
    std::vector<double> lat = open.run.latenciesMs();
    std::optional<double> p50 = percentile(lat, 50.0);
    std::optional<double> p90 = percentile(lat, kTailPct);
    const double success = successRate(
        q_ok, q_attempted, w_ok, w_attempted);

    std::printf("env {\"build\": \"%s\", \"simd\": \"%s\", "
                "\"pool_threads\": %u, \"nproc\": %ld, \"l2_bytes\": %ld, "
                "\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %.3f, \"trace\": %d, "
                "\"offered_qps\": %.3f, \"offered_writes_per_s\": %.3f, "
                "\"setups\": %zu, \"open_loop_requests\": %zu, "
                "\"writes\": %zu, \"bulk_requests\": %zu, "
                "\"oracle_scores_checked\": %zu}\n",
                obs::buildInfoString().c_str(),
                simdLevelName(simdLevel()), kPoolThreads,
                sysconf(_SC_NPROCESSORS_ONLN), l2Bytes(),
                w.name, args.seed,
                args.seconds, args.trace, w.qps, in.writeQps,
                setup_sec.size(), open.run.timing.size(), open.writes.size(),
                bulk.run.timing.size(), oracle.scoresChecked);

    const size_t attempted = q_attempted + w_attempted;
    const size_t failed = attempted - q_ok - w_ok;
    if (!oracle.correct)
        std::fprintf(stderr, "servebench: correctness check failed: %s "
                             "(%zu score mismatches, %zu live-set "
                             "mismatches)\n",
                     oracle.firstError.c_str(), oracle.mismatches,
                     oracle.liveSetMismatches);

    if (!args.trace) {
        v["p50_ms"] = p50;
        v["p90_ms"] = p90;
        v["throughput_qps"] = bulk.throughputQps;
        v["cpu_ms_per_query"] = cpu_ms_per_query;
        v["success_rate"] = success;
        v["recall_at_10"] = oracle.recall;
        v["setup_s"] = median(setup_sec);
        v["mem_mb"] = mem_mb;
        std::printf("%-20s %14s %-10s %s\n", "metric", "value", "unit",
                    "samples");
        const std::map<std::string, size_t> n = {
            {"p50_ms", lat.size()},
            {"p90_ms", lat.size()},
            {"throughput_qps", bulk.run.timing.size()},
            {"cpu_ms_per_query", bulk.run.timing.size()},
            {"success_rate", attempted},
            {"recall_at_10", served.size()},
            {"setup_s", setup_sec.size()},
            {"mem_mb", 1}};
        for (const MetricDef &d : endToEndMetrics()) {
            std::optional<double> x = v[d.name];
            std::printf("%-20s %14.4f %-10s n=%zu\n", d.name,
                        x ? *x : NAN, d.unit, n.at(d.name));
        }
        std::printf("%s\n", resultJson(oracle.correct, attempted, failed,
                                       endToEndMetrics(), v)
                                .c_str());
        progress("print");
        return oracle.correct ? 0 : 1;
    }

    // ---- Traced run: per-layer metrics.
    ThreadPool::instance().setThreads(1);
    ReplayReport replay = runReplay(w, *service, in, spans);
    // The service builds its index on the pool, so time it there too.
    ThreadPool::instance().setThreads(kPoolThreads);
    const double bootstrap_s = indexBootstrapSeconds(w, in);
    const double pfor_us = parallelForUs();

    auto g = [&](const obs::RegistrySnapshot &a,
                 const obs::RegistrySnapshot &b, const char *name) {
        return counterGrowth(a, b, name);
    };
    std::vector<double> queue_ms;
    for (const auto &r : open.run.results)
        if (r)
            queue_ms.push_back(r->queueMs);
    v["serve.batcher_wait_ms"] = median(queue_ms);
    v["serve.pipeline_wait_ms"] =
        ratio(g(open.before, open.after, "serve.pipeline.queue_wait_us"),
              g(open.before, open.after, "serve.pipeline.batches"));
    if (v["serve.pipeline_wait_ms"])
        *v["serve.pipeline_wait_ms"] /= 1e3;
    v["serve.bulk_batch_mean"] =
        ratio(g(bulk.before, bulk.after, "serve.requests.completed"),
              g(bulk.before, bulk.after, "serve.batches"));
    const char *busy[3][2] = {
        {"serve.embed_busy_ms", "serve.pipeline.embed_busy_us"},
        {"serve.match_busy_ms", "serve.pipeline.match_busy_us"},
        {"serve.head_busy_ms", "serve.pipeline.head_busy_us"}};
    std::optional<double> busy_sum = 0.0;
    for (auto &b : busy) {
        std::optional<double> grow = g(bulk.before, bulk.after, b[1]);
        std::optional<double> per =
            ratio(grow, g(bulk.before, bulk.after, "serve.pipeline.batches"));
        v[b[0]] = per ? std::optional<double>(*per / 1e3) : std::nullopt;
        busy_sum = (busy_sum && grow) ? std::optional<double>(*busy_sum + *grow)
                                      : std::nullopt;
    }
    v["serve.overlap_share"] =
        ratio(g(bulk.before, bulk.after, "serve.pipeline.overlap_us"),
              busy_sum);

    // Timed-phase growth of the program's own counters.
    const obs::RegistrySnapshot &t0 = open.before;
    const obs::RegistrySnapshot &t1 = final_snap;
    std::optional<double> completed = g(t0, t1, "serve.requests.completed");
    v["retrieval.shortlist_ms"] = replay.shortlistMs;
    v["retrieval.survivors_per_query"] =
        ratio(g(t0, t1, "serve.retrieval.survivors"), completed);
    v["retrieval.verified_per_query"] =
        ratio(g(t0, t1, "serve.retrieval.verified"), completed);
    std::optional<double> index_bytes =
        counterValue(t1, "serve.retrieval.index_bytes");
    v["retrieval.index_mb"] =
        index_bytes ? std::optional<double>(*index_bytes / 1048576.0)
                    : std::nullopt;
    v["retrieval.bootstrap_s"] = bootstrap_s;

    std::vector<double> ins_ms, rem_ms, flush_ms, publish_ms;
    for (size_t k = 0; k < open.writes.size(); ++k) {
        const WriteRecord &r = open.writes[k];
        (in.writes[k].insert ? ins_ms : rem_ms)
            .push_back((r.appliedSec - r.startSec) * 1e3);
        flush_ms.push_back((r.flushedSec - r.appliedSec) * 1e3);
        publish_ms.push_back(
            r.ok ? (r.flushedSec - r.startSec) * 1e3
                 : std::numeric_limits<double>::infinity());
    }
    const bool writes = !open.writes.empty();
    v["corpus.writes"] = static_cast<double>(open.writes.size());
    v["corpus.insert_ms"] = median(ins_ms);
    v["corpus.remove_ms"] = median(rem_ms);
    v["corpus.flush_ms"] = median(flush_ms);
    v["corpus.flush_p90_ms"] =
        writes ? percentile(flush_ms, kTailPct)
               : std::optional<double>(0.0);
    v["corpus.publish_p50_ms"] =
        writes ? percentile(publish_ms, 50.0) : std::optional<double>(0.0);
    v["corpus.publish_p90_ms"] =
        writes ? percentile(publish_ms, kTailPct)
               : std::optional<double>(0.0);
    v["corpus.compactions"] = g(t0, t1, "serve.corpus.compactions");
    std::optional<double> epochs = g(t0, t1, "serve.corpus.epoch");
    v["corpus.epochs_reclaimed_share"] =
        writes ? ratio(g(t0, t1, "serve.corpus.epochs_reclaimed"), epochs)
               : std::optional<double>(0.0);

    v["gmn.score_ms"] = replay.scoreMs;
    v["gmn.embed_ms"] = replay.embedMs;
    v["gmn.match_ms"] = replay.matchMs;
    v["gmn.dedup_ms"] = replay.dedupMs;
    v["gmn.head_ms"] = replay.headMs;
    const double lookups =
        static_cast<double>((hits1 - hits0) + (misses1 - misses0));
    v["gmn.memo_hit_rate"] =
        lookups > 0 ? static_cast<double>(hits1 - hits0) / lookups : 0.0;
    v["gmn.memo_evictions"] = static_cast<double>(evict1 - evict0);
    std::optional<double> rows = g(t0, t1, "serve.dedup.rows_total");
    std::optional<double> uniq = g(t0, t1, "serve.dedup.rows_unique");
    v["gmn.dedup_skip_ratio"] =
        (rows && uniq && *rows > 0) ? std::optional<double>(1.0 - *uniq / *rows)
                                    : std::nullopt;
    v["emf.filter_us_per_krow"] = replay.emfUsPerKrow;
    v["tensor.matmul_gflops"] = replay.matmulGflops;
    v["tensor.similarity_gflops"] = replay.similarityGflops;
    const double ws_acq = static_cast<double>((ws1.hits - ws0.hits) +
                                              (ws1.misses - ws0.misses));
    v["tensor.workspace_miss_rate"] =
        ws_acq > 0 ? static_cast<double>(ws1.misses - ws0.misses) / ws_acq
                   : 0.0;
    v["common.parallel_for_us"] = pfor_us;
    v["driver.late_max_ms"] = open.run.lateMaxMs();
    v["trace.unattributed_share"] =
        cpu_ms_per_query > 0
            ? 1.0 - replay.layerMsPerQuery / cpu_ms_per_query
            : 0.0;
    // Same arrivals on both sides: the first half of the schedule.
    std::vector<double> traced_half = open.run.latenciesMs();
    traced_half.resize(baseline->run.timing.size());
    std::optional<double> p50_traced = percentile(traced_half, 50.0);
    std::optional<double> p50_untraced =
        percentile(baseline->run.latenciesMs(), 50.0);
    v["trace.overhead_share"] =
        (p50_traced && p50_untraced)
            ? std::optional<double>(*p50_traced / *p50_untraced - 1.0)
            : std::nullopt;

    // Spans: Chrome trace file and per-layer self time.
    std::vector<Span> all = spans.spans();
    std::vector<uint64_t> self = selfTimesNs(all);
    std::map<std::string, double> layer_self_ms;
    for (size_t i = 0; i < all.size(); ++i)
        layer_self_ms[layerOf(all[i].name)] +=
            static_cast<double>(self[i]) / 1e6;
    std::string trace_path = args.outDir + "/trace-" + w.name + "-" +
                             std::to_string(args.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    if (!ec) {
        std::ofstream f(trace_path);
        f << chromeTraceJson(all);
        std::printf("trace %s (%zu spans)\n", trace_path.c_str(), all.size());
    }
    for (const auto &[layer, ms] : layer_self_ms)
        std::printf("self_time %-10s %12.3f ms\n", layer.c_str(), ms);
    for (const auto &[name, x] : v)
        if (!x)
            std::printf("absent %s\n", name.c_str());

    std::printf("%s\n", resultJson(oracle.correct, attempted, failed,
                                   perLayerMetrics(), v)
                            .c_str());
    return oracle.correct ? 0 : 1;
}
