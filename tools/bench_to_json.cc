/**
 * @file
 * bench_to_json — machine-readable kernel benchmark summary.
 *
 * The default (`--kernels`) mode times the parallel hot kernels (GEMM,
 * A*B^T similarity, cosine normalization, EMF tag hashing) at several
 * pool sizes, each at every available SIMD level (`"simd": "scalar"` /
 * `"avx2"` columns — the restructured scalar oracle vs the vectorized
 * kernels), plus the pre-parallel naive serial versions (`*_naive`,
 * `"simd": "naive"`) as a fixed baseline, and writes a JSON array of
 * {kernel, threads, simd, ns_per_iter} records so later PRs can track
 * the perf trajectory mechanically. It also records the joint-window
 * vs full-streaming similarity comparison on a clone-search-shaped
 * pair: those records carry `lines_est` (deterministic feature
 * cache-line-load estimate) and, when `perf_event_open` is permitted,
 * measured `llc_miss` / `l1d_miss` per call.
 *
 * Usage:
 *   bench_to_json [--kernels] [--out FILE] [--threads LIST]
 *                 [--min-ms M]
 *   bench_to_json --e2e [--out FILE] [--threads LIST] [--queries Q]
 *                 [--candidates C] [--reps R]
 *   bench_to_json --retrieval [--out FILE] [--threads LIST]
 *                 [--queries Q] [--candidates C]
 *
 * Defaults: --out BENCH_kernels.json, --threads 1,2,4, --min-ms 200.
 * `--out -` writes to stdout.
 *
 * `--retrieval` runs the recall@10-vs-speedup sweep of the retrieval
 * cascade on an AIDS clone-search corpus (default 16 queries x
 * 100000 candidates): one exhaustive SimGNN pass over the full corpus
 * establishes the per-query oracle top-10 score thresholds *and* the
 * latency baseline, then the candidates are bootstrapped into a
 * `LiveCorpus` (the serving index; `index_build_ms` is the bootstrap)
 * and each (shortlist, tag-prune) cascade config is timed end to end
 * against its one pinned snapshot (tag filter + coarse shortlist +
 * exact verify + top-k select). Recall is tie-aware — a
 * cascade top-10 slot counts when its exact score reaches the
 * oracle's 10th-best score, the honest reading when scores tie
 * bit-exactly — and every verified score is checked bit-identical to
 * the exhaustive pass before it is counted. Records land in
 * BENCH_retrieval.json.
 *
 * `--e2e` switches to the end-to-end functional-inference sweep: for
 * each model, run `runFunctional` over a duplicate-heavy RD-B
 * clone-search dataset (Q queries x C candidates, default 4x4) in the
 * three elastic modes — dense, dedup, dedup+memo — at the *last*
 * thread count of `--threads`, best-of-R reps, and write
 * {model, mode, ms_per_pair, speedup_vs_dense, ...} records to
 * BENCH_e2e.json (default). The modes are bitwise-identical in output
 * (see tests/dedup_exec_test.cc); this records how much wall clock the
 * elastic paths save.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "accel/runner.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "corpus/live_corpus.hh"
#include "emf/emf.hh"
#include "gmn/similarity.hh"
#include "gmn/window_sched.hh"
#include "graph/dataset.hh"
#include "gmn/model.hh"
#include "hash/xxhash.hh"
#include "obs/perf_counters.hh"
#include "tensor/matrix.hh"

using namespace cegma;

namespace {

struct Record
{
    std::string kernel;
    uint32_t threads;
    std::string simd; ///< "naive", "scalar" or "avx2"
    double nsPerIter;

    // Locality records only (negative = not applicable / measured).
    double linesEst = -1.0; ///< estimated feature cache-line loads
    double llcMiss = -1.0;  ///< measured LLC misses per call
    double l1dMiss = -1.0;  ///< measured L1D read misses per call
};

/**
 * Wall-clock ns per call of `fn`, running it for at least `min_ms`
 * after one untimed warmup call.
 */
template <typename Fn>
double
timeKernel(Fn &&fn, double min_ms)
{
    using clock = std::chrono::steady_clock;
    fn(); // warmup: page in buffers, spin up the pool
    uint64_t iters = 0;
    auto start = clock::now();
    double elapsed_ms = 0.0;
    do {
        fn();
        ++iters;
        elapsed_ms = std::chrono::duration<double, std::milli>(
                         clock::now() - start)
                         .count();
    } while (elapsed_ms < min_ms);
    return elapsed_ms * 1e6 / static_cast<double>(iters);
}

// ---- Pre-parallel reference kernels (the seed implementations) ------

Matrix
matmulNaive(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        float *crow = c.row(i);
        for (size_t k = 0; k < a.cols(); ++k) {
            float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            const float *brow = b.row(k);
            for (size_t j = 0; j < b.cols(); ++j)
                crow[j] += aik * brow[j];
        }
    }
    return c;
}

float
dotNaive(const float *a, const float *b, size_t n)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

Matrix
matmulNTNaive(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (size_t j = 0; j < b.rows(); ++j)
            crow[j] = dotNaive(arow, b.row(j), a.cols());
    }
    return c;
}

std::vector<uint32_t>
emfTagsNaive(const Matrix &features, uint32_t seed)
{
    std::vector<uint32_t> tags(features.rows());
    for (size_t v = 0; v < features.rows(); ++v) {
        tags[v] =
            hashFeatureVector(features.row(v), features.cols(), seed);
    }
    return tags;
}

void
writeJson(const std::vector<Record> &records, const std::string &path)
{
    FILE *out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::fprintf(out,
                     "  {\"kernel\": \"%s\", \"threads\": %" PRIu32
                     ", \"simd\": \"%s\", \"ns_per_iter\": %.1f",
                     r.kernel.c_str(), r.threads, r.simd.c_str(),
                     r.nsPerIter);
        if (r.linesEst >= 0.0)
            std::fprintf(out, ", \"lines_est\": %.0f", r.linesEst);
        if (r.llcMiss >= 0.0) {
            std::fprintf(out,
                         ", \"llc_miss\": %.0f, \"l1d_miss\": %.0f",
                         r.llcMiss, r.l1dMiss);
        }
        std::fprintf(out, "}%s\n", i + 1 < records.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    if (out != stdout)
        std::fclose(out);
}

// ---- End-to-end functional inference sweep (--e2e) ------------------

struct E2eRecord
{
    std::string model;
    std::string mode;
    uint32_t threads;
    size_t pairs;
    double msPerPair;
    double speedupVsDense;
    size_t memoHits;
    size_t memoMisses;
};

/** The three elastic modes, in cheap-to-expensive savings order. */
const struct
{
    const char *name;
    bool dedup;
    bool memo;
} kE2eModes[] = {
    {"dense", false, false},
    {"dedup", true, false},
    {"dedup+memo", true, true},
};

/** Best-of-`reps` ms/pair of `runFunctional` for one (model, mode). */
FunctionalResult
bestFunctionalRun(ModelId model, const Dataset &ds,
                  const FunctionalOptions &options, uint32_t reps)
{
    FunctionalResult best = runFunctional(model, ds, options);
    for (uint32_t r = 1; r < reps; ++r) {
        FunctionalResult run = runFunctional(model, ds, options);
        if (run.wallMs < best.wallMs)
            best = std::move(run);
    }
    return best;
}

std::vector<E2eRecord>
runE2eSweep(uint32_t num_queries, uint32_t num_candidates, uint32_t reps)
{
    Dataset ds =
        makeCloneSearchDataset(DatasetId::RD_B, num_queries,
                               num_candidates);
    const uint32_t threads = ThreadPool::instance().threads();
    std::vector<E2eRecord> records;
    for (ModelId model : allModels()) {
        double dense_ms = 0.0;
        for (const auto &mode : kE2eModes) {
            FunctionalOptions options;
            options.dedup = mode.dedup;
            options.memo = mode.memo;
            FunctionalResult result =
                bestFunctionalRun(model, ds, options, reps);
            if (!mode.dedup && !mode.memo)
                dense_ms = result.msPerPair();
            E2eRecord rec;
            rec.model = modelConfig(model).name;
            rec.mode = mode.name;
            rec.threads = threads;
            rec.pairs = result.scores.size();
            rec.msPerPair = result.msPerPair();
            rec.speedupVsDense =
                rec.msPerPair > 0.0 ? dense_ms / rec.msPerPair : 0.0;
            rec.memoHits = result.memoHits;
            rec.memoMisses = result.memoMisses;
            records.push_back(std::move(rec));
        }
    }
    return records;
}

void
writeE2eJson(const std::vector<E2eRecord> &records,
             const std::string &path)
{
    FILE *out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < records.size(); ++i) {
        const E2eRecord &r = records[i];
        std::fprintf(out,
                     "  {\"model\": \"%s\", \"mode\": \"%s\", "
                     "\"threads\": %" PRIu32 ", \"pairs\": %zu, "
                     "\"ms_per_pair\": %.3f, "
                     "\"speedup_vs_dense\": %.3f, "
                     "\"memo_hits\": %zu, \"memo_misses\": %zu}%s\n",
                     r.model.c_str(), r.mode.c_str(), r.threads,
                     r.pairs, r.msPerPair, r.speedupVsDense, r.memoHits,
                     r.memoMisses, i + 1 < records.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    if (out != stdout)
        std::fclose(out);
}

// ---- Retrieval cascade recall/speedup sweep (--retrieval) -----------

struct RetrievalRecord
{
    std::string model;
    std::string mode; ///< "exhaustive" or "cascade"
    uint32_t threads;
    uint32_t queries;
    uint32_t candidates;
    size_t shortlist; ///< exact-verify budget (0 = whole corpus)
    double tagPrune;
    double recallAt10;
    double msPerQuery;
    double speedupVsExhaustive;
    double avgSurvivors;   ///< mean candidates past the tag filter
    double avgShortlisted; ///< mean candidates reaching exact verify
    double indexBuildMs;   ///< one-time corpus-side build (cascade rows)
};

/**
 * The recall@10-vs-speedup sweep: one exhaustive oracle pass, then
 * every (shortlist, tag-prune) cascade config against it. SimGNN only —
 * it is the model with a decomposable head, so its cascade runs the
 * model-aware coarse stage the acceptance numbers are about.
 */
std::vector<RetrievalRecord>
runRetrievalSweep(uint32_t num_queries, uint32_t num_candidates)
{
    const size_t K = 10;
    using clock = std::chrono::steady_clock;
    CloneSearchCorpus corpus = makeCloneSearchCorpus(
        DatasetId::AIDS, num_queries, num_candidates);
    std::unique_ptr<GmnModel> model = makeModel(ModelId::SimGnn);
    const uint32_t threads = ThreadPool::instance().threads();

    // Exhaustive oracle: every (query, candidate) exact score, timed
    // as the latency baseline and kept as ground truth for every
    // cascade config's recall and bit-identity check.
    std::vector<std::vector<double>> exact(num_queries);
    auto ex_start = clock::now();
    for (uint32_t q = 0; q < num_queries; ++q) {
        exact[q].resize(num_candidates);
        parallelFor(0, num_candidates, 8, [&](size_t a, size_t b) {
            for (size_t c = a; c < b; ++c)
                exact[q][c] = model->score(GraphPairView(
                    corpus.candidates[c], corpus.queries[q]));
        });
    }
    const double exhaustive_ms =
        std::chrono::duration<double, std::milli>(clock::now() -
                                                  ex_start)
            .count() /
        static_cast<double>(num_queries);

    // Tie-aware hit threshold per query: the oracle's 10th-best exact
    // score. Any candidate reaching it is as correct a top-10 member
    // as the oracle's own pick — bit-exact score ties are common on
    // this corpus, so id-matching would reject correct answers at
    // random.
    std::vector<double> kth(num_queries);
    for (uint32_t q = 0; q < num_queries; ++q) {
        std::vector<double> sorted = exact[q];
        std::nth_element(sorted.begin(), sorted.begin() + (K - 1),
                         sorted.end(), std::greater<>());
        kth[q] = sorted[K - 1];
    }

    std::vector<RetrievalRecord> records;
    RetrievalRecord base;
    base.model = modelConfig(ModelId::SimGnn).name;
    base.mode = "exhaustive";
    base.threads = threads;
    base.queries = num_queries;
    base.candidates = num_candidates;
    base.shortlist = 0;
    base.tagPrune = 0.0;
    base.recallAt10 = 1.0;
    base.msPerQuery = exhaustive_ms;
    base.speedupVsExhaustive = 1.0;
    base.avgSurvivors = static_cast<double>(num_candidates);
    base.avgShortlisted = static_cast<double>(num_candidates);
    base.indexBuildMs = 0.0;
    records.push_back(base);

    // The cascade runs on a live corpus bootstrapped with the
    // candidates and never mutated, so slot c is candidate c. SimGNN
    // decomposes its head, so the corpus stores its model-aware
    // descriptors.
    RetrievalConfig cfg;
    cfg.mode = RetrievalMode::Cascade;
    std::vector<uint64_t> ids(num_candidates);
    std::iota(ids.begin(), ids.end(), uint64_t{0});
    LiveCorpus index;
    auto build_start = clock::now();
    index.enableIndex(cfg, true,
                      [&model](const Graph &g, std::vector<float> &out) {
                          out.resize(model->coarseDim());
                          model->coarseDescriptor(g, out.data());
                      });
    index.bootstrap(std::move(corpus.candidates), std::move(ids));
    const LiveCorpus::SnapshotPtr snap = index.pin();
    const double build_ms =
        std::chrono::duration<double, std::milli>(clock::now() -
                                                  build_start)
            .count();

    const size_t kShortlists[] = {16, 64, 256, 1024};
    const double kTagPrunes[] = {0.0, 0.25};
    for (double tag_prune : kTagPrunes) {
        for (size_t shortlist : kShortlists) {
            index.setQueryKnobs(shortlist, tag_prune);
            size_t hits = 0;
            double survivors = 0.0, shortlisted = 0.0;
            double cascade_ms = 0.0;
            for (uint32_t q = 0; q < num_queries; ++q) {
                auto t0 = clock::now();
                RetrievalStages st;
                std::vector<uint32_t> list = index.shortlist(
                    *snap, corpus.queries[q], *model, &st);
                std::vector<double> scores(list.size());
                parallelFor(0, list.size(), 8,
                            [&](size_t a, size_t b) {
                                for (size_t i = a; i < b; ++i)
                                    scores[i] = model->score(
                                        GraphPairView(
                                            snap->graph(list[i]),
                                            corpus.queries[q]));
                            });
                std::vector<double> top = scores;
                if (top.size() > K) {
                    std::nth_element(top.begin(), top.begin() + (K - 1),
                                     top.end(), std::greater<>());
                    top.resize(K);
                }
                cascade_ms +=
                    std::chrono::duration<double, std::milli>(
                        clock::now() - t0)
                        .count();

                // Outside the timer: the bit-identity contract and the
                // tie-aware recall bookkeeping.
                for (size_t i = 0; i < list.size(); ++i) {
                    if (scores[i] != exact[q][list[i]])
                        fatal("cascade score for candidate %" PRIu32
                              " differs from exhaustive",
                              list[i]);
                }
                for (double s : top)
                    if (s >= kth[q])
                        ++hits;
                survivors += static_cast<double>(st.survivors);
                shortlisted += static_cast<double>(st.shortlisted);
            }
            RetrievalRecord rec;
            rec.model = base.model;
            rec.mode = "cascade";
            rec.threads = threads;
            rec.queries = num_queries;
            rec.candidates = num_candidates;
            rec.shortlist = shortlist;
            rec.tagPrune = tag_prune;
            rec.recallAt10 =
                static_cast<double>(hits) /
                static_cast<double>(num_queries * K);
            rec.msPerQuery =
                cascade_ms / static_cast<double>(num_queries);
            rec.speedupVsExhaustive =
                rec.msPerQuery > 0.0 ? exhaustive_ms / rec.msPerQuery
                                     : 0.0;
            rec.avgSurvivors =
                survivors / static_cast<double>(num_queries);
            rec.avgShortlisted =
                shortlisted / static_cast<double>(num_queries);
            rec.indexBuildMs = build_ms;
            records.push_back(std::move(rec));
        }
    }
    return records;
}

void
writeRetrievalJson(const std::vector<RetrievalRecord> &records,
                   const std::string &path)
{
    FILE *out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < records.size(); ++i) {
        const RetrievalRecord &r = records[i];
        std::fprintf(
            out,
            "  {\"model\": \"%s\", \"mode\": \"%s\", "
            "\"threads\": %" PRIu32 ", \"queries\": %" PRIu32
            ", \"candidates\": %" PRIu32 ", \"shortlist\": %zu, "
            "\"tag_prune\": %.2f, \"recall_at_10\": %.4f, "
            "\"ms_per_query\": %.2f, "
            "\"speedup_vs_exhaustive\": %.2f, "
            "\"avg_survivors\": %.0f, \"avg_shortlisted\": %.0f, "
            "\"index_build_ms\": %.1f}%s\n",
            r.model.c_str(), r.mode.c_str(), r.threads, r.queries,
            r.candidates, r.shortlist, r.tagPrune, r.recallAt10,
            r.msPerQuery, r.speedupVsExhaustive, r.avgSurvivors,
            r.avgShortlisted, r.indexBuildMs,
            i + 1 < records.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    if (out != stdout)
        std::fclose(out);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string out_path;
    bool e2e = false;
    bool retrieval = false;
    uint32_t num_queries = 4;
    uint32_t num_candidates = 4;
    bool queries_set = false;
    bool candidates_set = false;
    uint32_t reps = 2;
    std::vector<uint32_t> thread_counts = {1, 2, 4};
    double min_ms = 200.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for '%s'", arg.c_str());
            return argv[++i];
        };
        if (arg == "--out") {
            out_path = next();
        } else if (arg == "--kernels") {
            // Default mode; accepted explicitly for symmetry with
            // --e2e / --retrieval.
        } else if (arg == "--e2e") {
            e2e = true;
        } else if (arg == "--retrieval") {
            retrieval = true;
        } else if (arg == "--queries") {
            num_queries = flagValue<uint32_t>("--queries", next(), 1);
            queries_set = true;
        } else if (arg == "--candidates") {
            num_candidates = flagValue<uint32_t>("--candidates", next(), 1);
            candidates_set = true;
        } else if (arg == "--reps") {
            reps = flagValue<uint32_t>("--reps", next(), 1);
        } else if (arg == "--threads") {
            thread_counts.clear();
            std::string_view list = next();
            for (size_t p = 0; p <= list.size();) {
                size_t comma = std::min(list.find(',', p), list.size());
                thread_counts.push_back(flagValue<uint32_t>(
                    "--threads", list.substr(p, comma - p), 1,
                    kMaxThreads));
                p = comma + 1;
            }
        } else if (arg == "--min-ms") {
            min_ms = flagValue("--min-ms", next(), 0.0, 1e7);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--kernels] [--out FILE|-] "
                         "[--threads LIST] [--min-ms M]\n"
                         "       %s --e2e [--out FILE|-] "
                         "[--threads LIST] [--queries Q] "
                         "[--candidates C] [--reps R]\n"
                         "       %s --retrieval [--out FILE|-] "
                         "[--threads LIST] [--queries Q] "
                         "[--candidates C]\n",
                         argv[0], argv[0], argv[0]);
            return 2;
        }
    }
    if (out_path.empty()) {
        out_path = retrieval ? "BENCH_retrieval.json"
                   : e2e     ? "BENCH_e2e.json"
                             : "BENCH_kernels.json";
    }

    if (retrieval) {
        // The retrieval sweep's corpus is sized for the acceptance
        // numbers (10^5 candidates) unless overridden.
        if (!queries_set)
            num_queries = 16;
        if (!candidates_set)
            num_candidates = 100000;
        ThreadPool::instance().setThreads(thread_counts.back());
        std::vector<RetrievalRecord> records =
            runRetrievalSweep(num_queries, num_candidates);
        writeRetrievalJson(records, out_path);
        if (out_path != "-")
            std::printf("wrote %zu records to %s\n", records.size(),
                        out_path.c_str());
        return 0;
    }

    if (e2e) {
        // The e2e sweep runs at one pool size — the last (largest by
        // convention) entry of --threads.
        ThreadPool::instance().setThreads(thread_counts.back());
        std::vector<E2eRecord> records =
            runE2eSweep(num_queries, num_candidates, reps);
        writeE2eJson(records, out_path);
        if (out_path != "-")
            std::printf("wrote %zu records to %s\n", records.size(),
                        out_path.c_str());
        return 0;
    }

    // Fixtures sized to the acceptance shapes: GEMM 256x256x256 and a
    // 256x256 similarity over 128-wide features.
    Rng rng(11);
    Matrix ga(256, 256), gb(256, 256);
    ga.fillXavier(rng);
    gb.fillXavier(rng);
    Matrix sx(256, 128), sy(256, 128);
    sx.fillXavier(rng);
    sy.fillXavier(rng);
    Matrix ef(4096, 64);
    ef.fillXavier(rng);

    std::vector<Record> records;
    ThreadPool &pool = ThreadPool::instance();

    pool.setThreads(1);
    records.push_back({"gemm_naive_256x256x256", 1, "naive",
                       timeKernel([&] { matmulNaive(ga, gb); }, min_ms)});
    records.push_back(
        {"similarity_nt_naive_256x256x128", 1, "naive",
         timeKernel([&] { matmulNTNaive(sx, sy); }, min_ms)});
    records.push_back(
        {"emf_tags_naive_4096x64", 1, "naive",
         timeKernel([&] { emfTagsNaive(ef, 0); }, min_ms)});

    // The dispatched kernels, each thread count x each SIMD level the
    // machine supports — scalar is always present (it is the test
    // oracle), so the avx2/scalar ratio per row pair is the
    // vectorization speedup at that pool size.
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (cpuSupportsAvx2())
        levels.push_back(SimdLevel::Avx2);

    for (uint32_t requested : thread_counts) {
        pool.setThreads(requested);
        // Record the resolved count: --threads 0 means "hardware/env
        // default", and the JSON should say what actually ran.
        const uint32_t t = pool.threads();
        for (SimdLevel level : levels) {
            setSimdLevel(level);
            const std::string simd = simdLevelName(level);
            records.push_back(
                {"gemm_256x256x256", t, simd,
                 timeKernel([&] { matmul(ga, gb); }, min_ms)});
            records.push_back(
                {"similarity_nt_256x256x128", t, simd,
                 timeKernel([&] { matmulNT(sx, sy); }, min_ms)});
            records.push_back(
                {"similarity_cosine_256x256x128", t, simd,
                 timeKernel(
                     [&] {
                         similarityMatrix(sx, sy,
                                          SimilarityKind::Cosine);
                     },
                     min_ms)});
            records.push_back(
                {"emf_tags_4096x64", t, simd,
                 timeKernel([&] { computeEmfTags(ef, 0); }, min_ms)});
        }
    }

    // Joint-window vs full-streaming locality on a clone-search-shaped
    // pair (small query set against a large candidate bank). Runs
    // single-threaded so the per-thread cache-counter group sees every
    // access; `lines_est` is the deterministic feature-line-load
    // estimate and stands in when perf_event_open is unavailable
    // (containers typically deny it).
    pool.setThreads(1);
    setSimdLevel(levels.back());
    {
        Rng wrng(13);
        Matrix wx(256, 128), wy(8192, 128);
        wx.fillXavier(wrng);
        wy.fillXavier(wrng);
        const std::string simd = simdLevelName(levels.back());
        const double feature_lines =
            static_cast<double>(wx.cols()) * 4.0 / 64.0;

        obs::CacheCounters counters;
        auto locality = [&](bool windowed) {
            Record rec;
            rec.kernel = windowed ? "similarity_windowed_256x8192x128"
                                  : "similarity_streamed_256x8192x128";
            rec.threads = 1;
            rec.simd = simd;
            WindowSchedStats stats;
            auto run = [&] {
                if (windowed) {
                    similarityMatrixWindowed(wx, wy,
                                             SimilarityKind::Cosine,
                                             WindowSchedConfig{},
                                             &stats);
                } else {
                    similarityMatrixStreamed(wx, wy,
                                             SimilarityKind::Cosine);
                }
            };
            rec.nsPerIter = timeKernel(run, min_ms);
            if (windowed) {
                rec.linesEst =
                    (static_cast<double>(stats.xTileLoads) *
                         stats.tileRowsX +
                     static_cast<double>(stats.yTileLoads) *
                         stats.tileRowsY) *
                    feature_lines;
            } else {
                rec.linesEst = static_cast<double>(wx.rows()) *
                               (static_cast<double>(wy.rows()) + 1.0) *
                               feature_lines;
            }
            if (counters.available()) {
                counters.start();
                run();
                obs::CacheCounterSample sample = counters.stop();
                if (sample.valid) {
                    rec.llcMiss =
                        static_cast<double>(sample.llcMisses);
                    rec.l1dMiss =
                        static_cast<double>(sample.l1dMisses);
                }
            }
            records.push_back(std::move(rec));
        };
        locality(true);
        locality(false);
    }

    writeJson(records, out_path);
    if (out_path != "-")
        std::printf("wrote %zu records to %s\n", records.size(),
                    out_path.c_str());
    return 0;
}
