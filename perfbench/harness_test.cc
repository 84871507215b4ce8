/**
 * @file
 * Self-tests of the benchmark's own logic (perfbench/harness.hh).
 * Build with the benchmark and run `.bench_build/harness_test`, or
 * `python3 perfbench/run.py --self-test`. Exits non-zero on the first
 * failed check.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/harness.hh"

using namespace servebench;

namespace {

int failures = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,   \
                         __LINE__, #cond);                                \
            ++failures;                                                   \
        }                                                                 \
    } while (0)

std::future<int>
ready(int v)
{
    std::promise<int> p;
    p.set_value(v);
    return p.get_future();
}

void
schedulesArePure()
{
    auto a = arrivalSchedule(7, 9.0, 200);
    auto b = arrivalSchedule(7, 9.0, 200);
    CHECK(a == b);
    auto c = arrivalSchedule(8, 9.0, 200);
    CHECK(a != c);
    CHECK(a.size() == 200);
    for (size_t i = 1; i < a.size(); ++i)
        CHECK(a[i] > a[i - 1]);
    // Mean inter-arrival close to 1/rate, and the same phase length
    // for every seed: only the order of the gaps differs.
    CHECK(std::abs(a.back() / 200.0 - 1.0 / 9.0) < 0.01);
    CHECK(std::abs(a.back() - c.back()) < 1e-9);

    std::vector<uint64_t> boot = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<uint64_t> pool = {100, 101, 102, 103};
    auto w1 = planWrites(3, 4.5, 7, boot, pool);
    auto w2 = planWrites(3, 4.5, 7, boot, pool);
    CHECK(w1.size() == 7);
    for (size_t k = 0; k < w1.size(); ++k) {
        CHECK(w1[k].insert == w2[k].insert && w1[k].id == w2[k].id &&
              w1[k].dueSec == w2[k].dueSec);
        CHECK(w1[k].insert == (k % 2 == 0));
    }
    // Removes only ever name ids live at that point, each at most once.
    std::vector<uint64_t> live = boot;
    for (const WriteOp &op : w1) {
        if (op.insert) {
            CHECK(op.id == pool[op.poolIndex]);
            live.push_back(op.id);
        } else {
            auto it = std::find(live.begin(), live.end(), op.id);
            CHECK(it != live.end());
            if (it != live.end())
                live.erase(it);
        }
    }
}

void
percentileRefusesThinTails()
{
    CHECK(minSamplesFor(50.0) == 20);
    CHECK(minSamplesFor(90.0) == 100);
    CHECK(minSamplesFor(95.0) == 200);
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    CHECK(!percentile(v, 90.0));
    v.push_back(100);
    CHECK(percentile(v, 90.0) && *percentile(v, 90.0) == 90.0);
    CHECK(percentile(v, 50.0) && *percentile(v, 50.0) == 50.0);
    CHECK(!percentile(v, 95.0));
    // A failed request is +inf and so lands in the tail.
    std::vector<double> w(100, 1.0);
    for (int i = 0; i < 11; ++i)
        w[i] = INFINITY;
    CHECK(std::isinf(*percentile(w, 90.0)));
}

void
stallShowsInLatency()
{
    // Request 1's submit stalls for 120 ms; requests 2 and 3 were due
    // during the stall, so their latency from the due time includes it.
    std::vector<double> schedule = {0.0, 0.01, 0.02, 0.03};
    auto run = driveOpenLoop<int>(schedule, [](size_t i) {
        if (i == 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(120));
        return ready(static_cast<int>(i));
    });
    CHECK(run.failures() == 0);
    CHECK(run.timing[0].latencyMs() < 60.0);
    CHECK(run.timing[2].latencyMs() >= 100.0);
    CHECK(run.timing[3].latencyMs() >= 90.0);
    CHECK(run.lateMaxMs() >= 100.0);
    CHECK(run.results[3] && *run.results[3] == 3);
}

void
failuresLowerSuccessRate()
{
    std::vector<double> schedule = {0.0, 0.0, 0.0, 0.0};
    auto run = driveOpenLoop<int>(schedule, [](size_t i) -> std::future<int> {
        if (i == 1) {
            std::promise<int> p;
            p.set_exception(
                std::make_exception_ptr(std::runtime_error("refused")));
            return p.get_future();
        }
        if (i == 2)
            throw std::runtime_error("submit failed");
        return ready(1);
    });
    CHECK(run.failures() == 2);
    CHECK(!run.results[1] && !run.results[2]);
    CHECK(std::isinf(run.timing[1].latencyMs()));
    size_t ok = run.timing.size() - run.failures();
    // Two refused writes out of four lower it further.
    CHECK(successRate(ok, 4, 2, 4) == 4.0 / 8.0);
    CHECK(successRate(4, 4, 4, 4) == 1.0);
}

void
batchSpansSkipPipelineFill()
{
    // Four batches of two; the first (pipeline fill) ends at 3.0, the
    // last at 7.2: three steady batches in 4.2.
    std::vector<double> done = {0.5, 3.0, 4.0, 4.4, 6.0, 5.9, 7.0, 7.2};
    CHECK(std::abs(steadyBatchSpan(done, 2) - 1.4) < 1e-12);
    // A trailing partial batch is left out; one batch is too few.
    done.push_back(9.0);
    CHECK(std::abs(steadyBatchSpan(done, 2) - 1.4) < 1e-12);
    CHECK(steadyBatchSpan({1.0, 2.0}, 2) == 0.0);
}

void
metricNamesAreValid()
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs)
            CHECK(validMetricName(d.name));
    CHECK(!validMetricName("p50 ms"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("serve/latency"));
}

void
tablesMatchBenchmarkJson()
{
    // Every metric the binary prints is declared in BENCHMARK.json, and
    // the file declares no other.
    std::ifstream f(PERFBENCH_BENCHMARK_JSON);
    std::stringstream text;
    text << f.rdbuf();
    const std::string json = text.str();
    CHECK(!json.empty());
    size_t declared = 0;
    for (size_t at = json.find("\"better\""); at != std::string::npos;
         at = json.find("\"better\"", at + 1))
        ++declared;
    size_t printed = 0;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            ++printed;
            std::string entry = std::string("{\"name\": \"") + d.name +
                                "\", \"unit\": \"" + d.unit + "\"";
            if (json.find(entry) == std::string::npos) {
                std::fprintf(stderr, "not in BENCHMARK.json: %s\n", d.name);
                ++failures;
            }
        }
    }
    CHECK(declared == printed);
}

void
missingCounterIsAbsent()
{
    // A registry without serve.pipeline.* (as after a change that
    // deletes the pipeline) yields absent values, not a crash.
    cegma::obs::MetricsRegistry reg;
    reg.counter("serve.batches").add(4);
    cegma::obs::RegistrySnapshot before = reg.snapshot();
    reg.counter("serve.batches").add(6);
    cegma::obs::RegistrySnapshot after = reg.snapshot();
    CHECK(counterGrowth(before, after, "serve.batches") == 6.0);
    CHECK(!counterGrowth(before, after, "serve.pipeline.queue_wait_us"));
    CHECK(!ratio(counterGrowth(before, after, "serve.pipeline.batches"),
                 counterGrowth(before, after, "serve.batches")));
    CHECK(!ratio(6.0, 0.0));
    Values v;
    v["serve.pipeline_wait_ms"] =
        ratio(counterGrowth(before, after, "serve.pipeline.queue_wait_us"),
              counterGrowth(before, after, "serve.pipeline.batches"));
    std::vector<MetricDef> defs = {{"serve.pipeline_wait_ms", "ms"},
                                   {"serve.bulk_batch_mean", "requests"}};
    v["serve.bulk_batch_mean"] = 16.0;
    std::string json = resultJson(true, 3, 0, defs, v);
    CHECK(json.find("\"serve.pipeline_wait_ms\": {\"value\": null") !=
          std::string::npos);
    CHECK(json.find("\"serve.bulk_batch_mean\": {\"value\": 16,") !=
          std::string::npos);
}

void
selfTimeSubtractsChildren()
{
    std::vector<Span> s(4);
    s[0] = {"bench.replay", 0, 100, -1, 0};
    s[1] = {"gmn.score", 10, 40, 0, 0};
    s[2] = {"gmn.score", 30, 60, 0, 0}; // overlaps s[1]
    s[3] = {"tensor.matmul", 90, 150, 0, 0}; // clipped at the parent end
    auto self = selfTimesNs(s);
    CHECK(self[0] == 100 - 50 - 10);
    CHECK(self[1] == 30);
    CHECK(layerOf("retrieval.shortlist") == "retrieval");
    std::string json = chromeTraceJson(s);
    CHECK(json.find("\"traceEvents\"") != std::string::npos);
    CHECK(json.find("\"ph\": \"X\"") != std::string::npos);
}

} // namespace

int
main()
{
    schedulesArePure();
    percentileRefusesThinTails();
    stallShowsInLatency();
    failuresLowerSuccessRate();
    batchSpansSkipPipelineFill();
    metricNamesAreValid();
    tablesMatchBenchmarkJson();
    missingCounterIsAbsent();
    selfTimeSubtractsChildren();
    if (failures != 0) {
        std::fprintf(stderr, "harness_test: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("harness_test: all checks passed\n");
    return 0;
}
