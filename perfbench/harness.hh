/**
 * @file
 * The serving benchmark's own logic, kept apart from `servebench.cc`
 * so that `harness_test.cc` can check it without a service: seeded
 * arrival and write schedules, the open-loop driver that times every
 * request from its due time, the percentile helper, metric tables,
 * counter reads that tolerate a missing counter, and the span log
 * behind the traced run.
 */

#ifndef CEGMA_PERFBENCH_HARNESS_HH
#define CEGMA_PERFBENCH_HARNESS_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace servebench {

using Clock = std::chrono::steady_clock;

/** Seconds from `t0` to `t1`. */
inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

// ---- Schedules ------------------------------------------------------

/**
 * `count` arrival times in seconds from the phase start, at `rate` per
 * second, with exponential gaps as a Poisson process has; the gaps are
 * the `count` stratified quantiles of that distribution in an order
 * shuffled by `seed`. Every seed thus offers the same set of gaps and
 * the same phase length, and only the order, and so which arrivals
 * bunch up, changes with the seed. A pure function of (seed, rate,
 * count).
 */
std::vector<double> arrivalSchedule(uint64_t seed, double rate,
                                    uint32_t count);

/** One planned corpus write. */
struct WriteOp
{
    double dueSec = 0.0;
    bool insert = false;
    uint64_t id = 0;        ///< inserted or removed stable id
    uint32_t poolIndex = 0; ///< insert only: index into the pool
};

/**
 * `count` writes at `arrivalSchedule` times of rate `rate`,
 * alternating an insert of the next pool entry with a remove of a
 * uniformly drawn live id. Every write is published by its own flush,
 * so "live" means bootstrap ids plus earlier inserts minus earlier
 * removes. A pure function of its arguments.
 */
std::vector<WriteOp> planWrites(uint64_t seed, double rate,
                                uint32_t count,
                                const std::vector<uint64_t> &bootstrap_ids,
                                const std::vector<uint64_t> &pool_ids);

// ---- Percentiles ----------------------------------------------------

/** A percentile needs at least this many samples beyond it. */
constexpr size_t kMinBeyond = 10;

/** Smallest sample count that supports percentile `p` (0 < p < 100). */
size_t minSamplesFor(double p);

/**
 * Nearest-rank percentile `p` (0 < p < 100) of `samples`, or nothing
 * when fewer than `kMinBeyond` samples lie beyond its rank. Failed
 * requests enter as +infinity, so they count as missing any limit.
 */
std::optional<double> percentile(std::vector<double> samples, double p);

// ---- Open-loop driver -----------------------------------------------

/** Timing of one open-loop request, in seconds from the phase start. */
struct RequestTiming
{
    double dueSec = 0.0;
    double sentSec = 0.0;
    double doneSec = 0.0;
    bool ok = false;

    /** Due time to completion; +infinity for a failed request. */
    double latencyMs() const
    {
        return ok ? (doneSec - dueSec) * 1e3
                  : std::numeric_limits<double>::infinity();
    }
};

/** Every request of one open-loop phase, in schedule order. */
template <class Result>
struct OpenLoopRun
{
    std::vector<RequestTiming> timing;
    std::vector<std::optional<Result>> results; ///< empty on failure

    /** How far the arrival thread ran behind its schedule, in ms. */
    double lateMaxMs() const
    {
        double late = 0.0;
        for (const RequestTiming &t : timing)
            late = std::max(late, (t.sentSec - t.dueSec) * 1e3);
        return late;
    }

    std::vector<double> latenciesMs() const
    {
        std::vector<double> out;
        out.reserve(timing.size());
        for (const RequestTiming &t : timing)
            out.push_back(t.latencyMs());
        return out;
    }

    size_t failures() const
    {
        size_t n = 0;
        for (const RequestTiming &t : timing)
            n += t.ok ? 0 : 1;
        return n;
    }
};

/**
 * Send request i at `start + schedule[i]` through `submit(i)`, which
 * returns a `std::future<Result>`, on the calling thread. A second
 * thread waits for the futures in order, stamps each completion and
 * then calls `onDone(i)`. A request's latency runs from its due time,
 * so a stalled arrival thread shows up in the latency of every request
 * it held up. A future that throws, or a `submit` that throws, is a
 * failed request.
 *
 * The service delivers results in admission order, so waiting in
 * order stamps each completion when it happens.
 */
template <class Result, class Submit, class OnDone>
OpenLoopRun<Result>
driveOpenLoop(const std::vector<double> &schedule, Submit &&submit,
              Clock::time_point start, OnDone &&onDone)
{
    OpenLoopRun<Result> run;
    run.timing.resize(schedule.size());
    run.results.resize(schedule.size());

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<Result>>> pending;
    bool sending = true;

    std::thread reaper([&] {
        for (;;) {
            std::pair<size_t, std::future<Result>> item;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return !pending.empty() || !sending; });
                if (pending.empty())
                    return;
                item = std::move(pending.front());
                pending.pop_front();
            }
            RequestTiming &t = run.timing[item.first];
            try {
                if (item.second.valid()) {
                    item.second.wait();
                    t.doneSec = secondsBetween(start, Clock::now());
                    run.results[item.first] = item.second.get();
                    t.ok = true;
                }
            } catch (...) {
                t.ok = false;
            }
            onDone(item.first);
        }
    });

    for (size_t i = 0; i < schedule.size(); ++i) {
        RequestTiming &t = run.timing[i];
        t.dueSec = schedule[i];
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i])));
        t.sentSec = secondsBetween(start, Clock::now());
        std::future<Result> f;
        try {
            f = submit(i);
        } catch (...) {
            // Left invalid: the reaper records the request as failed.
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            pending.emplace_back(i, std::move(f));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        sending = false;
    }
    cv.notify_one();
    reaper.join();
    return run;
}

template <class Result, class Submit>
OpenLoopRun<Result>
driveOpenLoop(const std::vector<double> &schedule, Submit &&submit,
              Clock::time_point start = Clock::now())
{
    return driveOpenLoop<Result>(schedule, std::forward<Submit>(submit),
                                 start, [](size_t) {});
}

/**
 * Mean span of a batch of `batch` consecutive requests once the first
 * batch has filled the pipeline: from the last completion of batch 0
 * to the last completion of the last whole batch, divided by the
 * batches in between. `done[i]` is request i's completion in any unit
 * (seconds, or CPU seconds stamped at completion). 0 with fewer than
 * two whole batches.
 */
double steadyBatchSpan(const std::vector<double> &done, size_t batch);

/** Succeeded / attempted, over queries and writes of the timed phases. */
double successRate(size_t query_ok, size_t query_attempted,
                   size_t write_ok, size_t write_attempted);

// ---- Metric tables --------------------------------------------------

/** One metric the benchmark prints. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, printed with `--trace 0`. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics, printed with `--trace 1`. */
const std::vector<MetricDef> &perLayerMetrics();

/** Metric values by name; nothing means the value is absent. */
using Values = std::map<std::string, std::optional<double>>;

/**
 * The result line: `{"correct", "attempted", "failed", "metrics"}`
 * with one `{"value", "unit"}` entry per metric of `defs`. An absent
 * or non-finite value is written as null.
 */
std::string resultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<MetricDef> &defs,
                       const Values &values);

/** True when `name` is non-empty and made of [A-Za-z0-9_.-]. */
bool validMetricName(const std::string &name);

// ---- Program counters -----------------------------------------------

/**
 * The value of registry metric `name` (counter, gauge or float
 * gauge), or nothing when the program does not export it.
 */
std::optional<double> counterValue(const cegma::obs::RegistrySnapshot &snap,
                                   const std::string &name);

/** `after - before`, or nothing when either side is absent. */
std::optional<double> counterGrowth(const cegma::obs::RegistrySnapshot &before,
                                    const cegma::obs::RegistrySnapshot &after,
                                    const std::string &name);

/** `num / den` when both are present and `den > 0`. */
std::optional<double> ratio(std::optional<double> num,
                            std::optional<double> den);

// ---- Spans ----------------------------------------------------------

/** One timed call recorded by the benchmark around a program call. */
struct Span
{
    std::string name; ///< "<layer>.<call>", e.g. "retrieval.shortlist"
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index of the enclosing span, or -1
    /**
     * Open-loop request index (writes follow the queries), or, for the
     * replay, -2 - query index; -1 for none.
     */
    int64_t request = -1;
};

/** Thread-safe in-memory span store, written out at exit. */
class SpanLog
{
  public:
    /** Open a span now; returns its index. */
    int64_t open(std::string name, int64_t parent, int64_t request);

    /** Close span `id` now. */
    void close(int64_t id);

    /** Record an already-timed span; returns its index. */
    int64_t add(Span span);

    std::vector<Span> spans() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Nanoseconds on the steady clock. */
uint64_t nowNs();

/**
 * Self time of every span: its duration minus the part of it that its
 * child spans cover (children clipped to the parent, overlaps merged).
 */
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &spans);

/** The layer of a span name: the text before its first '.'. */
std::string layerOf(const std::string &name);

/** Spans as Chrome trace JSON (open in chrome://tracing or Perfetto). */
std::string chromeTraceJson(const std::vector<Span> &spans);

} // namespace servebench

#endif // CEGMA_PERFBENCH_HARNESS_HH
