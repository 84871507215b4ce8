#include "perfbench/harness.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/rng.hh"

namespace servebench {

std::vector<double>
arrivalSchedule(uint64_t seed, double rate, uint32_t count)
{
    std::vector<double> gaps(count);
    for (uint32_t i = 0; i < count; ++i)
        gaps[i] = -std::log1p(-(i + 0.5) / count) / rate;
    cegma::Rng rng(seed ^ 0xa77e5a1ULL);
    for (uint32_t i = count; i > 1; --i)
        std::swap(gaps[i - 1], gaps[rng.nextBounded(i)]);
    std::vector<double> out(count);
    double t = 0.0;
    for (uint32_t i = 0; i < count; ++i) {
        t += gaps[i];
        out[i] = t;
    }
    return out;
}

std::vector<WriteOp>
planWrites(uint64_t seed, double rate, uint32_t count,
           const std::vector<uint64_t> &bootstrap_ids,
           const std::vector<uint64_t> &pool_ids)
{
    std::vector<double> due = arrivalSchedule(seed ^ 0x3717e5ULL, rate, count);
    cegma::Rng rng(seed ^ 0x4e3a0e5ULL);
    std::vector<uint64_t> live = bootstrap_ids;
    std::vector<WriteOp> plan(count);
    uint32_t next_pool = 0;
    for (uint32_t k = 0; k < count; ++k) {
        WriteOp &op = plan[k];
        op.dueSec = due[k];
        op.insert = k % 2 == 0 && next_pool < pool_ids.size();
        if (op.insert) {
            op.poolIndex = next_pool++;
            op.id = pool_ids[op.poolIndex];
            live.push_back(op.id);
        } else {
            size_t at = rng.nextBounded(live.size());
            op.id = live[at];
            live[at] = live.back();
            live.pop_back();
        }
    }
    return plan;
}

size_t
minSamplesFor(double p)
{
    // Nearest rank r = ceil(p/100 * n) leaves n - r samples beyond it.
    for (size_t n = 1;; ++n) {
        auto rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (n - std::max<size_t>(rank, 1) >= kMinBeyond)
            return n;
    }
}

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samples.size() < minSamplesFor(p))
        return std::nullopt;
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    rank = std::max<size_t>(rank, 1);
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
steadyBatchSpan(const std::vector<double> &done, size_t batch)
{
    const size_t batches = batch > 0 ? done.size() / batch : 0;
    if (batches < 2)
        return 0.0;
    auto last_of = [&](size_t k) {
        return *std::max_element(done.begin() + k * batch,
                                 done.begin() + (k + 1) * batch);
    };
    return (last_of(batches - 1) - last_of(0)) /
           static_cast<double>(batches - 1);
}

double
successRate(size_t query_ok, size_t query_attempted, size_t write_ok,
            size_t write_attempted)
{
    size_t attempted = query_attempted + write_attempted;
    return attempted > 0 ? static_cast<double>(query_ok + write_ok) /
                               static_cast<double>(attempted)
                         : 0.0;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"p50_ms", "ms"},
        {"p90_ms", "ms"},
        {"throughput_qps", "queries/s"},
        {"cpu_ms_per_query", "ms"},
        {"success_rate", "ratio"},
        {"recall_at_10", "ratio"},
        {"setup_s", "s"},
        {"mem_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"serve.batcher_wait_ms", "ms"},
        {"serve.pipeline_wait_ms", "ms"},
        {"serve.bulk_batch_mean", "requests"},
        {"serve.embed_busy_ms", "ms"},
        {"serve.match_busy_ms", "ms"},
        {"serve.head_busy_ms", "ms"},
        {"serve.overlap_share", "ratio"},
        {"retrieval.shortlist_ms", "ms"},
        {"retrieval.survivors_per_query", "count"},
        {"retrieval.verified_per_query", "count"},
        {"retrieval.index_mb", "MiB"},
        {"retrieval.bootstrap_s", "s"},
        {"corpus.writes", "count"},
        {"corpus.insert_ms", "ms"},
        {"corpus.remove_ms", "ms"},
        {"corpus.flush_ms", "ms"},
        {"corpus.flush_p90_ms", "ms"},
        {"corpus.publish_p50_ms", "ms"},
        {"corpus.publish_p90_ms", "ms"},
        {"corpus.compactions", "count"},
        {"corpus.epochs_reclaimed_share", "ratio"},
        {"gmn.score_ms", "ms"},
        {"gmn.embed_ms", "ms"},
        {"gmn.match_ms", "ms"},
        {"gmn.dedup_ms", "ms"},
        {"gmn.head_ms", "ms"},
        {"gmn.memo_hit_rate", "ratio"},
        {"gmn.memo_evictions", "count"},
        {"gmn.dedup_skip_ratio", "ratio"},
        {"emf.filter_us_per_krow", "us"},
        {"tensor.matmul_gflops", "GFLOP/s"},
        {"tensor.similarity_gflops", "GFLOP/s"},
        {"tensor.workspace_miss_rate", "ratio"},
        {"common.parallel_for_us", "us"},
        {"driver.late_max_ms", "ms"},
        {"trace.unattributed_share", "ratio"},
        {"trace.overhead_share", "ratio"},
    };
    return defs;
}

std::string
resultJson(bool correct, size_t attempted, size_t failed,
           const std::vector<MetricDef> &defs, const Values &values)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        auto it = values.find(defs[i].name);
        std::optional<double> v =
            it != values.end() ? it->second : std::nullopt;
        char num[64] = "null";
        if (v && std::isfinite(*v))
            std::snprintf(num, sizeof num, "%.17g", *v);
        out << (i ? ", " : "") << "\"" << defs[i].name
            << "\": {\"value\": " << num << ", \"unit\": \""
            << defs[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::optional<double>
counterValue(const cegma::obs::RegistrySnapshot &snap,
             const std::string &name)
{
    using Kind = cegma::obs::MetricValue::Kind;
    for (const cegma::obs::MetricValue &m : snap.metrics) {
        if (m.name != name)
            continue;
        switch (m.kind) {
          case Kind::Counter:
            return static_cast<double>(m.counter);
          case Kind::Gauge:
            return static_cast<double>(m.gauge);
          case Kind::FloatGauge:
            return m.fgauge;
          case Kind::Histogram:
            return static_cast<double>(m.hist.count);
        }
    }
    return std::nullopt;
}

std::optional<double>
counterGrowth(const cegma::obs::RegistrySnapshot &before,
              const cegma::obs::RegistrySnapshot &after,
              const std::string &name)
{
    std::optional<double> a = counterValue(before, name);
    std::optional<double> b = counterValue(after, name);
    if (!a || !b)
        return std::nullopt;
    return *b - *a;
}

std::optional<double>
ratio(std::optional<double> num, std::optional<double> den)
{
    if (!num || !den || *den <= 0.0)
        return std::nullopt;
    return *num / *den;
}

int64_t
SpanLog::open(std::string name, int64_t parent, int64_t request)
{
    Span span;
    span.name = std::move(name);
    span.startNs = nowNs();
    span.parent = parent;
    span.request = request;
    return add(std::move(span));
}

void
SpanLog::close(int64_t id)
{
    uint64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].endNs = now;
}

int64_t
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

std::vector<uint64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<size_t>(s.parent)];
        uint64_t a = std::max(s.startNs, p.startNs);
        uint64_t b = std::min(s.endNs, p.endNs);
        if (a < b)
            children[static_cast<size_t>(s.parent)].emplace_back(a, b);
    }
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = children[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, end = 0;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
        uint64_t dur = spans[i].endNs > spans[i].startNs
                           ? spans[i].endNs - spans[i].startNs
                           : 0;
        self[i] = dur > covered ? dur - covered : 0;
    }
    return self;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    uint64_t t0 = UINT64_MAX;
    for (const Span &s : spans)
        t0 = std::min(t0, s.startNs);
    std::string out = "{\"traceEvents\": [\n";
    char buf[512];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        uint64_t end = std::max(s.endNs, s.startNs);
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": %" PRId64 ", \"args\": {\"span\": %zu, "
                      "\"parent\": %" PRId64 ", \"request\": %" PRId64
                      "}}%s\n",
                      s.name.c_str(), layerOf(s.name).c_str(),
                      static_cast<double>(s.startNs - t0) / 1e3,
                      static_cast<double>(end - s.startNs) / 1e3,
                      s.request + 1, i, s.parent, s.request,
                      i + 1 < spans.size() ? "," : "");
        out += buf;
    }
    out += "]}\n";
    return out;
}

} // namespace servebench
