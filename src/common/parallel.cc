#include "common/parallel.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/parse.hh"

namespace cegma {

namespace {

thread_local bool tl_in_pool_task = false;

/** `n` clamped to `kMaxThreads`, warning when the clamp bites. */
uint32_t
clampWarn(uint64_t n, const char *source)
{
    if (n > kMaxThreads) {
        warn("%s: %llu threads requested; clamping to %u", source,
             static_cast<unsigned long long>(n), kMaxThreads);
    }
    return clampThreads(n);
}

uint32_t
resolveThreads()
{
    uint32_t hw = std::thread::hardware_concurrency();
    return threadsFromEnv(std::getenv("CEGMA_THREADS"),
                          clampWarn(hw >= 1 ? hw : 1, "hardware"));
}

} // namespace

uint32_t
threadsFromEnv(const char *value, uint32_t fallback)
{
    if (value == nullptr || *value == '\0')
        return fallback;
    std::optional<uint64_t> n = parseInRange<uint64_t>(
        value, 1, std::numeric_limits<uint64_t>::max());
    if (!n) {
        warn("CEGMA_THREADS: expected an integer >= 1, got '%s'; "
             "using %u",
             value, fallback);
        return fallback;
    }
    return clampWarn(*n, "CEGMA_THREADS");
}

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

bool
ThreadPool::inParallelRegion()
{
    return tl_in_pool_task;
}

uint32_t
ThreadPool::threads()
{
    std::lock_guard<std::mutex> lk(mutex_);
    if (target_ == 0)
        target_ = resolveThreads();
    return target_;
}

void
ThreadPool::setThreads(uint32_t n)
{
    std::lock_guard<std::mutex> job_lk(jobMutex_);
    uint32_t resolved =
        n == 0 ? resolveThreads() : clampWarn(n, "ThreadPool::setThreads");
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (resolved == target_)
            return;
    }
    stopWorkers();
    std::lock_guard<std::mutex> lk(mutex_);
    target_ = resolved;
}

void
ThreadPool::ensureStarted()
{
    std::lock_guard<std::mutex> lk(mutex_);
    if (target_ == 0)
        target_ = resolveThreads();
    // The caller participates, so the pool holds target_ - 1 workers.
    // New workers start at the *current* job sequence so they don't
    // mistake an already-finished job for fresh work.
    while (workers_.size() + 1 < target_)
        workers_.emplace_back([this, seq = jobSeq_] { workerMain(seq); });
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (workers_.empty())
            return;
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    std::lock_guard<std::mutex> lk(mutex_);
    workers_.clear();
    shutdown_ = false;
}

void
ThreadPool::drainTasks(const std::function<void(size_t)> &task)
{
    bool saved = tl_in_pool_task;
    tl_in_pool_task = true;
    for (;;) {
        size_t t = nextTask_.fetch_add(1, std::memory_order_relaxed);
        if (t >= jobTasks_)
            break;
        try {
            task(t);
        } catch (...) {
            std::lock_guard<std::mutex> lk(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
    tl_in_pool_task = saved;
}

void
ThreadPool::workerMain(uint64_t seen)
{
    for (;;) {
        const std::function<void(size_t)> *job = nullptr;
        {
            std::unique_lock<std::mutex> lk(mutex_);
            wake_.wait(lk,
                       [&] { return shutdown_ || jobSeq_ != seen; });
            if (shutdown_)
                return;
            seen = jobSeq_;
            job = job_;
        }
        if (job)
            drainTasks(*job);
        {
            std::lock_guard<std::mutex> lk(mutex_);
            if (--workersLeft_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::run(size_t num_tasks, const std::function<void(size_t)> &task)
{
    // One top-level job at a time; later callers queue up here.
    std::lock_guard<std::mutex> job_lk(jobMutex_);
    ensureStarted();
    {
        std::lock_guard<std::mutex> lk(mutex_);
        job_ = &task;
        jobTasks_ = num_tasks;
        nextTask_.store(0, std::memory_order_relaxed);
        workersLeft_ = workers_.size();
        error_ = nullptr;
        ++jobSeq_;
    }
    wake_.notify_all();
    drainTasks(task);
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lk(mutex_);
        done_.wait(lk, [&] { return workersLeft_ == 0; });
        job_ = nullptr;
        error = error_;
        error_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t, size_t)> &fn)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    size_t chunks = (end - begin + grain - 1) / grain;

    auto run_chunk = [&](size_t c) {
        size_t b = begin + c * grain;
        size_t e = std::min(end, b + grain);
        fn(b, e);
    };

    ThreadPool &pool = ThreadPool::instance();
    if (chunks == 1 || ThreadPool::inParallelRegion() ||
        pool.threads() == 1) {
        // Same chunk boundaries as the parallel path (determinism even
        // for chunk-stateful callers).
        for (size_t c = 0; c < chunks; ++c)
            run_chunk(c);
        return;
    }
    pool.run(chunks, run_chunk);
}

} // namespace cegma
