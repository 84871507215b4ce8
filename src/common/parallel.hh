/**
 * @file
 * A lazily-initialized persistent thread pool and the `parallelFor`
 * primitive every hot kernel in the repo is built on.
 *
 * Determinism contract: `parallelFor(begin, end, grain, fn)` splits
 * the range into chunks of exactly `grain` indices (the last chunk may
 * be short). The chunk boundaries depend only on (begin, end, grain) —
 * never on the thread count — and every chunk is executed by exactly
 * one thread with the same serial code, so any kernel whose chunks
 * write disjoint outputs produces bit-identical results whether the
 * pool runs 1, 2, or 64 threads. The serial fallback iterates the same
 * chunks in order.
 *
 * Thread count resolution (first use wins, cheapest first):
 *   1. `ThreadPool::instance().setThreads(n)` (e.g. a `--threads` CLI
 *      flag) at any point — the pool restarts with the new count;
 *   2. the `CEGMA_THREADS` environment variable;
 *   3. `std::thread::hardware_concurrency()`.
 * Counts above `kMaxThreads` clamp to it, with a warning.
 *
 * Nested `parallelFor` calls issued from inside a pool task run
 * serially on the calling worker (no deadlock, no oversubscription).
 */

#ifndef CEGMA_COMMON_PARALLEL_HH
#define CEGMA_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cegma {

/** Most threads the pool runs; the tools reject larger `--threads`. */
inline constexpr uint32_t kMaxThreads = 1024;

/** `n` capped at `kMaxThreads` (the clamp `setThreads` applies). */
constexpr uint32_t
clampThreads(uint64_t n)
{
    return n > kMaxThreads ? kMaxThreads : static_cast<uint32_t>(n);
}

/**
 * The thread count a `CEGMA_THREADS` value selects: a whole decimal
 * integer >= 1, clamped to `kMaxThreads` with a warning; `fallback`
 * (with a warning) for anything else. Null or empty means unset, and
 * gives `fallback` silently.
 */
uint32_t threadsFromEnv(const char *value, uint32_t fallback);

/** Persistent worker pool behind `parallelFor`. */
class ThreadPool
{
  public:
    /** The process-wide pool (created on first use). */
    static ThreadPool &instance();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;
    ~ThreadPool();

    /**
     * Resolved thread count the next job will use (>= 1). Resolves
     * `CEGMA_THREADS` / hardware concurrency on first call.
     */
    uint32_t threads();

    /**
     * Set the thread count; 0 re-resolves from `CEGMA_THREADS` /
     * hardware concurrency, and counts above `kMaxThreads` clamp to
     * it with a warning. Safe to call between jobs at any time;
     * workers are restarted lazily.
     */
    void setThreads(uint32_t n);

    /**
     * Execute `task(i)` for every i in [0, num_tasks), distributed
     * over the pool; the calling thread participates. Blocks until
     * all tasks ran. The first exception thrown by any task is
     * rethrown here after the job completes.
     */
    void run(size_t num_tasks, const std::function<void(size_t)> &task);

    /** True when called from inside a pool task (nested region). */
    static bool inParallelRegion();

  private:
    ThreadPool() = default;

    void ensureStarted();  ///< resolve thread count, spawn workers
    void stopWorkers();    ///< join and discard all workers
    void workerMain(uint64_t seen);
    void drainTasks(const std::function<void(size_t)> &task);

    std::mutex jobMutex_;  ///< serializes top-level jobs & restarts

    std::mutex mutex_;     ///< guards all job state below
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    uint32_t target_ = 0;  ///< resolved thread count; 0 = unresolved
    bool shutdown_ = false;

    const std::function<void(size_t)> *job_ = nullptr;
    size_t jobTasks_ = 0;
    std::atomic<size_t> nextTask_{0};
    size_t workersLeft_ = 0;  ///< workers yet to check in for this job
    uint64_t jobSeq_ = 0;
    std::exception_ptr error_;
};

/**
 * Run `fn(chunk_begin, chunk_end)` over [begin, end) in chunks of
 * `grain` indices (see determinism contract above). Runs serially when
 * the range is a single chunk, the pool has one thread, or the caller
 * is already inside a pool task.
 */
void parallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)> &fn);

/**
 * Chunk size for a row range where one row costs ~`work_per_row`
 * scalar ops: large enough that a chunk amortizes dispatch (~min_work
 * ops), never larger than the row count, and independent of the
 * thread count (determinism).
 */
inline size_t
grainForRows(size_t rows, size_t work_per_row,
             size_t min_work = size_t(1) << 15)
{
    if (rows == 0)
        return 1;
    size_t grain = min_work / (work_per_row > 0 ? work_per_row : 1);
    if (grain < 1)
        grain = 1;
    if (grain > rows)
        grain = rows;
    return grain;
}

} // namespace cegma

#endif // CEGMA_COMMON_PARALLEL_HH
