/**
 * @file
 * Size-bucketed workspace pool backing per-request / per-pair tensor
 * allocation (DESIGN.md §7e).
 *
 * The serving hot path allocates the same handful of tensor shapes
 * over and over — per-pair similarity matrices in
 * `GmnModel::forwardDetailed`, per-candidate head inputs in the
 * cascade's coarse scorer, per-batch score buffers. The PR-4 traces
 * show those allocations as visible spans. This pool turns the steady
 * state into pointer pops:
 *
 *   - requests are rounded up to power-of-two byte buckets
 *     (64 B .. 64 MiB); anything larger bypasses the pool entirely;
 *   - each thread keeps a small per-bucket free list (no locking);
 *   - thread overflow spills into one shared, byte-budgeted pool
 *     (`--workspace-mb`) guarded by a single mutex — it is only
 *     touched when a thread cache misses or overflows;
 *   - every block is 64-byte aligned, matching `AlignedAllocator`'s
 *     contract, so the SIMD kernels see identical alignment whether a
 *     block is fresh or recycled.
 *
 * Determinism: the pool hands out raw storage only; callers
 * (std::vector value-initialization, kernel writes) define every byte
 * read downstream, so recycling cannot change results — only where
 * the bytes live. `CEGMA_WORKSPACE=off` turns the pool into a
 * pass-through to plain aligned new/delete for A/B debugging.
 *
 * Telemetry: relaxed-atomic hit/miss/byte counters surface as
 * `workspace.{hits,misses,bytes}` gauges in the service's metrics
 * registry (wired by SearchService).
 */

#ifndef CEGMA_TENSOR_WORKSPACE_HH
#define CEGMA_TENSOR_WORKSPACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace cegma {

/** Point-in-time counters for the pool (all relaxed reads). */
struct WorkspaceStats
{
    uint64_t hits = 0;       ///< acquisitions served from a free list
    uint64_t misses = 0;     ///< acquisitions that hit the OS allocator
    uint64_t oversized = 0;  ///< bypasses (> kMaxBucketBytes), subset of misses
    uint64_t cachedBytes = 0; ///< bytes currently parked in free lists
};

/**
 * Process-wide size-bucketed allocation pool. Thread-safe; the
 * singleton is intentionally leaked so worker threads may release
 * blocks at any point during shutdown without static-destruction
 * ordering hazards (same reasoning as the ThreadPool singleton).
 */
class WorkspacePool
{
  public:
    static constexpr std::size_t kAlignment = 64;
    /** Smallest bucket: one cache line. */
    static constexpr std::size_t kMinBucketBytes = 64;
    /** Largest pooled bucket; bigger requests bypass the pool. */
    static constexpr std::size_t kMaxBucketBytes =
        static_cast<std::size_t>(1) << 26; // 64 MiB
    static constexpr int kNumBuckets = 21; // 2^6 .. 2^26
    /** Per-thread free-list depth per bucket before spilling. */
    static constexpr std::size_t kThreadCacheBlocks = 8;

    static WorkspacePool &instance();

    /**
     * A 64-byte aligned block of at least `bytes` bytes (never null
     * for bytes > 0; throws std::bad_alloc like operator new).
     */
    void *acquire(std::size_t bytes);

    /**
     * Return a block obtained from acquire(). `bytes` must be the
     * original request size (the allocator contract already hands it
     * back), so the bucket is recovered without a header.
     */
    void release(void *p, std::size_t bytes) noexcept;

    /** Cap on bytes parked in the *shared* pool (excess is freed). */
    void setSharedBudgetBytes(std::size_t bytes);
    std::size_t sharedBudgetBytes() const;

    WorkspaceStats stats() const;

    /** False when CEGMA_WORKSPACE=off pinned the pool to pass-through. */
    bool enabled() const { return enabled_; }

    /** Flush the calling thread's free lists into the shared pool. */
    void drainThreadCache() noexcept;
    /** Free every block parked in the shared pool (test hook). */
    void trimShared() noexcept;

    /** Bucket index for a request size (exposed for tests). */
    static int bucketIndex(std::size_t bytes) noexcept;
    /** Block size of bucket `idx`. */
    static std::size_t bucketBytes(int idx) noexcept;

  private:
    WorkspacePool();
    ~WorkspacePool() = delete; // leaked singleton

    struct ThreadCache;
    ThreadCache &threadCache();

    void *popShared(int idx) noexcept;
    /** Park in the shared pool if under budget; else free. */
    void parkShared(int idx, void *p) noexcept;

    bool enabled_ = true;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> oversized_{0};
    std::atomic<uint64_t> cachedBytes_{0};

    mutable std::mutex mutex_;
    std::vector<void *> shared_[kNumBuckets]; // guarded by mutex_
    std::size_t sharedBytes_ = 0;             // guarded by mutex_
    std::atomic<std::size_t> sharedBudget_;
};

/**
 * C++17 allocator routing through the WorkspacePool. Same alignment
 * guarantee as AlignedAllocator; drop-in for containers whose
 * lifetime is a request, a pair, or a batch.
 */
template <typename T, std::size_t Alignment = WorkspacePool::kAlignment>
struct PooledAllocator
{
    static_assert(Alignment >= alignof(T),
                  "alignment must not weaken the type's natural one");
    static_assert(Alignment <= WorkspacePool::kAlignment,
                  "the pool only guarantees 64-byte alignment");

    using value_type = T;

    PooledAllocator() noexcept = default;

    template <typename U>
    PooledAllocator(const PooledAllocator<U, Alignment> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = PooledAllocator<U, Alignment>;
    };

    T *allocate(std::size_t n)
    {
        if (n == 0)
            return nullptr;
        return static_cast<T *>(
            WorkspacePool::instance().acquire(n * sizeof(T)));
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        WorkspacePool::instance().release(p, n * sizeof(T));
    }

    friend bool operator==(const PooledAllocator &,
                           const PooledAllocator &) noexcept
    {
        return true;
    }

    friend bool operator!=(const PooledAllocator &,
                           const PooledAllocator &) noexcept
    {
        return false;
    }
};

/** The pool-backed, cache-line aligned buffer behind `Matrix`. */
using WorkspaceFloatVector = std::vector<float, PooledAllocator<float>>;

} // namespace cegma

#endif // CEGMA_TENSOR_WORKSPACE_HH
