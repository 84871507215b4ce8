/**
 * @file
 * The per-candidate coarse-key oracle shared by the retrieval and
 * live-corpus tests: each key computed one candidate at a time, in
 * the form the shortlist stage used before descriptors were scored
 * block by block. The block scorers must reproduce these keys bit for
 * bit, whatever the block grouping, thread count or SIMD level.
 */

#ifndef CEGMA_TESTS_COARSE_ORACLE_HH
#define CEGMA_TESTS_COARSE_ORACLE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/simd.hh"
#include "gmn/model.hh"
#include "gmn/simgnn.hh"
#include "retrieval/coarse.hh"
#include "tensor/matrix.hh"

namespace cegma {
namespace coarse_oracle {

/** The three key kinds and the models that produce them. */
struct KeyCase
{
    ModelId id;
    bool modelAware; ///< SimGNN's own scorer; else L2 (chain / sketch)
};
inline const KeyCase kKeyCases[] = {{ModelId::SimGnn, true},
                                    {ModelId::GraphSim, false},
                                    {ModelId::GmnLi, false}};

/** The SIMD levels this machine can run. */
inline std::vector<SimdLevel>
simdLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (cpuSupportsAvx2())
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

/** Oracle key of one stored row, given its stored squared norm. */
using KeyFn = std::function<float(const float *row, float norm)>;

/** SimGNN's per-candidate key: the NTN slice by slice, a 1-row head. */
inline float
simGnnKey(const SimGnnCoarseScorer &scorer, const float *d)
{
    constexpr size_t kE = SimGnnCoarseScorer::kEmbedDim;
    constexpr size_t kH = SimGnnCoarseScorer::kHistBins;
    constexpr size_t kK = SimGnnCoarseScorer::kSlices;
    Matrix in(1, kK + kH);
    for (size_t k = 0; k < kK; ++k) {
        const float *f = scorer.factor().row(k);
        float s = dot(d, f, kE) + f[kE];
        in.at(0, k) = s > 0.0f ? s : 0.0f;
    }
    for (size_t b = 0; b < kH; ++b)
        in.at(0, kK + b) = 0.5f * (scorer.hist().at(0, b) + d[kE + b]);
    return -scorer.head().forward(in).at(0, 0);
}

/** The squared norm the live corpus stores: a serial sum. */
inline float
serialSquaredNorm(const std::vector<float> &v)
{
    float n = 0.0f;
    for (float x : v)
        n += x * x;
    return n;
}

/** A graph's stored descriptor under the index's key kind. */
inline std::vector<float>
descriptorOf(const GmnModel &model, bool model_aware, const Graph &g,
             unsigned level, unsigned sketch_dim)
{
    if (!model_aware)
        return coarseVector(g, model, level, sketch_dim);
    std::vector<float> out(model.coarseDim());
    model.coarseDescriptor(g, out.data());
    return out;
}

/**
 * The oracle for `query`'s scorer: SimGNN's per-candidate form when
 * `model_aware` (reading `scorer`'s query-side terms), else
 * norm - 2 q.row over the query's coarse vector.
 */
inline KeyFn
keyFnFor(const GmnModel &model, bool model_aware, const Graph &query,
         const CoarseScorer &scorer, unsigned level, unsigned sketch_dim)
{
    if (model_aware) {
        const auto &simgnn = dynamic_cast<const SimGnnCoarseScorer &>(scorer);
        return [&simgnn](const float *row, float) {
            return simGnnKey(simgnn, row);
        };
    }
    std::vector<float> q = coarseVector(query, model, level, sketch_dim);
    return [q = std::move(q)](const float *row, float norm) {
        return norm - 2.0f * dot(q.data(), row, q.size());
    };
}

/**
 * Forwards to the scorer under test and checks every key it writes,
 * bitwise, against the oracle on the same stored row. Counts calls
 * and rows; safe to call from pool threads.
 */
class CheckedScorer final : public CoarseScorer
{
  public:
    CheckedScorer(const CoarseScorer &inner, KeyFn oracle)
        : inner_(inner), oracle_(std::move(oracle))
    {
    }

    void
    keys(const CoarseBlock &block, const uint32_t *rows, size_t n,
         float *keys) const override
    {
        inner_.keys(block, rows, n, keys);
        calls.fetch_add(1);
        scored.fetch_add(n);
        for (size_t i = 0; i < n; ++i) {
            float norm = block.norms != nullptr ? block.norms[rows[i]] : 0.0f;
            float want = oracle_(block.row(rows[i]), norm);
            if (std::memcmp(&want, &keys[i], sizeof(float)) != 0)
                mismatches.fetch_add(1);
        }
    }

    mutable std::atomic<size_t> calls{0};
    mutable std::atomic<size_t> scored{0};
    mutable std::atomic<size_t> mismatches{0};

  private:
    const CoarseScorer &inner_;
    KeyFn oracle_;
};

/**
 * The `budget` ids with the lowest (key, id), ascending — the
 * selection rule of both indexes, applied to oracle keys.
 */
inline std::vector<uint32_t>
lowest(const std::vector<std::pair<float, uint32_t>> &keyed, size_t budget)
{
    if (budget == 0 || keyed.size() <= budget) {
        std::vector<uint32_t> all;
        for (const auto &[key, id] : keyed)
            all.push_back(id);
        std::sort(all.begin(), all.end());
        return all;
    }
    std::vector<std::pair<float, uint32_t>> sorted = keyed;
    std::sort(sorted.begin(), sorted.end());
    std::vector<uint32_t> out;
    for (size_t i = 0; i < budget; ++i)
        out.push_back(sorted[i].second);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace coarse_oracle
} // namespace cegma

#endif // CEGMA_TESTS_COARSE_ORACLE_HH
