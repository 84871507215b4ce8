/**
 * @file
 * Cross-graph node similarity functions (paper Equation 2).
 *
 * S = X Y^T / K with the paper's three variants:
 *  - dot product: K = 1
 *  - cosine:      K_ij = ||X_i|| * ||Y_j||
 *  - euclidean:   scaled dot product further normalized by the squared
 *    row magnitudes, yielding the negative squared distance
 *    S_ij = 2 X_i.Y_j - ||X_i||^2 - ||Y_j||^2  (per [24])
 */

#ifndef CEGMA_GMN_SIMILARITY_HH
#define CEGMA_GMN_SIMILARITY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "emf/emf.hh"
#include "tensor/matrix.hh"

namespace cegma {

/** Similarity function selector (Table I, "Similarity" column). */
enum class SimilarityKind
{
    DotProduct,
    Cosine,
    Euclidean,
};

/** @return display name ("dot-product", "cosine", "euclidean"). */
const char *similarityName(SimilarityKind kind);

/**
 * Compute the (n x m) similarity matrix between node features
 * X (n x f) and Y (m x f).
 */
Matrix similarityMatrix(const Matrix &x, const Matrix &y,
                        SimilarityKind kind);

/**
 * FLOPs for an (n x m) similarity over f-wide features, including the
 * normalization of the chosen variant.
 */
uint64_t similarityFlops(uint64_t n, uint64_t m, uint64_t f,
                         SimilarityKind kind);

/**
 * FLOPs for the deduplicated similarity: the arithmetic runs on the
 * `u_n x u_m` unique-row block only (the same count `similarityFlops`
 * would charge that block); the scatter back to n x m is pure copies
 * and contributes zero FLOPs. This is the software analogue of
 * `MatchingWork::uniquePairs()` — both charge u_n * u_m pairs.
 */
uint64_t similarityFlopsDedup(uint64_t n, uint64_t m, uint64_t u_n,
                              uint64_t u_m, uint64_t f,
                              SimilarityKind kind);

/**
 * A *confirmed* row-deduplication map: which rows of a feature matrix
 * carry distinct bit patterns, and which unique row each original row
 * aliases. Unlike a raw `EmfResult` (hash tags only), every duplicate
 * claim has been verified with `memcmp`, so a 32-bit tag collision can
 * never alias two distinct rows — the property that keeps every dedup
 * execution path bit-identical to its dense counterpart.
 */
struct DedupMap
{
    /** Original row index of each unique row, in first-seen order. */
    std::vector<uint32_t> uniqueRows;

    /** Per original row: its row index in the gathered unique block. */
    std::vector<uint32_t> repOf;

    uint32_t numUnique() const
    {
        return static_cast<uint32_t>(uniqueRows.size());
    }

    bool anyDuplicates() const
    {
        return uniqueRows.size() < repOf.size();
    }
};

/**
 * Confirm an EMF pass against the feature rows it hashed: every
 * tag-match is re-checked with `memcmp`, and a colliding row (equal
 * tag, different bits) is promoted to a unique row of its own (or
 * mapped to an earlier promoted row it bitwise equals).
 *
 * @param features the matrix `emf` was computed over
 * @param emf the EMF outcome for `features` (`uniqueOf` must point
 *        backwards: a duplicate's representative precedes it)
 */
DedupMap confirmDedup(const Matrix &features, const EmfResult &emf);

/** Gather `rows` of `m` into a new `rows.size() x m.cols()` matrix. */
Matrix gatherRows(const Matrix &m, const std::vector<uint32_t> &rows);

/**
 * Gather `cols` of `m` as rows: a `cols.size() x m.rows()` matrix
 * whose row j is column `cols[j]` of `m` (rows of the transpose,
 * without transposing the rest).
 */
Matrix gatherColumns(const Matrix &m, const std::vector<uint32_t> &cols);

/**
 * Expand a unique-row block back to one row per original index:
 * `out.row(i) = block.row(map.repOf[i])`.
 */
Matrix scatterRows(const Matrix &block, const DedupMap &map);

/**
 * EMF-skipped similarity (the paper's Algorithm 1 executed in
 * software): gather the unique rows of both sides, run the dense
 * similarity kernel on the `u_n x u_m` block only, and scatter the
 * block back through the dedup maps.
 *
 * Bit-identical to `similarityMatrix(x, y, kind)`: every similarity
 * cell is a deterministic function of exactly one x-row and one y-row
 * (fixed-order dot product and per-row norms), so copying a
 * representative's cell reproduces the dense cell exactly — and the
 * `memcmp` confirm in `confirmDedup` guarantees representatives really
 * are bitwise equal to the rows they stand for.
 */
Matrix similarityMatrixDedup(const Matrix &x, const Matrix &y,
                             SimilarityKind kind, const DedupMap &dx,
                             const DedupMap &dy);

/**
 * Convenience overload taking the two sides' raw EMF outcomes; runs
 * the `memcmp` confirm internally.
 */
Matrix similarityMatrixDedup(const Matrix &x, const Matrix &y,
                             SimilarityKind kind, const EmfResult &ex,
                             const EmfResult &ey);

/**
 * One-call form: hash both sides (EMF Algorithm 1), confirm, and run
 * the dedup similarity.
 */
Matrix similarityMatrixDedup(const Matrix &x, const Matrix &y,
                             SimilarityKind kind);

} // namespace cegma

#endif // CEGMA_GMN_SIMILARITY_HH
