/**
 * @file
 * The MGNN layer of GMN-Li (Table I: MGNN[64,64,64] + MLP(64*3,64,64)).
 *
 * Per the paper's description of [24]: an edge MLP turns each directed
 * edge's endpoint features into an intra-graph message; messages are
 * aggregated per node (class-ordered, see gcn.hh); an update MLP then
 * combines [own feature, intra message, cross-graph matching message]
 * into the next layer's node feature.
 */

#ifndef CEGMA_NN_MGNN_HH
#define CEGMA_NN_MGNN_HH

#include <cstdint>
#include <vector>

#include "graph/graph.hh"
#include "nn/linear.hh"

namespace cegma {

/** GMN-Li's message-passing layer with cross-graph input. */
class MgnnLayer
{
  public:
    /**
     * @param node_dim node feature width (64 in Table I)
     * @param hidden edge-message width (64 in Table I)
     * @param rng weight initializer
     */
    MgnnLayer(size_t node_dim, size_t hidden, Rng &rng);

    /**
     * Forward one graph side, computing each distinct edge message and
     * each distinct node update once (the embedding-stage half of the
     * elastic runtime, DESIGN.md §6):
     *  - arc u -> v maps to a message row keyed by (class of u, class
     *    of v), in first-seen order; the edge MLP runs once, batched,
     *    over the distinct rows;
     *  - node v maps to an update row keyed by (class of v, the
     *    sequence of message rows its intra message sums), confirmed
     *    by memcmp of its x and cross rows; the update MLP runs on the
     *    distinct rows and the results are scattered back.
     * The output bits do not depend on `classes`.
     *
     * @param g graph
     * @param x (numNodes x node_dim) features
     * @param cross (numNodes x node_dim) cross-graph matching messages
     * @param order_keys deterministic aggregation keys
     * @param classes per-node class ids, where equal ids promise
     *        bitwise-equal x rows (e.g. a confirmed `DedupMap::repOf`);
     *        empty means every node is its own class
     * @return (numNodes x node_dim) updated features
     */
    Matrix forward(const Graph &g, const Matrix &x, const Matrix &cross,
                   const std::vector<uint64_t> &order_keys,
                   const std::vector<uint32_t> &classes = {}) const;

    size_t nodeDim() const { return nodeDim_; }
    size_t hidden() const { return hidden_; }

    /** [x_src, x_dst] -> message. */
    const Mlp &edgeMlp() const { return edgeMlp_; }

    /** [x, intra, cross] -> next feature. */
    const Mlp &updateMlp() const { return updateMlp_; }

    /**
     * FLOPs of the edge-message phase, one message per directed arc:
     * the dense count of the paper's Fig. 3 split, whatever `forward`
     * deduplicates.
     */
    uint64_t edgeFlops(const Graph &g) const;

    /** FLOPs of message aggregation. */
    uint64_t aggregateFlops(const Graph &g) const;

    /** FLOPs of the update MLP for n nodes. */
    uint64_t updateFlops(uint64_t n) const;

  private:
    size_t nodeDim_;
    size_t hidden_;
    Mlp edgeMlp_;
    Mlp updateMlp_;
};

} // namespace cegma

#endif // CEGMA_NN_MGNN_HH
