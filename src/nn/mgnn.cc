#include "nn/mgnn.hh"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace cegma {

namespace {

/** One step of the node-update key hash. */
uint64_t
mixKey(uint64_t h, uint64_t v)
{
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
}

} // namespace

MgnnLayer::MgnnLayer(size_t node_dim, size_t hidden, Rng &rng)
    : nodeDim_(node_dim), hidden_(hidden),
      edgeMlp_({2 * node_dim, hidden, hidden}, rng, Activation::Relu),
      updateMlp_({node_dim + hidden + node_dim, node_dim, node_dim}, rng,
                 Activation::Tanh)
{
}

Matrix
MgnnLayer::forward(const Graph &g, const Matrix &x, const Matrix &cross,
                   const std::vector<uint64_t> &order_keys,
                   const std::vector<uint32_t> &classes) const
{
    cegma_assert(x.rows() == g.numNodes() && x.cols() == nodeDim_);
    cegma_assert(cross.rows() == g.numNodes() &&
                 cross.cols() == nodeDim_);
    cegma_assert(classes.empty() || classes.size() == g.numNodes());

    const NodeId n = g.numNodes();
    auto cls = [&](NodeId v) -> uint64_t {
        return classes.empty() ? v : classes[v];
    };

    // Edge messages. Walk each destination's class-sorted arcs in the
    // order its intra message sums them. Arcs with equal (class(u),
    // class(v)) keys have bitwise-equal [x_u, x_v] inputs, so they
    // share one message row, numbered in first-seen order.
    std::vector<size_t> arc_begin(n + size_t(1), 0);
    std::vector<uint32_t> arc_row(g.numArcs());
    std::vector<std::pair<NodeId, NodeId>> row_arc; // (u, v) per row
    std::unordered_map<uint64_t, uint32_t> row_of;
    row_of.reserve(g.numArcs());
    std::vector<NodeId> order;
    size_t arc = 0;
    for (NodeId v = 0; v < n; ++v) {
        auto ns = g.neighbors(v);
        order.assign(ns.begin(), ns.end());
        if (!order_keys.empty()) {
            std::sort(order.begin(), order.end(),
                      [&](NodeId a, NodeId b) {
                          return order_keys[a] < order_keys[b];
                      });
        }
        for (NodeId u : order) {
            auto [it, fresh] = row_of.try_emplace(
                cls(u) << 32 | cls(v),
                static_cast<uint32_t>(row_arc.size()));
            if (fresh)
                row_arc.emplace_back(u, v);
            arc_row[arc++] = it->second;
        }
        arc_begin[v + 1] = arc;
    }

    // One batched edge-MLP chain over the distinct rows. matmul builds
    // each output row from its own input row alone, and bias and ReLU
    // are elementwise, so every row is bitwise what a 1-row forward of
    // its arc gives.
    Matrix edge_in(row_arc.size(), 2 * nodeDim_);
    for (size_t r = 0; r < row_arc.size(); ++r) {
        std::memcpy(edge_in.row(r), x.row(row_arc[r].first),
                    nodeDim_ * sizeof(float));
        std::memcpy(edge_in.row(r) + nodeDim_, x.row(row_arc[r].second),
                    nodeDim_ * sizeof(float));
    }
    const Matrix msg = edgeMlp_.forward(edge_in);

    // Node updates. Node v's update input [x_v, intra_v, cross_v] is
    // fixed by class(v), the message rows intra_v sums in order, and
    // cross_v; nodes equal on all three share one update row. The hash
    // only finds a candidate: the row sequences are compared exactly
    // and the x and cross rows by memcmp, and a node that fails the
    // confirm gets a row of its own.
    const size_t row_bytes = nodeDim_ * sizeof(float);
    auto same_update = [&](NodeId a, NodeId b) {
        return cls(a) == cls(b) &&
               std::equal(arc_row.begin() + arc_begin[a],
                          arc_row.begin() + arc_begin[a + 1],
                          arc_row.begin() + arc_begin[b],
                          arc_row.begin() + arc_begin[b + 1]) &&
               std::memcmp(x.row(a), x.row(b), row_bytes) == 0 &&
               std::memcmp(cross.row(a), cross.row(b), row_bytes) == 0;
    };
    std::vector<uint32_t> node_row(n);
    std::vector<NodeId> row_node; // representative node per row
    std::unordered_map<uint64_t, uint32_t> row_of_hash;
    row_of_hash.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
        uint64_t h = cls(v);
        for (size_t a = arc_begin[v]; a < arc_begin[v + 1]; ++a)
            h = mixKey(h, arc_row[a]);
        auto next = static_cast<uint32_t>(row_node.size());
        auto [it, fresh] = row_of_hash.try_emplace(h, next);
        if (fresh || !same_update(row_node[it->second], v)) {
            row_node.push_back(v);
            node_row[v] = next;
        } else {
            node_row[v] = it->second;
        }
    }

    // [x, intra, cross] per distinct row. Each intra sum adds the same
    // message rows in the same class-sorted order as any node it
    // stands for; rows are disjoint, so chunking cannot change bits.
    const size_t num_rows = row_node.size();
    Matrix update_in(num_rows, 2 * nodeDim_ + hidden_);
    size_t avg_deg = n > 0 ? g.numArcs() / n : 0;
    size_t grain = grainForRows(num_rows, (avg_deg + 2) * hidden_);
    parallelFor(0, num_rows, grain, [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            NodeId v = row_node[r];
            float *dst = update_in.row(r);
            std::memcpy(dst, x.row(v), row_bytes);
            float *intra = dst + nodeDim_;
            for (size_t a = arc_begin[v]; a < arc_begin[v + 1]; ++a) {
                const float *m = msg.row(arc_row[a]);
                for (size_t j = 0; j < hidden_; ++j)
                    intra[j] += m[j];
            }
            std::memcpy(intra + hidden_, cross.row(v), row_bytes);
        }
    });
    Matrix unique_out = updateMlp_.forward(update_in);
    if (num_rows == n)
        return unique_out; // rows are in node order

    Matrix out(n, nodeDim_);
    for (NodeId v = 0; v < n; ++v)
        std::memcpy(out.row(v), unique_out.row(node_row[v]), row_bytes);
    return out;
}

uint64_t
MgnnLayer::edgeFlops(const Graph &g) const
{
    return edgeMlp_.flops(g.numArcs());
}

uint64_t
MgnnLayer::aggregateFlops(const Graph &g) const
{
    return g.numArcs() * hidden_;
}

uint64_t
MgnnLayer::updateFlops(uint64_t n) const
{
    return updateMlp_.flops(n);
}

} // namespace cegma
