/**
 * @file
 * Tests for the neural-network layers, with emphasis on the
 * duplicate-preservation property: WL-equivalent nodes must receive
 * bitwise-identical outputs from every layer type.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "graph/generators.hh"
#include "graph/wl_refine.hh"
#include "nn/cnn.hh"
#include "nn/gcn.hh"
#include "nn/linear.hh"
#include "nn/mgnn.hh"
#include "nn/ntn.hh"

namespace cegma {
namespace {

/** Expand WL colors at one level to per-node features (one per class). */
Matrix
classFeatures(const WlColoring &wl, size_t level, size_t dim, Rng &rng)
{
    uint32_t num_classes = wl.numClasses[level];
    Matrix class_rows(num_classes, dim);
    class_rows.fillXavier(rng);
    Matrix out(wl.colors[level].size(), dim);
    for (size_t v = 0; v < wl.colors[level].size(); ++v) {
        for (size_t j = 0; j < dim; ++j)
            out.at(v, j) = class_rows.at(wl.colors[level][v], j);
    }
    return out;
}

TEST(Linear, ShapesAndDeterminism)
{
    Rng rng1(1), rng2(1);
    Linear a(8, 4, rng1), b(8, 4, rng2);
    Matrix x(3, 8);
    Rng xr(2);
    x.fillXavier(xr);
    Matrix ya = a.forward(x);
    Matrix yb = b.forward(x);
    EXPECT_EQ(ya.rows(), 3u);
    EXPECT_EQ(ya.cols(), 4u);
    EXPECT_TRUE(ya.equals(yb));
}

TEST(Linear, FlopsFormula)
{
    Rng rng(1);
    Linear a(8, 4, rng);
    EXPECT_EQ(a.flops(10), 10ull * (2 * 8 * 4 + 4));
}

TEST(Mlp, LayerChain)
{
    Rng rng(3);
    Mlp mlp({16, 8, 4, 2}, rng, Activation::Sigmoid);
    EXPECT_EQ(mlp.inDim(), 16u);
    EXPECT_EQ(mlp.outDim(), 2u);
    Matrix x(5, 16);
    x.fillXavier(rng);
    Matrix y = mlp.forward(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 2u);
    // Sigmoid output in (0, 1).
    for (size_t i = 0; i < y.size(); ++i) {
        EXPECT_GT(y.data()[i], 0.0f);
        EXPECT_LT(y.data()[i], 1.0f);
    }
}

TEST(AggregateMean, HandComputed)
{
    // Path 0-1-2; features 1, 10, 100.
    Graph g = Graph::fromEdges(3, {{0, 1}, {1, 2}});
    Matrix x(3, 1, {1.0f, 10.0f, 100.0f});
    Matrix agg = aggregateMean(g, x, {});
    EXPECT_FLOAT_EQ(agg.at(0, 0), (1.0f + 10.0f) / 2);
    EXPECT_FLOAT_EQ(agg.at(1, 0), (10.0f + 1.0f + 100.0f) / 3);
    EXPECT_FLOAT_EQ(agg.at(2, 0), (100.0f + 10.0f) / 2);
}

TEST(GcnLayer, DuplicatesStayBitwiseEqual)
{
    Rng rng(11);
    Graph g = threadGraph(120, 140, rng);
    const unsigned layers = 3;
    WlColoring wl = wlRefine(g, layers);

    Rng wrng(21);
    Matrix x = classFeatures(wl, 0, 16, wrng);
    GcnLayer l1(16, 16, wrng), l2(16, 16, wrng), l3(16, 16, wrng);
    const GcnLayer *gcn[] = {&l1, &l2, &l3};
    for (unsigned l = 0; l < layers; ++l) {
        x = gcn[l]->forward(g, x, wl.signatures[l]);
        // Every WL-equal pair at level l+1 has bitwise equal features.
        for (NodeId u = 0; u < g.numNodes(); ++u) {
            for (NodeId v = u + 1;
                 v < std::min<NodeId>(g.numNodes(), u + 25); ++v) {
                if (wl.colors[l + 1][u] == wl.colors[l + 1][v]) {
                    EXPECT_TRUE(x.rowsEqual(u, v))
                        << "layer " << l << " nodes " << u << "," << v;
                }
            }
        }
    }
}

TEST(MgnnLayer, DuplicatesStayBitwiseEqual)
{
    Rng rng(13);
    Graph g = threadGraph(80, 95, rng);
    WlColoring wl = wlRefine(g, 2);

    Rng wrng(23);
    Matrix x = classFeatures(wl, 0, 8, wrng);
    // Cross messages must themselves be class-consistent; emulate a
    // matching output by deriving them from the class features.
    Matrix cross = classFeatures(wl, 0, 8, wrng);
    MgnnLayer layer(8, 8, wrng);
    Matrix out = layer.forward(g, x, cross, wl.signatures[0]);
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        for (NodeId v = u + 1; v < g.numNodes(); ++v) {
            if (wl.colors[1][u] == wl.colors[1][v] &&
                wl.colors[0][u] == wl.colors[0][v]) {
                EXPECT_TRUE(out.rowsEqual(u, v))
                    << "nodes " << u << "," << v;
            }
        }
    }
}

/**
 * The per-arc reference `MgnnLayer::forward` replaced: each arc's
 * message as its own 1-row edge-MLP forward, summed per destination in
 * class-sorted order, then one update-MLP forward over every node.
 */
Matrix
referenceMgnnForward(const MgnnLayer &layer, const Graph &g,
                     const Matrix &x, const Matrix &cross,
                     const std::vector<uint64_t> &order_keys)
{
    const size_t d = layer.nodeDim();
    Matrix intra(g.numNodes(), layer.hidden());
    Matrix edge_in(1, 2 * d);
    std::vector<NodeId> order;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        auto ns = g.neighbors(v);
        order.assign(ns.begin(), ns.end());
        if (!order_keys.empty()) {
            std::sort(order.begin(), order.end(),
                      [&](NodeId a, NodeId b) {
                          return order_keys[a] < order_keys[b];
                      });
        }
        float *dst = intra.row(v);
        for (NodeId u : order) {
            std::memcpy(edge_in.row(0), x.row(u), d * sizeof(float));
            std::memcpy(edge_in.row(0) + d, x.row(v), d * sizeof(float));
            Matrix msg = layer.edgeMlp().forward(edge_in);
            for (size_t j = 0; j < layer.hidden(); ++j)
                dst[j] += msg.at(0, j);
        }
    }
    return layer.updateMlp().forward(hconcat({&x, &intra, &cross}));
}

/** Exact classes: each row's class is the first row bitwise equal to it. */
std::vector<uint32_t>
exactClasses(const Matrix &x)
{
    std::vector<uint32_t> cls(x.rows());
    std::vector<size_t> reps;
    for (size_t v = 0; v < x.rows(); ++v) {
        size_t c = 0;
        while (c < reps.size() && !x.rowsEqual(reps[c], v))
            ++c;
        if (c == reps.size())
            reps.push_back(v);
        cls[v] = static_cast<uint32_t>(c);
    }
    return cls;
}

/** Feature regimes for the oracle test, from most to least duplicated. */
enum class Feat
{
    Uniform,    ///< every x and cross row equal (the layer-0 regime)
    WlClasses,  ///< x and cross rows per WL class
    CrossSplit, ///< x per WL class, cross distinct per node
    Distinct,   ///< every row distinct
};

/**
 * Run `forward` with exact classes and without classes, and the per-arc
 * reference, on `g` in regime `feat`; all three must be bitwise equal.
 */
void
expectMgnnMatchesReference(const Graph &g, Feat feat, uint64_t seed,
                           const std::string &what)
{
    const size_t d = 8;
    Rng rng(seed);
    const WlColoring wl = wlRefine(g, 1);
    Matrix x(g.numNodes(), d), cross(g.numNodes(), d);
    switch (feat) {
      case Feat::Uniform: {
        Matrix row(1, d);
        row.fillXavier(rng);
        for (NodeId v = 0; v < g.numNodes(); ++v) {
            std::memcpy(x.row(v), row.row(0), d * sizeof(float));
            std::memcpy(cross.row(v), row.row(0), d * sizeof(float));
        }
        break;
      }
      case Feat::WlClasses:
        x = classFeatures(wl, 1, d, rng);
        cross = classFeatures(wl, 1, d, rng);
        break;
      case Feat::CrossSplit:
        x = classFeatures(wl, 1, d, rng);
        cross.fillXavier(rng);
        break;
      case Feat::Distinct:
        x.fillXavier(rng);
        cross.fillXavier(rng);
        break;
    }
    MgnnLayer layer(d, d, rng);
    const std::vector<uint64_t> index_order;
    for (const auto *keys : {&wl.signatures[1], &index_order}) {
        Matrix ref = referenceMgnnForward(layer, g, x, cross, *keys);
        ASSERT_EQ(ref.rows(), g.numNodes());
        for (uint32_t threads : {1u, 2u, 8u}) {
            ThreadPool::instance().setThreads(threads);
            Matrix plain = layer.forward(g, x, cross, *keys);
            Matrix dedup =
                layer.forward(g, x, cross, *keys, exactClasses(x));
            EXPECT_TRUE(plain.equals(ref))
                << what << ", no classes, " << threads << " threads, "
                << (keys->empty() ? "index" : "WL") << " order";
            EXPECT_TRUE(dedup.equals(ref))
                << what << ", exact classes, " << threads << " threads, "
                << (keys->empty() ? "index" : "WL") << " order";
        }
    }
    ThreadPool::instance().setThreads(1);
}

/** A hub joined to `leaves` leaves, plus a short tail off leaf 1. */
Graph
hubGraph(NodeId leaves)
{
    std::vector<Edge> edges;
    for (NodeId v = 1; v <= leaves; ++v)
        edges.push_back({0, v});
    edges.push_back({1, leaves + 1});
    edges.push_back({leaves + 1, leaves + 2});
    return Graph::fromEdges(leaves + 3, edges);
}

TEST(MgnnLayer, BatchedDedupMatchesPerArcReference)
{
    Rng rng(31);
    struct Case
    {
        std::string name;
        Graph g;
    };
    std::vector<Case> cases;
    cases.push_back({"thread", threadGraph(120, 140, rng)});
    cases.push_back({"star", hubGraph(40)});
    cases.push_back({"erdos-renyi", erdosRenyiGnm(60, 150, rng)});
    cases.push_back({"empty", Graph::fromEdges(0, {})});
    cases.push_back({"single node", Graph::fromEdges(1, {})});
    cases.push_back(
        {"isolated nodes", Graph::fromEdges(7, {{0, 1}, {1, 2}})});
    // fromEdges drops self-loops, so the layer never sees an arc
    // 0 -> 0; the case pins that such input still matches.
    cases.push_back(
        {"self-loop", Graph::fromEdges(3, {{0, 0}, {0, 1}, {1, 2}})});
    EXPECT_FALSE(cases.back().g.hasEdge(0, 0));
    cases.push_back({"extreme hub", hubGraph(3000)});
    for (const Case &c : cases) {
        for (Feat feat : {Feat::Uniform, Feat::WlClasses,
                          Feat::CrossSplit, Feat::Distinct}) {
            expectMgnnMatchesReference(
                c.g, feat, 41,
                c.name + " / regime " +
                    std::to_string(static_cast<int>(feat)));
        }
    }
}

TEST(MgnnLayer, FlopAccountingPositive)
{
    Rng rng(14);
    Graph g = erdosRenyiGnm(20, 40, rng);
    MgnnLayer layer(16, 16, rng);
    EXPECT_GT(layer.edgeFlops(g), 0u);
    EXPECT_GT(layer.aggregateFlops(g), 0u);
    EXPECT_GT(layer.updateFlops(20), 0u);
    // Edge MLP cost scales with arcs.
    Graph g2 = erdosRenyiGnm(20, 80, rng);
    EXPECT_GT(layer.edgeFlops(g2), layer.edgeFlops(g));
}

TEST(Ntn, ShapesAndNonNegativity)
{
    Rng rng(15);
    Ntn ntn(32, 8, rng);
    Matrix h1(1, 32), h2(1, 32);
    h1.fillXavier(rng);
    h2.fillXavier(rng);
    Matrix out = ntn.forward(h1, h2);
    EXPECT_EQ(out.rows(), 1u);
    EXPECT_EQ(out.cols(), 8u);
    for (size_t k = 0; k < 8; ++k)
        EXPECT_GE(out.at(0, k), 0.0f); // ReLU output
    EXPECT_GT(ntn.flops(), 0u);
}

TEST(Ntn, SymmetricInputsGiveDeterministicOutput)
{
    Rng rng(16);
    Ntn ntn(16, 4, rng);
    Matrix h(1, 16);
    h.fillXavier(rng);
    Matrix a = ntn.forward(h, h);
    Matrix b = ntn.forward(h, h);
    EXPECT_TRUE(a.equals(b));
}

TEST(BilinearResize, IdentityAndConstant)
{
    Matrix src(2, 2, {1, 1, 1, 1});
    Matrix big = bilinearResize(src, 8, 8);
    for (size_t i = 0; i < big.size(); ++i)
        EXPECT_FLOAT_EQ(big.data()[i], 1.0f);

    Matrix same = bilinearResize(src, 2, 2);
    EXPECT_TRUE(same.approxEquals(src, 1e-6f));
}

TEST(BilinearResize, PreservesRange)
{
    Rng rng(17);
    Matrix src(5, 9);
    src.fillXavier(rng);
    Matrix dst = bilinearResize(src, 16, 16);
    float lo = src.data()[0], hi = src.data()[0];
    for (size_t i = 0; i < src.size(); ++i) {
        lo = std::min(lo, src.data()[i]);
        hi = std::max(hi, src.data()[i]);
    }
    for (size_t i = 0; i < dst.size(); ++i) {
        EXPECT_GE(dst.data()[i], lo - 1e-6f);
        EXPECT_LE(dst.data()[i], hi + 1e-6f);
    }
}

TEST(Conv3x3, OutputShapeAndRelu)
{
    Rng rng(18);
    Conv3x3 conv(2, 3, rng);
    Volume in;
    in.channels.emplace_back(4, 4);
    in.channels.emplace_back(4, 4);
    in.channels[0].fillXavier(rng);
    in.channels[1].fillXavier(rng);
    Volume out = conv.forward(in);
    EXPECT_EQ(out.numChannels(), 3u);
    EXPECT_EQ(out.height(), 4u);
    EXPECT_EQ(out.width(), 4u);
    for (const Matrix &ch : out.channels) {
        for (size_t i = 0; i < ch.size(); ++i)
            EXPECT_GE(ch.data()[i], 0.0f);
    }
}

TEST(MaxPool, HalvesAndTakesMax)
{
    Volume in;
    in.channels.emplace_back(2, 2, std::vector<float>{1, 2, 3, 4});
    Volume out = maxPool2x2(in);
    EXPECT_EQ(out.height(), 1u);
    EXPECT_EQ(out.width(), 1u);
    EXPECT_FLOAT_EQ(out.channels[0].at(0, 0), 4.0f);
}

TEST(CnnStack, EndToEnd)
{
    Rng rng(19);
    CnnStack cnn({1, 4, 8}, 8, rng);
    Matrix s(10, 13);
    s.fillXavier(rng);
    Matrix feat = cnn.forward(s);
    EXPECT_EQ(feat.rows(), 1u);
    EXPECT_EQ(feat.cols(), 8u);
    EXPECT_EQ(cnn.outDim(), 8u);
    EXPECT_GT(cnn.flops(), 0u);
    // Deterministic.
    EXPECT_TRUE(feat.equals(cnn.forward(s)));
}

} // namespace
} // namespace cegma
