/**
 * @file
 * The small convolutional stack GraphSim applies to its similarity
 * matrices (Table I: CNN[1,16,32,64,128]).
 *
 * GraphSim resizes each layer's node-similarity matrix to a fixed grid
 * and runs it through a CNN whose global-pooled output feeds the final
 * MLP. We implement 3x3 same-padded convolutions with ReLU and 2x2 max
 * pooling between stages, then global average pooling.
 */

#ifndef CEGMA_NN_CNN_HH
#define CEGMA_NN_CNN_HH

#include <cstdint>
#include <vector>

#include "tensor/matrix.hh"

namespace cegma {

class Rng;

/** A (channels, height, width) activation volume. */
struct Volume
{
    std::vector<Matrix> channels;

    size_t numChannels() const { return channels.size(); }
    size_t height() const
    {
        return channels.empty() ? 0 : channels[0].rows();
    }
    size_t width() const
    {
        return channels.empty() ? 0 : channels[0].cols();
    }
};

/**
 * Bilinearly resize a matrix to (out_h x out_w). A source with no rows
 * or no columns resizes to all zeros.
 */
Matrix bilinearResize(const Matrix &src, size_t out_h, size_t out_w);

/** A 3x3 same-padded conv layer with ReLU. */
class Conv3x3
{
  public:
    Conv3x3(size_t in_channels, size_t out_channels, Rng &rng);

    /** Forward; output spatial size equals input spatial size. */
    Volume forward(const Volume &in) const;

    size_t inChannels() const { return inChannels_; }
    size_t outChannels() const { return outChannels_; }

    /** FLOPs for an (h x w) input. */
    uint64_t flops(size_t h, size_t w) const;

  private:
    size_t inChannels_;
    size_t outChannels_;
    // kernels_[oc][ic] is a 3x3 matrix.
    std::vector<std::vector<Matrix>> kernels_;
    std::vector<float> bias_;
};

/** 2x2 max pooling with stride 2. */
Volume maxPool2x2(const Volume &in);

/**
 * GraphSim's CNN branch: fixed-size resize, conv/pool stages per the
 * channel progression, and global average pooling to a feature vector.
 */
class CnnStack
{
  public:
    /**
     * @param channels channel progression, e.g.\ {1, 16, 32, 64, 128}
     * @param grid square input resize target (e.g.\ 16)
     */
    CnnStack(const std::vector<size_t> &channels, size_t grid, Rng &rng);

    /** Forward a raw similarity matrix; @return (1 x lastChannels). */
    Matrix forward(const Matrix &similarity) const;

    size_t outDim() const;

    /** FLOPs per similarity-matrix evaluation. */
    uint64_t flops() const;

  private:
    size_t grid_;
    std::vector<Conv3x3> convs_;
};

} // namespace cegma

#endif // CEGMA_NN_CNN_HH
