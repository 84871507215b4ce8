#include "nn/cnn.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace cegma {

Matrix
bilinearResize(const Matrix &src, size_t out_h, size_t out_w)
{
    // A pair with a 0-node side has an empty similarity matrix: resize
    // it as the all-zero matrix it stands for.
    Matrix out(out_h, out_w);
    if (src.rows() == 0 || src.cols() == 0)
        return out;
    const double sy = static_cast<double>(src.rows()) / out_h;
    const double sx = static_cast<double>(src.cols()) / out_w;
    for (size_t r = 0; r < out_h; ++r) {
        double fy = (r + 0.5) * sy - 0.5;
        fy = std::max(0.0, std::min(fy, src.rows() - 1.0));
        size_t y0 = static_cast<size_t>(fy);
        size_t y1 = std::min(y0 + 1, src.rows() - 1);
        double wy = fy - y0;
        for (size_t c = 0; c < out_w; ++c) {
            double fx = (c + 0.5) * sx - 0.5;
            fx = std::max(0.0, std::min(fx, src.cols() - 1.0));
            size_t x0 = static_cast<size_t>(fx);
            size_t x1 = std::min(x0 + 1, src.cols() - 1);
            double wx = fx - x0;
            double top = src.at(y0, x0) * (1 - wx) + src.at(y0, x1) * wx;
            double bot = src.at(y1, x0) * (1 - wx) + src.at(y1, x1) * wx;
            out.at(r, c) = static_cast<float>(top * (1 - wy) + bot * wy);
        }
    }
    return out;
}

Conv3x3::Conv3x3(size_t in_channels, size_t out_channels, Rng &rng)
    : inChannels_(in_channels), outChannels_(out_channels)
{
    kernels_.resize(out_channels);
    float limit = std::sqrt(6.0f / (9.0f * (in_channels + out_channels)));
    for (auto &per_in : kernels_) {
        per_in.reserve(in_channels);
        for (size_t ic = 0; ic < in_channels; ++ic) {
            Matrix k(3, 3);
            for (size_t i = 0; i < k.size(); ++i) {
                k.data()[i] = static_cast<float>(
                    (rng.nextDouble() * 2.0 - 1.0) * limit);
            }
            per_in.push_back(std::move(k));
        }
    }
    bias_.resize(out_channels);
    for (auto &b : bias_)
        b = static_cast<float>((rng.nextDouble() * 2.0 - 1.0) * limit);
}

Volume
Conv3x3::forward(const Volume &in) const
{
    cegma_assert(in.numChannels() == inChannels_);
    const size_t h = in.height();
    const size_t w = in.width();
    Volume out;
    out.channels.reserve(outChannels_);
    for (size_t oc = 0; oc < outChannels_; ++oc) {
        Matrix acc(h, w);
        acc.fill(bias_[oc]);
        for (size_t ic = 0; ic < inChannels_; ++ic) {
            const Matrix &src = in.channels[ic];
            const Matrix &k = kernels_[oc][ic];
            for (size_t r = 0; r < h; ++r) {
                for (size_t c = 0; c < w; ++c) {
                    float sum = 0.0f;
                    for (int dy = -1; dy <= 1; ++dy) {
                        long rr = static_cast<long>(r) + dy;
                        if (rr < 0 || rr >= static_cast<long>(h))
                            continue;
                        for (int dx = -1; dx <= 1; ++dx) {
                            long cc = static_cast<long>(c) + dx;
                            if (cc < 0 || cc >= static_cast<long>(w))
                                continue;
                            sum += k.at(dy + 1, dx + 1) * src.at(rr, cc);
                        }
                    }
                    acc.at(r, c) += sum;
                }
            }
        }
        reluInPlace(acc);
        out.channels.push_back(std::move(acc));
    }
    return out;
}

uint64_t
Conv3x3::flops(size_t h, size_t w) const
{
    return 2ull * h * w * 9ull * inChannels_ * outChannels_;
}

Volume
maxPool2x2(const Volume &in)
{
    Volume out;
    const size_t h = std::max<size_t>(1, in.height() / 2);
    const size_t w = std::max<size_t>(1, in.width() / 2);
    out.channels.reserve(in.numChannels());
    for (const Matrix &src : in.channels) {
        Matrix dst(h, w);
        for (size_t r = 0; r < h; ++r) {
            for (size_t c = 0; c < w; ++c) {
                float m = src.at(2 * r, 2 * c);
                if (2 * c + 1 < src.cols())
                    m = std::max(m, src.at(2 * r, 2 * c + 1));
                if (2 * r + 1 < src.rows()) {
                    m = std::max(m, src.at(2 * r + 1, 2 * c));
                    if (2 * c + 1 < src.cols())
                        m = std::max(m, src.at(2 * r + 1, 2 * c + 1));
                }
                dst.at(r, c) = m;
            }
        }
        out.channels.push_back(std::move(dst));
    }
    return out;
}

CnnStack::CnnStack(const std::vector<size_t> &channels, size_t grid,
                   Rng &rng)
    : grid_(grid)
{
    cegma_assert(channels.size() >= 2);
    for (size_t i = 0; i + 1 < channels.size(); ++i)
        convs_.emplace_back(channels[i], channels[i + 1], rng);
}

Matrix
CnnStack::forward(const Matrix &similarity) const
{
    Volume vol;
    vol.channels.push_back(bilinearResize(similarity, grid_, grid_));
    for (const Conv3x3 &conv : convs_) {
        vol = conv.forward(vol);
        vol = maxPool2x2(vol);
    }
    // Global average pooling.
    Matrix out(1, vol.numChannels());
    for (size_t c = 0; c < vol.numChannels(); ++c) {
        const Matrix &m = vol.channels[c];
        double sum = 0.0;
        for (size_t i = 0; i < m.size(); ++i)
            sum += m.data()[i];
        out.at(0, c) = static_cast<float>(sum / m.size());
    }
    return out;
}

size_t
CnnStack::outDim() const
{
    return convs_.back().outChannels();
}

uint64_t
CnnStack::flops() const
{
    uint64_t total = 0;
    size_t h = grid_, w = grid_;
    for (const Conv3x3 &conv : convs_) {
        total += conv.flops(h, w);
        h = std::max<size_t>(1, h / 2);
        w = std::max<size_t>(1, w / 2);
    }
    return total;
}

} // namespace cegma
