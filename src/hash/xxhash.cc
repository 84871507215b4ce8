#include "hash/xxhash.hh"

#include <cstring>

#include "common/simd.hh"
#include "hash/xxhash_impl.hh"

namespace cegma {

using namespace xxdetail;

uint32_t
xxhash32(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    const size_t total = len;
    uint32_t h;

    if (len >= 16) {
        uint32_t acc1 = seed + PRIME1 + PRIME2;
        uint32_t acc2 = seed + PRIME2;
        uint32_t acc3 = seed;
        uint32_t acc4 = seed - PRIME1;
        while (len >= 16) {
            acc1 = round(acc1, read32(p));
            acc2 = round(acc2, read32(p + 4));
            acc3 = round(acc3, read32(p + 8));
            acc4 = round(acc4, read32(p + 12));
            p += 16;
            len -= 16;
        }
        h = rotl32(acc1, 1) + rotl32(acc2, 7) +
            rotl32(acc3, 12) + rotl32(acc4, 18);
    } else {
        h = seed + PRIME5;
    }

    h += static_cast<uint32_t>(total);
    return finalize(h, p, len);
}

void
xxhash32Rows(const void *data, size_t row_bytes, size_t stride_bytes,
             size_t num_rows, uint32_t seed, uint32_t *out)
{
    const uint8_t *base = static_cast<const uint8_t *>(data);
    size_t done = 0;
#ifdef CEGMA_HAVE_AVX2
    // Eight rows per pass; the function hashes the largest multiple of
    // eight and reports how many rows it covered. Rows shorter than a
    // stripe have no vectorizable main loop.
    if (simdLevel() == SimdLevel::Avx2 && row_bytes >= 16) {
        done = xxhash32RowsAvx2(base, row_bytes, stride_bytes, num_rows,
                                seed, out);
    }
#endif
    for (size_t r = done; r < num_rows; ++r)
        out[r] = xxhash32(base + r * stride_bytes, row_bytes, seed);
}

XxHash32Stream::XxHash32Stream(uint32_t seed)
    : seed_(seed)
{
    reset();
}

void
XxHash32Stream::reset()
{
    acc_[0] = seed_ + PRIME1 + PRIME2;
    acc_[1] = seed_ + PRIME2;
    acc_[2] = seed_;
    acc_[3] = seed_ - PRIME1;
    bufferLen_ = 0;
    totalLen_ = 0;
}

void
XxHash32Stream::update(const void *data, size_t len)
{
    if (len == 0)
        return; // an empty graph's arrays may hand in a null pointer
    const uint8_t *p = static_cast<const uint8_t *>(data);
    totalLen_ += len;

    // Top up a partially filled stripe buffer first.
    if (bufferLen_ > 0) {
        size_t need = 16 - bufferLen_;
        size_t take = len < need ? len : need;
        std::memcpy(buffer_ + bufferLen_, p, take);
        bufferLen_ += take;
        p += take;
        len -= take;
        if (bufferLen_ < 16)
            return;
        acc_[0] = round(acc_[0], read32(buffer_));
        acc_[1] = round(acc_[1], read32(buffer_ + 4));
        acc_[2] = round(acc_[2], read32(buffer_ + 8));
        acc_[3] = round(acc_[3], read32(buffer_ + 12));
        bufferLen_ = 0;
    }

    while (len >= 16) {
        acc_[0] = round(acc_[0], read32(p));
        acc_[1] = round(acc_[1], read32(p + 4));
        acc_[2] = round(acc_[2], read32(p + 8));
        acc_[3] = round(acc_[3], read32(p + 12));
        p += 16;
        len -= 16;
    }

    if (len > 0) {
        std::memcpy(buffer_, p, len);
        bufferLen_ = len;
    }
}

uint32_t
XxHash32Stream::digest() const
{
    uint32_t h;
    if (totalLen_ >= 16) {
        h = rotl32(acc_[0], 1) + rotl32(acc_[1], 7) +
            rotl32(acc_[2], 12) + rotl32(acc_[3], 18);
    } else {
        h = seed_ + PRIME5;
    }
    h += static_cast<uint32_t>(totalLen_);
    return finalize(h, buffer_, bufferLen_);
}

uint32_t
hashFeatureVector(const float *values, size_t count, uint32_t seed)
{
    return xxhash32(values, count * sizeof(float), seed);
}

} // namespace cegma
