/**
 * @file
 * CacheLine implementation.
 */

#include "common/cache_line.hh"

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/line_kernels.hh"
#include "common/logging.hh"

namespace deuce
{

uint64_t
CacheLine::field(unsigned lsb, unsigned width) const
{
    deuce_assert(width >= 1 && width <= 64);
    deuce_assert(lsb + width <= kBits);

    unsigned limb_idx = lsb >> 6;
    unsigned offset = lsb & 63;
    uint64_t mask = (width == 64) ? ~uint64_t{0}
                                  : ((uint64_t{1} << width) - 1);

    uint64_t low = limbs_[limb_idx] >> offset;
    if (offset + width > 64) {
        low |= limbs_[limb_idx + 1] << (64 - offset);
    }
    return low & mask;
}

void
CacheLine::setField(unsigned lsb, unsigned width, uint64_t value)
{
    deuce_assert(width >= 1 && width <= 64);
    deuce_assert(lsb + width <= kBits);

    uint64_t mask = (width == 64) ? ~uint64_t{0}
                                  : ((uint64_t{1} << width) - 1);
    value &= mask;

    unsigned limb_idx = lsb >> 6;
    unsigned offset = lsb & 63;

    limbs_[limb_idx] = (limbs_[limb_idx] & ~(mask << offset)) |
                       (value << offset);
    if (offset + width > 64) {
        unsigned spill = offset + width - 64;
        uint64_t hi_mask = (uint64_t{1} << spill) - 1;
        limbs_[limb_idx + 1] = (limbs_[limb_idx + 1] & ~hi_mask) |
                               (value >> (64 - offset));
    }
}

unsigned
CacheLine::popcount() const
{
    return lineKernels().popcount(*this);
}

unsigned
CacheLine::flipsTo(const CacheLine &other) const
{
    return lineKernels().xorPopcount(*this, other);
}

CacheLine
CacheLine::diff(const CacheLine &other) const
{
    CacheLine out;
    lineKernels().diffInto(*this, other, out);
    return out;
}

CacheLine
CacheLine::operator^(const CacheLine &other) const
{
    CacheLine result(*this);
    result ^= other;
    return result;
}

CacheLine &
CacheLine::operator^=(const CacheLine &other)
{
    for (unsigned i = 0; i < kLimbs; ++i) {
        limbs_[i] ^= other.limbs_[i];
    }
    return *this;
}

CacheLine
CacheLine::operator~() const
{
    CacheLine result;
    for (unsigned i = 0; i < kLimbs; ++i) {
        result.limbs_[i] = ~limbs_[i];
    }
    return result;
}

CacheLine
CacheLine::rotl(unsigned amount) const
{
    amount %= kBits;
    if (amount == 0) {
        return *this;
    }

    CacheLine result;
    unsigned limb_shift = amount >> 6;
    unsigned bit_shift = amount & 63;
    for (unsigned i = 0; i < kLimbs; ++i) {
        // Destination limb i receives bits from source limbs
        // (i - limb_shift) and (i - limb_shift - 1), mod kLimbs.
        unsigned src = (i + kLimbs - limb_shift) % kLimbs;
        unsigned src_prev = (src + kLimbs - 1) % kLimbs;
        uint64_t value = limbs_[src] << bit_shift;
        if (bit_shift != 0) {
            value |= limbs_[src_prev] >> (64 - bit_shift);
        }
        result.limbs_[i] = value;
    }
    return result;
}

CacheLine
CacheLine::rotr(unsigned amount) const
{
    amount %= kBits;
    return rotl(kBits - amount);
}

CacheLine
CacheLine::fromBytes(const uint8_t *src)
{
    CacheLine line;
    if constexpr (std::endian::native == std::endian::little) {
        // Limb i already holds bytes 8i..8i+7 least significant first.
        std::memcpy(line.limbs_.data(), src, kBytes);
        return line;
    }
    for (unsigned i = 0; i < kLimbs; ++i) {
        uint64_t limb = 0;
        for (unsigned b = 0; b < 8; ++b) {
            limb |= static_cast<uint64_t>(src[i * 8 + b]) << (b * 8);
        }
        line.limbs_[i] = limb;
    }
    return line;
}

void
CacheLine::toBytes(uint8_t *dst) const
{
    for (unsigned i = 0; i < kLimbs; ++i) {
        for (unsigned b = 0; b < 8; ++b) {
            dst[i * 8 + b] = static_cast<uint8_t>(limbs_[i] >> (b * 8));
        }
    }
}

std::string
CacheLine::toHex() const
{
    std::string out;
    out.reserve(kLimbs * 16);
    char buf[17];
    for (unsigned i = kLimbs; i-- > 0;) {
        std::snprintf(buf, sizeof(buf), "%016lx",
                      static_cast<unsigned long>(limbs_[i]));
        out += buf;
    }
    return out;
}

unsigned
hammingDistance(const CacheLine &a, const CacheLine &b)
{
    return lineKernels().xorPopcount(a, b);
}

unsigned
hammingDistance(const CacheLine &a, const CacheLine &b,
                unsigned lsb, unsigned width)
{
    deuce_assert(lsb + width <= CacheLine::kBits);

    unsigned total = 0;
    unsigned pos = lsb;
    unsigned remaining = width;
    while (remaining > 0) {
        unsigned chunk = std::min(remaining, 64u);
        // field() cannot cross a limb pair boundary beyond 64 bits, but
        // chunks of <=64 bits are always extractable.
        uint64_t diff = a.field(pos, chunk) ^ b.field(pos, chunk);
        total += static_cast<unsigned>(std::popcount(diff));
        pos += chunk;
        remaining -= chunk;
    }
    return total;
}

} // namespace deuce
