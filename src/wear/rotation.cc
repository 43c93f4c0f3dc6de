/**
 * @file
 * Rotation policy implementations.
 */

#include "wear/rotation.hh"

#include "common/rng.hh"

namespace deuce
{

HwlRotation::HwlRotation(const VerticalWearLeveler &vwl, bool hashed,
                         unsigned bits)
    : vwl_(vwl), hashed_(hashed), bits_(bits)
{}

std::string
HwlRotation::name() const
{
    return hashed_ ? "hwl-hashed" : "hwl";
}

unsigned
HwlRotation::rotationFor(uint64_t la) const
{
    uint64_t epoch = vwl_.hwlEpoch(la);
    if (hashed_) {
        return static_cast<unsigned>(
            mix64(epoch * 0x9e3779b97f4a7c15ull ^ la) % bits_);
    }
    return static_cast<unsigned>(epoch % bits_);
}

PerLineRotation::PerLineRotation(unsigned interval, unsigned bits)
    : interval_(interval), bits_(bits)
{}

unsigned
PerLineRotation::rotationFor(uint64_t la) const
{
    auto it = writeCount_.find(la);
    uint64_t writes = (it == writeCount_.end()) ? 0 : it->second;
    return static_cast<unsigned>((writes / interval_) % bits_);
}

unsigned
PerLineRotation::storageBitsPerLine() const
{
    // The rotation register must address every bit in the line.
    unsigned reg = 0;
    while ((1u << reg) < bits_) {
        ++reg;
    }
    return reg;
}

void
PerLineRotation::onWrite(uint64_t la)
{
    ++writeCount_[la];
}

} // namespace deuce
