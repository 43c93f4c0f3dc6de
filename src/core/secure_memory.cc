/**
 * @file
 * SecureMemory implementation.
 */

#include "core/secure_memory.hh"

#include <algorithm>

#include "common/logging.hh"
#include "enc/scheme_factory.hh"
#include "wear/lifetime.hh"

namespace deuce
{

SecureMemory::SecureMemory(const SecureMemoryConfig &cfg) : cfg_(cfg)
{
    otp_ = makeAesOtpEngine(cfg_.keySeed);
    scheme_ = makeScheme(cfg_.scheme, *otp_);
    // A fresh memory installs lines as all-zero plaintext.
    memory_ = std::make_unique<MemorySystem>(
        *scheme_, cfg_.wearLeveling, cfg_.pcm,
        [](uint64_t) { return CacheLine{}; }, FaultConfig{},
        cfg_.persist);
}

SecureMemory::~SecureMemory() = default;

WriteOutcome
SecureMemory::writeLine(uint64_t line_addr, const CacheLine &data)
{
    return memory_->write(line_addr, data);
}

CacheLine
SecureMemory::readLine(uint64_t line_addr)
{
    return memory_->read(line_addr);
}

void
SecureMemory::writeBytes(uint64_t byte_addr, const uint8_t *src,
                         uint64_t len)
{
    uint64_t pos = 0;
    while (pos < len) {
        uint64_t addr = byte_addr + pos;
        uint64_t line = addr / CacheLine::kBytes;
        unsigned offset = static_cast<unsigned>(addr % CacheLine::kBytes);
        unsigned chunk = static_cast<unsigned>(
            std::min<uint64_t>(CacheLine::kBytes - offset, len - pos));

        CacheLine data = memory_->read(line);
        for (unsigned i = 0; i < chunk; ++i) {
            data.setByte(offset + i, src[pos + i]);
        }
        memory_->write(line, data);
        pos += chunk;
    }
}

void
SecureMemory::readBytes(uint64_t byte_addr, uint8_t *dst, uint64_t len)
{
    uint64_t pos = 0;
    while (pos < len) {
        uint64_t addr = byte_addr + pos;
        uint64_t line = addr / CacheLine::kBytes;
        unsigned offset = static_cast<unsigned>(addr % CacheLine::kBytes);
        unsigned chunk = static_cast<unsigned>(
            std::min<uint64_t>(CacheLine::kBytes - offset, len - pos));

        CacheLine data = memory_->read(line);
        for (unsigned i = 0; i < chunk; ++i) {
            dst[pos + i] = data.byte(offset + i);
        }
        pos += chunk;
    }
}

SecureMemoryStats
SecureMemory::stats() const
{
    SecureMemoryStats s;
    s.lineWrites = memory_->energy().writes();
    s.lineReads = memory_->energy().reads();
    s.avgFlipPct = memory_->flipStat().mean() * 100.0;
    s.avgWriteSlots = memory_->slotStat().mean();
    s.totalFlips = memory_->energy().flips();
    s.dynamicEnergyPj = memory_->energy().dynamicEnergyPj();
    if (memory_->wearTracker().writes() > 0) {
        s.wearNonUniformity = memory_->wearTracker().nonUniformity();
    }
    s.trackingBitsPerLine = scheme_->trackingBitsPerLine();
    return s;
}

} // namespace deuce
