/**
 * @file
 * SecureMemory: the library's public entry point.
 *
 * A SecureMemory is a write-efficient encrypted non-volatile main
 * memory: pick a scheme ("deuce", "dyndeuce", "encr", "ble", ... --
 * see enc/scheme_factory.hh), a wear-leveling configuration and a
 * device model, then read and write 64-byte lines (or arbitrary byte
 * ranges, which the controller turns into read-modify-write of
 * lines). Every write is accounted: bit flips, write slots, energy,
 * and per-bit wear are available from stats().
 *
 * Quickstart:
 * @code
 *   deuce::SecureMemoryConfig cfg;
 *   cfg.scheme = "deuce";
 *   deuce::SecureMemory mem(cfg);
 *   mem.writeLine(42, line);
 *   deuce::CacheLine out = mem.readLine(42);
 *   auto stats = mem.stats();   // flips/write, slots/write, energy...
 * @endcode
 */

#ifndef DEUCE_CORE_SECURE_MEMORY_HH
#define DEUCE_CORE_SECURE_MEMORY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"
#include "sim/memory_system.hh"

namespace deuce
{

/** Configuration of a SecureMemory instance. */
struct SecureMemoryConfig
{
    /** Scheme identifier (see enc/scheme_factory.hh for the list). */
    std::string scheme = "deuce";

    /** Seed deriving the secret AES key. */
    uint64_t keySeed = 0xfeedface;

    /** Wear-leveling setup (vertical + horizontal). */
    WearLevelingConfig wearLeveling;

    /** PCM device parameters. */
    PcmConfig pcm;

    /** Counter-persistence / crash-consistency model (off by
     *  default; see persist/persist_config.hh). */
    PersistConfig persist;
};

/** Aggregate statistics of a SecureMemory. */
struct SecureMemoryStats
{
    uint64_t lineWrites = 0;
    uint64_t lineReads = 0;

    /** Average bits flipped per line write, % of 512. */
    double avgFlipPct = 0.0;

    /** Average write slots per line write. */
    double avgWriteSlots = 0.0;

    /** Total cell flips (data + metadata). */
    uint64_t totalFlips = 0;

    /** Dynamic memory energy so far, pJ. */
    double dynamicEnergyPj = 0.0;

    /** Hottest-position / mean-position wear ratio. */
    double wearNonUniformity = 1.0;

    /** Scheme tracking-bit overhead per line. */
    unsigned trackingBitsPerLine = 0;
};

/** An encrypted, wear-leveled, write-accounted PCM main memory. */
class SecureMemory
{
  public:
    explicit SecureMemory(const SecureMemoryConfig &cfg = {});
    ~SecureMemory();

    SecureMemory(const SecureMemory &) = delete;
    SecureMemory &operator=(const SecureMemory &) = delete;

    /** Write one 64-byte line. @return per-write accounting. */
    WriteOutcome writeLine(uint64_t line_addr, const CacheLine &data);

    /** Read (decrypt) one 64-byte line. */
    CacheLine readLine(uint64_t line_addr);

    /**
     * Write an arbitrary byte range (read-modify-write on the
     * affected lines). @param byte_addr global byte address.
     */
    void writeBytes(uint64_t byte_addr, const uint8_t *src,
                    uint64_t len);

    /** Read an arbitrary byte range. */
    void readBytes(uint64_t byte_addr, uint8_t *dst, uint64_t len);

    /** Aggregate statistics so far. */
    SecureMemoryStats stats() const;

    /** The composed memory system (full inspection surface). */
    const MemorySystem &memory() const { return *memory_; }

    /** Mutable access (crash/recovery drills need the crash() and
     *  adoptRecovery() seams). */
    MemorySystem &memory() { return *memory_; }

    /** Active scheme. */
    const EncryptionScheme &scheme() const { return *scheme_; }

    const SecureMemoryConfig &config() const { return cfg_; }

  private:
    SecureMemoryConfig cfg_;
    std::unique_ptr<OtpEngine> otp_;
    std::unique_ptr<EncryptionScheme> scheme_;
    std::unique_ptr<MemorySystem> memory_;
};

} // namespace deuce

#endif // DEUCE_CORE_SECURE_MEMORY_HH
