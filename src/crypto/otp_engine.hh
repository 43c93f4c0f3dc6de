/**
 * @file
 * Counter-mode One-Time-Pad generation for memory encryption.
 *
 * Counter-mode memory encryption (Suh et al. MICRO-2003, Yan et al.
 * ISCA-2006) never feeds data through the block cipher. Instead the
 * cipher encrypts a nonce formed from (secret key, line address,
 * per-line write counter, block index) to produce a pad, and the data
 * is XORed with the pad. Security rests on every (address, counter,
 * block) triple being used at most once per key.
 *
 * A 64-byte line needs four 16-byte AES outputs; padForLine()
 * concatenates the pads for block indices 0..3. Block-level encryption
 * (BLE) uses padForBlock() directly with per-block counters.
 */

#ifndef DEUCE_CRYPTO_OTP_ENGINE_HH
#define DEUCE_CRYPTO_OTP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/cache_line.hh"
#include "crypto/aes.hh"

namespace deuce
{

namespace obs
{
class StatRegistry;
} // namespace obs

/** One entry of a batched pad request: (counter, block) for a line. */
struct PadRequest
{
    uint64_t counter; ///< write counter value the pad is bound to
    unsigned block;   ///< 16-byte block index within the line, 0..3
};

/**
 * One entry of a cross-line batched pad request: the full
 * (address, counter, block) triple, so pads for many lines can run
 * through one cipher stream.
 */
struct LinePadRequest
{
    uint64_t lineAddr = 0; ///< line address (line index)
    uint64_t counter = 0;  ///< write counter value the pad is bound to
    unsigned block = 0;    ///< 16-byte block index within the line
};

/**
 * Observable pad-generation counter state of an OtpEngine, for
 * crash/recovery simulation: capture before a simulated power loss,
 * restore to model the controller resuming from a checkpoint.
 */
struct OtpCounterSnapshot
{
    uint64_t pads = 0;       ///< padsGenerated() at capture
    uint64_t padBatches = 0; ///< padBatches() at capture

    bool operator==(const OtpCounterSnapshot &) const = default;
};

/** Abstract pad generator: (address, counter, block) -> 128-bit pad. */
class OtpEngine
{
  public:
    virtual ~OtpEngine() = default;

    /**
     * Generate the 128-bit pad for one 16-byte block of a line.
     * @param line_addr line address (line index, not byte address)
     * @param counter   write counter value the pad is bound to
     * @param block     16-byte block index within the line, 0..3
     */
    virtual AesBlock padForBlock(uint64_t line_addr, uint64_t counter,
                                 unsigned block) const = 0;

    /**
     * Generate pads for @p n (counter, block) pairs of one line in a
     * single batch. Bit-identical to n padForBlock() calls. The
     * default re-addresses the pairs as LinePadRequests and hands
     * them to padForLines(), so an engine's one batched path serves
     * both; a request of up to 64 pairs (every caller's) is one
     * batch. An empty request (n == 0) charges no batch.
     */
    virtual void padForBlocks(uint64_t line_addr,
                              const PadRequest *requests,
                              AesBlock *pads, unsigned n) const;

    /**
     * Generate pads for @p n (address, counter, block) triples
     * spanning many lines in one batch. Bit-identical to n
     * padForBlock() calls; the AES engine streams the whole burst
     * through one cipher pipeline so a batched write path amortizes
     * per-call overhead across lines. The default loops over
     * padForBlock(). An empty request (n == 0) charges no batch.
     */
    virtual void padForLines(const LinePadRequest *requests,
                             AesBlock *pads, unsigned n) const;

    /**
     * Generate the full 512-bit pad for a line (blocks 0..3 at one
     * counter) — a padForLines() batch of four.
     */
    virtual CacheLine padForLine(uint64_t line_addr,
                                 uint64_t counter) const;

    /**
     * Name of the underlying cipher backend for perf attribution
     * ("scalar"/"aesni"/"vaes"/"neon", "fast-hash", or "" when the
     * engine does not report one).
     */
    virtual const char *backendName() const { return ""; }

    /** Total 128-bit pads generated through this engine. */
    uint64_t padsGenerated() const
    {
        return pads_.load(std::memory_order_relaxed);
    }

    /** Batched pad requests issued (batch size may vary). */
    uint64_t padBatches() const
    {
        return batches_.load(std::memory_order_relaxed);
    }

    /**
     * Register the engine's pad counters under @p prefix (dotted,
     * e.g. "system.otp"). The engine must outlive every dump.
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /** Capture the engine's pad-generation counters. */
    OtpCounterSnapshot snapshotCounters() const
    {
        OtpCounterSnapshot snap;
        snap.pads = pads_.load(std::memory_order_relaxed);
        snap.padBatches = batches_.load(std::memory_order_relaxed);
        return snap;
    }

    /**
     * Restore counters from a snapshot (crash/recovery simulation:
     * the host-side view rolls back to the captured instant).
     */
    void restoreCounters(const OtpCounterSnapshot &snap)
    {
        pads_.store(snap.pads, std::memory_order_relaxed);
        batches_.store(snap.padBatches, std::memory_order_relaxed);
    }

  protected:
    /** Concrete engines charge each generated pad here. */
    void notePads(unsigned n) const
    {
        pads_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Charge one batched pipeline invocation. */
    void noteBatch() const
    {
        batches_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    mutable std::atomic<uint64_t> pads_{0};
    mutable std::atomic<uint64_t> batches_{0};
};

/** OtpEngine backed by the real AES-128 cipher. */
class AesOtpEngine : public OtpEngine
{
  public:
    /**
     * @param key     the secret per-DIMM key.
     * @param backend cipher backend; Auto follows the process-wide
     *                selection (--aes-backend).
     */
    explicit AesOtpEngine(const AesKey &key,
                          AesBackendKind backend = AesBackendKind::Auto);

    AesBlock padForBlock(uint64_t line_addr, uint64_t counter,
                         unsigned block) const override;

    /**
     * One cipher stream for the whole burst: the engine's one
     * nonce-assembly loop, which padForBlocks() and padForLine()
     * also reach.
     */
    void padForLines(const LinePadRequest *requests, AesBlock *pads,
                     unsigned n) const override;

    const char *backendName() const override
    {
        return cipher_.backendName();
    }

  private:
    Aes128 cipher_;
};

/**
 * OtpEngine backed by a SplitMix64-style hash: the reference engine the
 * pinned tests (golden sweep rows, scheme pins, fuzz and grid
 * signatures) were recorded on. Each pad bit is an unbiased
 * pseudo-random function of the (key, address, counter, block) triple,
 * so flip statistics match the AES engine, but it is NOT
 * cryptographically secure and no product path builds it. It is not
 * faster either: one padForLine() costs ~74-79 ns against ~46-59 ns
 * on the aesni and vaes AES backends (bench_micro, 4-vCPU Xeon with
 * VAES, gcc 12.2, Release).
 */
class FastOtpEngine : public OtpEngine
{
  public:
    /** @param seed stands in for the secret key. */
    explicit FastOtpEngine(uint64_t seed = 0xdeadbeefcafef00dull);

    AesBlock padForBlock(uint64_t line_addr, uint64_t counter,
                         unsigned block) const override;

    const char *backendName() const override { return "fast-hash"; }

  private:
    uint64_t seed_;
};

/** Builds a pad engine from a 64-bit key seed. */
using OtpEngineMaker = std::unique_ptr<OtpEngine> (*)(uint64_t key_seed);

/** Construct the default (AES) engine from a 64-bit seed-derived key. */
std::unique_ptr<OtpEngine> makeAesOtpEngine(uint64_t key_seed);

/** Construct the hash reference engine (tests only) from @p key_seed. */
std::unique_ptr<OtpEngine> makeFastOtpEngine(uint64_t key_seed);

} // namespace deuce

#endif // DEUCE_CRYPTO_OTP_ENGINE_HH
