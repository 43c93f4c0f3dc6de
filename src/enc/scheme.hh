/**
 * @file
 * EncryptionScheme: the interface every memory-encryption design in
 * this library implements, plus the per-line persistent state and the
 * per-write accounting record.
 *
 * A scheme is a pure state transformer: given the line's current
 * stored state (cell image + counters + tracking bits) and a new
 * plaintext, write() produces the new stored state. Every write runs
 * down one path — planWritePads() → generatePads() → writeWithPads()
 * — and every read down its mirror — planReadPads() → generatePads()
 * → readWithPads() — whether it arrives alone or in a burst, so every
 * planned pad comes from the scheme's one generatePads().
 * All bit-flip accounting is derived centrally by diffing old and new
 * state (makeWriteResult), so a scheme cannot misreport its own cost.
 */

#ifndef DEUCE_ENC_SCHEME_HH
#define DEUCE_ENC_SCHEME_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/cache_line.hh"
#include "crypto/otp_engine.hh"

namespace deuce
{

namespace obs
{
class StatRegistry;
} // namespace obs

/** Architectural width of the per-line write counter (Table 1). */
constexpr unsigned kLineCounterBits = 28;

/**
 * Upper bound on the 512-bit line pads any scheme plans for one read;
 * sizes the pad arenas. 1-byte per-word counters are the maximum: one
 * 16-byte block per word, 16 line pads. VCC plans 2N + 1 = 9 at N = 4.
 */
constexpr unsigned kMaxReadPadLines = 16;

/**
 * The same bound for one write, whose plan may start with a whole
 * read plan (the read-back). VCC plans 3N + 2 = 14 at N = 4.
 */
constexpr unsigned kMaxWritePadLines = kMaxReadPadLines;

/**
 * Assemble @p lines 512-bit line pads from 4 * @p lines generated
 * 16-byte blocks: block b of line pad p lands at bytes 16b..16b+15,
 * exactly padForLine()'s layout.
 */
void assembleLinePads(const AesBlock *blocks, CacheLine *line_pads,
                      unsigned lines);

/**
 * Append line pad (@p line_addr, @p counter) — its blocks 0..3 — to a
 * pad plan holding @p lines line pads, and count it.
 */
inline void
addLinePad(LinePadRequest *requests, unsigned &lines, uint64_t line_addr,
           uint64_t counter)
{
    for (unsigned block = 0; block < 4; ++block) {
        requests[4 * lines + block] =
            LinePadRequest{line_addr, counter, block};
    }
    ++lines;
}

/**
 * Persistent per-line state as stored in the PCM array.
 *
 * Every scheme uses a subset of the fields: counter-mode uses
 * counter; BLE uses blockCounters; DEUCE adds modifiedBits; FNW
 * variants add flipBits; DynDEUCE adds modeBit. Unused fields stay at
 * their defaults and never flip, so the central accounting charges
 * each scheme exactly its own metadata.
 */
struct StoredLineState
{
    /** Stored cell image (ciphertext; FNW may store regions inverted). */
    CacheLine data;

    /** Per-line write counter (line-granularity schemes). */
    uint64_t counter = 0;

    /** Per-16-byte-block write counters (BLE). */
    std::array<uint64_t, 4> blockCounters{};

    /** DEUCE modified-word tracking bits (word w -> bit w). */
    uint64_t modifiedBits = 0;

    /** Flip-N-Write flip bits (region r -> bit r). */
    uint64_t flipBits = 0;

    /** DynDEUCE mode bit (false = DEUCE mode, true = FNW mode). */
    bool modeBit = false;

    /**
     * VCC coset-selection auxiliary word (ciphertext). Holds the
     * encrypted per-word candidate indices; stored alongside the
     * line like DEUCE's word flags but re-randomized under a fresh
     * pad every write, so its flips are part of the scheme's cost.
     */
    uint64_t cosetBits = 0;

    bool operator==(const StoredLineState &other) const = default;
};

/** Accounting record for one line write. */
struct WriteResult
{
    /** XOR of old and new stored data images (cell flip mask). */
    CacheLine dataDiff;

    /** Number of data cells flipped. */
    unsigned dataFlips = 0;

    /**
     * Number of metadata cells flipped: write-counter bits plus
     * tracking bits (modified / flip / mode bits).
     */
    unsigned metaFlips = 0;

    /** Diff of the modified-bit tracking column (DEUCE). */
    uint64_t modifiedDiff = 0;

    /** Diff of the flip-bit tracking column (FNW). */
    uint64_t flipDiff = 0;

    /** Diff of the coset auxiliary word (VCC). */
    uint64_t cosetDiff = 0;

    /** dataFlips + metaFlips. */
    unsigned totalFlips() const { return dataFlips + metaFlips; }
};

/**
 * Derive the accounting record from the state transition. Used by all
 * schemes; counters are charged at the architectural counter width.
 */
WriteResult makeWriteResult(const StoredLineState &before,
                            const StoredLineState &after);

/** Interface implemented by every memory-encryption design. */
class EncryptionScheme
{
  public:
    virtual ~EncryptionScheme() = default;

    /** Human-readable scheme name ("DEUCE-2B-e32", "FNW+Encr", ...). */
    virtual std::string name() const = 0;

    /**
     * Tracking-bit storage overhead per line (Table 3), excluding the
     * write counter(s) that any encrypted design already carries.
     */
    virtual unsigned trackingBitsPerLine() const = 0;

    /**
     * First-time installation of a line (page-in through the memory
     * controller). Sets up counters and the initial cell image; no
     * flips are charged, matching the paper's assumption that pages
     * are encrypted as they are placed into memory. The default
     * zeroes the state and encrypts the whole line under its
     * counter-0 line pad.
     */
    virtual void install(uint64_t line_addr, const CacheLine &plaintext,
                         StoredLineState &state) const;

    /**
     * Apply one writeback of @p plaintext to the line, updating
     * @p state in place: plan the write's pads into a stack arena,
     * generate them in one generatePads() call, assemble them into
     * line pads and hand them to writeWithPads() — the same three
     * steps a batch pipeline runs over a whole burst.
     * @return the flip accounting for this write.
     */
    WriteResult write(uint64_t line_addr, const CacheLine &plaintext,
                      StoredLineState &state) const;

    /**
     * Decrypt the line's current contents: write()'s mirror, planning
     * with planReadPads() and decoding with readWithPads().
     */
    CacheLine read(uint64_t line_addr,
                   const StoredLineState &state) const;

    /**
     * Whether the design encrypts under per-block counters
     * (StoredLineState::blockCounters) rather than the single line
     * counter. Crash recovery needs this: a MAC over the effective
     * (summed) counter can reconstruct a stale line counter by
     * search, but never the split across block counters.
     */
    virtual bool usesBlockCounters() const { return false; }

    /**
     * Plan the line pads one read of this (line, state) pair consumes,
     * as planWritePads() does for a write; a line pad's blocks need
     * not share a counter (BLE, per-word counters). Plaintext stores
     * plan none (the default). At most kMaxReadPadLines line pads.
     */
    virtual unsigned planReadPads(uint64_t line_addr,
                                  const StoredLineState &state,
                                  LinePadRequest *requests) const;

    /** Decrypt with the line pads planReadPads() planned. */
    virtual CacheLine readWithPads(uint64_t line_addr,
                                   const StoredLineState &state,
                                   const CacheLine *line_pads) const = 0;

    /**
     * Plan the 512-bit line pads one write of this (line, state) pair
     * consumes, appending 4 block-granular requests per line pad
     * (usually blocks 0..3 at one counter) to @p requests. A write's pads
     * depend only on the pre-write state, so a burst's pads can all
     * be generated through one cipher stream before any line commits.
     * Schemes that must decrypt the current contents to find the
     * modified words plan their read plan first. Schemes whose new
     * pads depend on the incoming data (BLE's dirty blocks, per-word
     * counters) plan only that read-back and generate the rest inside
     * writeWithPads(); schemes that write without pads (iNVMM, no
     * encryption) keep the default and plan zero.
     * @p requests must hold at least 4 * kMaxWritePadLines entries,
     * and a scheme plans at most kMaxWritePadLines line pads per
     * write (test_scheme_properties checks every scheme id).
     * @return the number of line pads planned (not block requests).
     */
    virtual unsigned planWritePads(uint64_t line_addr,
                                   const StoredLineState &state,
                                   LinePadRequest *requests) const;

    /**
     * Generate the pads a batch of planReadPads() / planWritePads()
     * calls requested — one padForLines() stream over the whole burst
     * through the scheme's engine. @p pads receives @p n 16-byte
     * blocks in request order.
     */
    virtual void generatePads(const LinePadRequest *requests,
                              AesBlock *pads, unsigned n) const;

    /**
     * The scheme's write transition, consuming the line pads
     * planWritePads() planned for this (line, state) pair — one
     * CacheLine per planned line pad, blocks already assembled
     * (assembleLinePads()). Zero-pad schemes ignore @p line_pads.
     */
    virtual WriteResult writeWithPads(uint64_t line_addr,
                                      const CacheLine &plaintext,
                                      StoredLineState &state,
                                      const CacheLine *line_pads) const = 0;

    /**
     * Register the scheme's stats under @p prefix (dotted, e.g.
     * "system.pcm.scheme"). The base registers the tracking-bit
     * overhead; schemes with richer internal counters override and
     * extend. The scheme must outlive every dump of @p reg.
     */
    virtual void registerStats(obs::StatRegistry &reg,
                               const std::string &prefix) const;

    /**
     * The pad engine the scheme draws from (not owned), or null when
     * it has none: the plaintext baselines, and TenantScheme, whose
     * per-tenant engines the serving core's key table owns and
     * registers.
     */
    const OtpEngine *otpEngine() const { return otp_; }

  protected:
    /** @param otp the pad engine (not owned), or null: no pads. */
    explicit EncryptionScheme(const OtpEngine *otp) : otp_(otp) {}

    const OtpEngine &otp() const { return *otp_; }

  private:
    const OtpEngine *otp_;
};

} // namespace deuce

#endif // DEUCE_ENC_SCHEME_HH
