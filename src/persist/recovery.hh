/**
 * @file
 * RecoveryEngine: replay a CrashImage into a consistent, pad-safe
 * memory state.
 *
 * Recovery protocol (per line, in address order):
 *
 *  1. Verify the line's Merkle path over the durable counters. A
 *     failure means the crash tore a counter flush (or an attacker
 *     modified the metadata): the stored counter is untrusted.
 *  2. Check the line's MAC at the durable effective counter. The MAC
 *     was written atomically with the data under the *live* counter,
 *     so a match proves the durable counter is current.
 *  3. On mismatch, search candidate counters in the policy's
 *     worst-case window (durable+1 .. durable+worstCaseWindow(), see
 *     persist_config.hh) — a bounded Osiris-style reconstruction. A
 *     MAC match recovers the live counter: the line is decrypted
 *     there and immediately rewritten, advancing to a never-used
 *     counter (OTP re-encryption), closing the pad-reuse window the
 *     stale counter opened.
 *  4. No match within the window (ciphertext corrupt, or per-block
 *     counters whose split the search cannot reconstruct): the line's
 *     data is lost. Its counters are advanced past the window so no
 *     future write can reuse a pad, and the loss is reported.
 *
 * Without integrity metadata there is nothing to check: stale lines
 * are resumed silently, and the report quantifies the resulting pad
 * reuse from the image's ground truth — the attack Yao &
 * Venkataramani describe.
 */

#ifndef DEUCE_PERSIST_RECOVERY_HH
#define DEUCE_PERSIST_RECOVERY_HH

#include <cstdint>
#include <map>

#include "enc/scheme.hh"
#include "pcm/config.hh"
#include "persist/crash.hh"

namespace deuce
{

/** What recovery found and what it cost. */
struct RecoveryReport
{
    /** Lines in the durable image. */
    uint64_t linesExamined = 0;

    /** MAC and tree consistent at the durable counter. */
    uint64_t cleanLines = 0;

    /** Installed but never written: nothing to verify. */
    uint64_t untrackedLines = 0;

    /** Counter-atomicity violations detected (stale durable counter). */
    uint64_t staleLines = 0;

    /** Stale lines whose live counter the MAC search reconstructed
     *  and which were re-encrypted at a fresh counter. */
    uint64_t repairedLines = 0;

    /** Stale lines beyond the search window: data lost, counters
     *  advanced past the window. */
    uint64_t unrecoverableLines = 0;

    /** Lines whose Merkle path failed verification (torn flush /
     *  metadata tampering); rebuilt during adoption. */
    uint64_t tornPathLines = 0;

    /** Integrity disabled: stale lines resumed silently. Every one
     *  is a pad-reuse exposure. */
    uint64_t undetectedStaleLines = 0;

    /** Total counter staleness across detected stale lines — the
     *  number of pads a naive resume would have replayed. */
    uint64_t padReuseWindow = 0;

    /** Largest single-line counter gap seen. */
    uint64_t maxStaleGap = 0;

    /** MAC evaluations performed. */
    uint64_t macComputations = 0;

    /** Metadata-array reads (tree path fetches). */
    uint64_t metaReads = 0;

    /** Metadata-array writes (counter/tree rebuilds). */
    uint64_t metaWrites = 0;

    /** Modeled recovery time (deterministic arithmetic). */
    double recoveryNs = 0.0;
};

/**
 * One repaired line's re-encryption cell traffic. Repair decrypts at
 * the reconstructed live counter and immediately rewrites at a fresh
 * one — a real array write whose flips age (and can trip) worn cells,
 * so the adopting system must drive it through its fault model.
 */
struct RecoveryRepair
{
    /** XOR of pre- and post-repair stored images (logical bits). */
    CacheLine dataDiff;

    /** Post-repair stored image (logical bits). */
    CacheLine newData;
};

/** Recovered state plus the report. */
struct RecoveryOutcome
{
    /** Post-recovery per-line state, ready to adopt. */
    std::map<uint64_t, StoredLineState> lines;

    /** Re-encryption diffs of the repaired lines, keyed like lines. */
    std::map<uint64_t, RecoveryRepair> repairs;

    RecoveryReport report;
};

/** Replays a durable image through the recovery protocol. */
class RecoveryEngine
{
  public:
    /**
     * @param scheme the encryption scheme the crashed system ran
     *               (decrypt/re-encrypt of repaired lines)
     * @param pcm    device parameters for the recovery-time model
     */
    explicit RecoveryEngine(const EncryptionScheme &scheme,
                            const PcmConfig &pcm = PcmConfig{});

    /** Run the protocol over @p image. */
    RecoveryOutcome run(const CrashImage &image) const;

  private:
    const EncryptionScheme &scheme_;
    PcmConfig pcm_;
};

} // namespace deuce

#endif // DEUCE_PERSIST_RECOVERY_HH
