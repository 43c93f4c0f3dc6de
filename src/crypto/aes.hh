/**
 * @file
 * AES-128 block cipher (FIPS-197), implemented from scratch.
 *
 * The cipher has two users: the pad generator of counter-mode memory
 * encryption (see OtpEngine) and the integrity layer's
 * Matyas-Meyer-Oseas hash (integrity/merkle.hh). Both only run it
 * forward — counter-mode decryption XORs the same pad — so there is
 * no inverse cipher; the forward cipher is validated against the
 * FIPS-197 and SP 800-38A encryption vectors.
 *
 * Aes128 dispatches at construction to one of several bit-identical
 * backends (scalar reference, AES-NI, VAES, NEON — see aes_backend.hh),
 * so the simulated writeback path can run "as fast as the hardware
 * allows" without changing a single ciphertext byte. The scalar
 * reference is not hardened against timing side channels; the
 * library models an on-chip AES engine, it does not aim to be a
 * production crypto library.
 */

#ifndef DEUCE_CRYPTO_AES_HH
#define DEUCE_CRYPTO_AES_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/aes_backend.hh"

namespace deuce
{

/** A 16-byte AES block. */
using AesBlock = std::array<uint8_t, 16>;

/** A 16-byte AES-128 key. */
using AesKey = std::array<uint8_t, 16>;

/** AES-128 with a fixed key (key schedule precomputed at construction). */
class Aes128
{
  public:
    /** Number of rounds for AES-128. */
    static constexpr unsigned kRounds = 10;

    /**
     * Expand the key schedule for @p key and bind the instance to a
     * backend. Auto (the default) resolves through defaultAesBackend()
     * — i.e. the --aes-backend selection, falling back to the
     * fastest backend this host supports.
     */
    explicit Aes128(const AesKey &key,
                    AesBackendKind backend = AesBackendKind::Auto);

    /** Encrypt one 16-byte block (a one-block encryptBlocks()). */
    AesBlock encrypt(const AesBlock &plaintext) const;

    /**
     * Encrypt @p n independent blocks in one backend call, pipelining
     * rounds across blocks (eight in flight for AES-NI, sixteen for
     * VAES, four for NEON). Bit-identical to n calls of encrypt();
     * @p in and @p out may alias only exactly.
     */
    void encryptBlocks(const AesBlock *in, AesBlock *out,
                       size_t n) const;

    /** Canonical name of the backend this instance dispatches to. */
    const char *backendName() const { return ops_->name; }

    /** Concrete backend kind this instance dispatches to. */
    AesBackendKind backendKind() const { return kind_; }

    /**
     * Round keys, rk[0..kRounds], 16 bytes each (backend-internal;
     * exposed so backend TUs can read the schedule).
     */
    const std::array<std::array<uint8_t, 16>, kRounds + 1> &
    roundKeys() const
    {
        return roundKeys_;
    }

  private:
    /** Round keys: (kRounds + 1) x 16 bytes. */
    std::array<std::array<uint8_t, 16>, kRounds + 1> roundKeys_;

    /** Resolved backend. */
    AesBackendKind kind_;
    const AesBackendOps *ops_;
};

} // namespace deuce

#endif // DEUCE_CRYPTO_AES_HH
