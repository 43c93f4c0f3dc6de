/**
 * @file
 * AES-128: portable key expansion, backend dispatch glue, and the
 * scalar reference backend (FIPS-197, byte-oriented).
 *
 * All lookup tables come from aes_tables.hh and are constexpr, so
 * this TU has no dynamic initialization. MixColumns reads
 * precomputed GF(2^8) multiple tables instead of multiplying per
 * call.
 */

#include "crypto/aes.hh"

#include "crypto/aes_tables.hh"

namespace deuce
{

namespace
{

using namespace aes_tables;

void
subBytes(AesBlock &state)
{
    for (auto &b : state) {
        b = kSbox[b];
    }
}

// State layout follows FIPS-197: byte index = row + 4 * column, i.e.
// the block bytes fill the 4x4 state column by column.

void
shiftRows(AesBlock &s)
{
    uint8_t t;
    // Row 1: rotate left by 1.
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: rotate left by 2.
    t = s[2]; s[2] = s[10]; s[10] = t;
    t = s[6]; s[6] = s[14]; s[14] = t;
    // Row 3: rotate left by 3 (== right by 1).
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void
mixColumns(AesBlock &s)
{
    for (unsigned c = 0; c < 4; ++c) {
        uint8_t a0 = s[4 * c], a1 = s[4 * c + 1];
        uint8_t a2 = s[4 * c + 2], a3 = s[4 * c + 3];
        s[4 * c]     = static_cast<uint8_t>(
            kMul2[a0] ^ kMul3[a1] ^ a2 ^ a3);
        s[4 * c + 1] = static_cast<uint8_t>(
            a0 ^ kMul2[a1] ^ kMul3[a2] ^ a3);
        s[4 * c + 2] = static_cast<uint8_t>(
            a0 ^ a1 ^ kMul2[a2] ^ kMul3[a3]);
        s[4 * c + 3] = static_cast<uint8_t>(
            kMul3[a0] ^ a1 ^ a2 ^ kMul2[a3]);
    }
}

void
addRoundKey(AesBlock &s, const std::array<uint8_t, 16> &rk)
{
    for (unsigned i = 0; i < 16; ++i) {
        s[i] ^= rk[i];
    }
}

void
scalarEncrypt(const Aes128 &aes, const uint8_t *in, uint8_t *out,
              std::size_t nblocks)
{
    const auto &rk = aes.roundKeys();
    for (std::size_t b = 0; b < nblocks; ++b, in += 16, out += 16) {
        AesBlock state;
        for (unsigned i = 0; i < 16; ++i) {
            state[i] = in[i];
        }
        addRoundKey(state, rk[0]);
        for (unsigned round = 1; round < Aes128::kRounds; ++round) {
            subBytes(state);
            shiftRows(state);
            mixColumns(state);
            addRoundKey(state, rk[round]);
        }
        subBytes(state);
        shiftRows(state);
        addRoundKey(state, rk[Aes128::kRounds]);
        for (unsigned i = 0; i < 16; ++i) {
            out[i] = state[i];
        }
    }
}

constexpr AesBackendOps kScalarOps = {"scalar", scalarEncrypt};

} // namespace

/** Scalar reference ops (used directly by aes_backend.cc). */
const AesBackendOps *
scalarBackendOps()
{
    return &kScalarOps;
}

Aes128::Aes128(const AesKey &key, AesBackendKind backend)
{
    // Auto defers to the process-wide selection (--aes-backend);
    // explicit kinds only resolve availability.
    kind_ = (backend == AesBackendKind::Auto)
                ? defaultAesBackend()
                : resolveAesBackend(backend);
    ops_ = aesBackendOps(kind_);

    // Key expansion (FIPS-197 section 5.2) for Nk = 4, Nr = 10: the
    // one schedule every backend reads.
    uint8_t w[4 * (kRounds + 1)][4];
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = 0; j < 4; ++j) {
            w[i][j] = key[4 * i + j];
        }
    }
    uint8_t rcon = 0x01;
    for (unsigned i = 4; i < 4 * (kRounds + 1); ++i) {
        uint8_t temp[4] = {
            w[i - 1][0], w[i - 1][1], w[i - 1][2], w[i - 1][3]
        };
        if (i % 4 == 0) {
            // RotWord then SubWord then Rcon.
            uint8_t first = temp[0];
            temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ rcon);
            temp[1] = kSbox[temp[2]];
            temp[2] = kSbox[temp[3]];
            temp[3] = kSbox[first];
            rcon = xtime(rcon);
        }
        for (unsigned j = 0; j < 4; ++j) {
            w[i][j] = static_cast<uint8_t>(w[i - 4][j] ^ temp[j]);
        }
    }
    for (unsigned r = 0; r <= kRounds; ++r) {
        for (unsigned i = 0; i < 4; ++i) {
            for (unsigned j = 0; j < 4; ++j) {
                roundKeys_[r][4 * i + j] = w[4 * r + i][j];
            }
        }
    }
}

AesBlock
Aes128::encrypt(const AesBlock &plaintext) const
{
    AesBlock out;
    ops_->encrypt(*this, plaintext.data(), out.data(), 1);
    return out;
}

void
Aes128::encryptBlocks(const AesBlock *in, AesBlock *out, size_t n) const
{
    // AesBlock arrays are contiguous 16-byte buffers, so the backend
    // eats the whole run in one call. An empty run may come with null
    // pointers, which in[0] must not touch.
    if (n == 0) {
        return;
    }
    ops_->encrypt(*this, in[0].data(), out[0].data(), n);
}

} // namespace deuce
