/**
 * @file
 * AES-128: portable key expansion, backend dispatch glue, and the
 * scalar reference backend (FIPS-197, byte-oriented).
 *
 * All lookup tables come from aes_tables.hh and are constexpr, so
 * this TU has no dynamic initialization. MixColumns and its inverse
 * read precomputed GF(2^8) multiple tables instead of multiplying
 * per call.
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

void
invSubBytes(AesBlock &state)
{
    for (auto &b : state) {
        b = kInvSbox[b];
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
invShiftRows(AesBlock &s)
{
    uint8_t t;
    // Row 1: rotate right by 1.
    t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    // Row 2: rotate right by 2.
    t = s[2]; s[2] = s[10]; s[10] = t;
    t = s[6]; s[6] = s[14]; s[14] = t;
    // Row 3: rotate right by 3 (== left by 1).
    t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
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
invMixColumns(AesBlock &s)
{
    for (unsigned c = 0; c < 4; ++c) {
        uint8_t a0 = s[4 * c], a1 = s[4 * c + 1];
        uint8_t a2 = s[4 * c + 2], a3 = s[4 * c + 3];
        s[4 * c]     = static_cast<uint8_t>(
            kMul14[a0] ^ kMul11[a1] ^ kMul13[a2] ^ kMul9[a3]);
        s[4 * c + 1] = static_cast<uint8_t>(
            kMul9[a0] ^ kMul14[a1] ^ kMul11[a2] ^ kMul13[a3]);
        s[4 * c + 2] = static_cast<uint8_t>(
            kMul13[a0] ^ kMul9[a1] ^ kMul14[a2] ^ kMul11[a3]);
        s[4 * c + 3] = static_cast<uint8_t>(
            kMul11[a0] ^ kMul13[a1] ^ kMul9[a2] ^ kMul14[a3]);
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
scalarEncrypt1(const Aes128 &aes, const uint8_t in[16], uint8_t out[16])
{
    const auto &rk = aes.roundKeys();
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

void
scalarDecrypt1(const Aes128 &aes, const uint8_t in[16], uint8_t out[16])
{
    const auto &rk = aes.roundKeys();
    AesBlock state;
    for (unsigned i = 0; i < 16; ++i) {
        state[i] = in[i];
    }
    addRoundKey(state, rk[Aes128::kRounds]);
    invShiftRows(state);
    invSubBytes(state);
    for (unsigned round = Aes128::kRounds - 1; round >= 1; --round) {
        addRoundKey(state, rk[round]);
        invMixColumns(state);
        invShiftRows(state);
        invSubBytes(state);
    }
    addRoundKey(state, rk[0]);
    for (unsigned i = 0; i < 16; ++i) {
        out[i] = state[i];
    }
}

void
scalarEncrypt4(const Aes128 &aes, const uint8_t in[64], uint8_t out[64])
{
    for (unsigned b = 0; b < 4; ++b) {
        scalarEncrypt1(aes, in + 16 * b, out + 16 * b);
    }
}

constexpr AesBackendOps kScalarOps = {
    "scalar",
    scalarEncrypt1,
    scalarDecrypt1,
    scalarEncrypt4,
    nullptr,
    nullptr,
};

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

    if (ops_->expandKeys) {
        ops_->expandKeys(*this, key.data());
    } else {
        // Key expansion (FIPS-197 section 5.2) for Nk = 4, Nr = 10.
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
    computeDecRoundKeys();
}

void
Aes128::setRoundKey(unsigned r, const uint8_t bytes[16])
{
    for (unsigned i = 0; i < 16; ++i) {
        roundKeys_[r][i] = bytes[i];
    }
}

void
Aes128::computeDecRoundKeys()
{
    decRoundKeys_[0] = roundKeys_[kRounds];
    for (unsigned r = 1; r < kRounds; ++r) {
        decRoundKeys_[r] =
            aes_tables::invMixColumnsKey(roundKeys_[kRounds - r]);
    }
    decRoundKeys_[kRounds] = roundKeys_[0];
}

AesBlock
Aes128::encrypt(const AesBlock &plaintext) const
{
    AesBlock out;
    ops_->encrypt1(*this, plaintext.data(), out.data());
    return out;
}

AesBlock
Aes128::decrypt(const AesBlock &ciphertext) const
{
    AesBlock out;
    ops_->decrypt1(*this, ciphertext.data(), out.data());
    return out;
}

void
Aes128::encryptBlocks(const AesBlock *in, AesBlock *out, size_t n) const
{
    // AesBlock arrays are contiguous 16-byte buffers, so a backend's
    // wide hook (when present) can eat the whole run in one call.
    if (n == 0) {
        return;
    }
    if (ops_->encryptMany) {
        ops_->encryptMany(*this, in[0].data(), out[0].data(), n);
        return;
    }
    while (n >= 4) {
        ops_->encrypt4(*this, in[0].data(), out[0].data());
        in += 4;
        out += 4;
        n -= 4;
    }
    for (size_t i = 0; i < n; ++i) {
        ops_->encrypt1(*this, in[i].data(), out[i].data());
    }
}

} // namespace deuce
