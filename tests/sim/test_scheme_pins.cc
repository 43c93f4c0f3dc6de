/**
 * @file
 * Literal pins for every scheme: a fixed-seed trace is replayed
 * through MemorySystem::write() and through writeBatch(64), and the
 * counter signature, every stored line state and every read-back
 * plaintext must hash to the recorded values.
 *
 * test_write_batch proves the two paths agree with each other; these
 * pins prove neither path moved. A shift shared by both (a scheme's
 * encode, its pad choice, the commit sequence) fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cache_line.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"

namespace deuce
{
namespace
{

constexpr unsigned kWrites = 1000;
constexpr unsigned kPool = 23;

uint64_t
lineAddrOf(unsigned slot)
{
    return uint64_t{slot} * 5 + 2;
}

/** Deterministic pseudo-random initial contents per line. */
CacheLine
initialContents(uint64_t addr)
{
    CacheLine line;
    uint64_t x = addr * 0x9e3779b97f4a7c15ull + 0x51ed;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line.limb(i) = x;
    }
    return line;
}

/**
 * Partial-word updates over a small pool: every line is rewritten
 * ~40 times, so the DEUCE family crosses epoch boundaries and bursts
 * of 64 always carry repeated addresses.
 */
std::vector<WriteRequest>
makeTrace()
{
    Rng rng(0x5eed1e55);
    std::vector<CacheLine> current(kPool);
    std::vector<bool> touched(kPool, false);
    std::vector<WriteRequest> trace;
    trace.reserve(kWrites);
    for (unsigned i = 0; i < kWrites; ++i) {
        unsigned a = static_cast<unsigned>(rng.nextBounded(kPool));
        if (!touched[a]) {
            current[a] = initialContents(lineAddrOf(a));
            touched[a] = true;
        }
        CacheLine data = current[a];
        unsigned edits = 1 + static_cast<unsigned>(rng.nextBounded(6));
        for (unsigned e = 0; e < edits; ++e) {
            unsigned limb = static_cast<unsigned>(rng.nextBounded(8));
            data.limb(limb) ^= rng.next() &
                               (rng.nextBool(0.6) ? 0xffffull
                                                  : ~uint64_t{0});
        }
        current[a] = data;
        trace.push_back(WriteRequest{lineAddrOf(a), data});
    }
    return trace;
}

/** FNV-1a over 64-bit words. */
struct Hasher
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const CacheLine &line)
    {
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            add(line.limb(i));
        }
    }

    void
    add(const std::string &s)
    {
        for (char c : s) {
            add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
        }
    }
};

/** The three pinned digests of one replay. */
struct Digest
{
    uint64_t signature;
    uint64_t states;
    uint64_t plaintexts;
};

Digest
replay(const std::string &id, const PcmConfig &pcm, bool batched)
{
    FastOtpEngine otp(0x0dd5eed);
    std::unique_ptr<EncryptionScheme> scheme = makeScheme(id, otp);
    MemorySystem system(*scheme, WearLevelingConfig{}, pcm,
                        initialContents);

    std::vector<WriteRequest> trace = makeTrace();
    if (batched) {
        for (std::size_t i = 0; i < trace.size(); i += 64) {
            std::size_t n = std::min<std::size_t>(64, trace.size() - i);
            system.writeBatch(
                std::span<const WriteRequest>(trace.data() + i, n));
        }
    } else {
        for (const WriteRequest &w : trace) {
            system.write(w.lineAddr, w.data);
        }
    }

    Digest d{};
    Hasher sig;
    sig.add(system.counters().deterministicSignature());
    d.signature = sig.h;

    Hasher states;
    for (unsigned a = 0; a < kPool; ++a) {
        const StoredLineState &s = system.storedState(lineAddrOf(a));
        states.add(s.data);
        states.add(s.counter);
        for (uint64_t c : s.blockCounters) {
            states.add(c);
        }
        states.add(s.modifiedBits);
        states.add(s.flipBits);
        states.add(uint64_t{s.modeBit});
        states.add(s.cosetBits);
    }
    d.states = states.h;

    Hasher plain;
    for (unsigned a = 0; a < kPool; ++a) {
        plain.add(system.read(lineAddrOf(a)));
    }
    d.plaintexts = plain.h;
    return d;
}

struct Pin
{
    const char *scheme;
    CellTech tech;
    Digest digest;
};

// Recorded from the pre-collapse write paths (per-scheme write() and
// the separate batch commit loop); must never be edited to follow a
// code change.
constexpr Pin kPins[] = {
    {"nodcw", CellTech::SLC,
     {0x49ee0937080555abull, 0x5cee29a143a0829bull, 0x95ce34e3ca318d7bull}},
    {"nofnw", CellTech::SLC,
     {0x05245f367dd84a66ull, 0xc113bc56bdd95f6bull, 0x95ce34e3ca318d7bull}},
    {"encr", CellTech::SLC,
     {0xc55da0ea302d5598ull, 0x1c97c5c42887c69eull, 0x95ce34e3ca318d7bull}},
    {"encr-fnw", CellTech::SLC,
     {0x6372f3d742c60c3eull, 0xe47ea72d1461d69eull, 0x95ce34e3ca318d7bull}},
    {"ble", CellTech::SLC,
     {0x2425cc12f9b4afd7ull, 0x9d8098e1bf2cb56full, 0x95ce34e3ca318d7bull}},
    {"ble-deuce", CellTech::SLC,
     {0xc14fb141ea06769cull, 0xd5fe1582b2e9eb51ull, 0x95ce34e3ca318d7bull}},
    {"deuce", CellTech::SLC,
     {0xab86410fe46707a0ull, 0x5c58d67e9759f717ull, 0x95ce34e3ca318d7bull}},
    {"deuce-fnw", CellTech::SLC,
     {0xbde97d6c514a6adaull, 0xa374cf69a01f5dd0ull, 0x95ce34e3ca318d7bull}},
    {"deuce-1b", CellTech::SLC,
     {0x1f289a15fb9d5008ull, 0x273b6163426347fbull, 0x95ce34e3ca318d7bull}},
    {"deuce-e8", CellTech::SLC,
     {0x935ade72ad502cd7ull, 0xd6b57b60c5ca6bebull, 0x95ce34e3ca318d7bull}},
    {"dyndeuce", CellTech::SLC,
     {0xf203ee978d604c83ull, 0xa8db7929184cd523ull, 0x95ce34e3ca318d7bull}},
    {"addrpad", CellTech::SLC,
     {0x49ee0937080555abull, 0x882ac4bf2f21bc8bull, 0x95ce34e3ca318d7bull}},
    {"invmm", CellTech::SLC,
     {0xd243ee772c57f556ull, 0x7c98df3648a15ecaull, 0x95ce34e3ca318d7bull}},
    {"perword", CellTech::SLC,
     {0x5b7e111f7055c51cull, 0x266d62a2cdedf333ull, 0x95ce34e3ca318d7bull}},
    {"vcc", CellTech::SLC,
     {0x792d86809e827ee2ull, 0xbd1a5b41702846b5ull, 0x95ce34e3ca318d7bull}},
    {"vcc-mlc", CellTech::SLC,
     {0x744b5b9ef8d0c9dcull, 0xbee1b58de8335b85ull, 0x95ce34e3ca318d7bull}},
    {"deuce", CellTech::MLC2,
     {0x2f838c4199318b2aull, 0x5c58d67e9759f717ull, 0x95ce34e3ca318d7bull}},
    {"vcc", CellTech::MLC2,
     {0x754569974ce96836ull, 0xbd1a5b41702846b5ull, 0x95ce34e3ca318d7bull}},
    {"vcc-mlc", CellTech::MLC2,
     {0x9bc0874b062bb14cull, 0xbee1b58de8335b85ull, 0x95ce34e3ca318d7bull}},
};

std::string
pinLine(const std::string &id, CellTech tech, const Digest &d)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"%s\", CellTech::%s, {0x%016" PRIx64
                  "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}},",
                  id.c_str(), tech == CellTech::SLC ? "SLC" : "MLC2",
                  d.signature, d.states, d.plaintexts);
    return buf;
}

TEST(SchemePins, EverySchemeMatchesRecordedDigests)
{
    const std::vector<std::pair<std::string, CellTech>> cases = {
        {"nodcw", CellTech::SLC},     {"nofnw", CellTech::SLC},
        {"encr", CellTech::SLC},      {"encr-fnw", CellTech::SLC},
        {"ble", CellTech::SLC},       {"ble-deuce", CellTech::SLC},
        {"deuce", CellTech::SLC},     {"deuce-fnw", CellTech::SLC},
        {"deuce-1b", CellTech::SLC},  {"deuce-e8", CellTech::SLC},
        {"dyndeuce", CellTech::SLC},  {"addrpad", CellTech::SLC},
        {"invmm", CellTech::SLC},     {"perword", CellTech::SLC},
        {"vcc", CellTech::SLC},       {"vcc-mlc", CellTech::SLC},
        {"deuce", CellTech::MLC2},    {"vcc", CellTech::MLC2},
        {"vcc-mlc", CellTech::MLC2},
    };
    for (const auto &[id, tech] : cases) {
        PcmConfig pcm;
        pcm.cellTech = tech;
        const Pin *pin = nullptr;
        for (const Pin &p : kPins) {
            if (id == p.scheme && tech == p.tech) {
                pin = &p;
            }
        }
        for (bool batched : {false, true}) {
            Digest d = replay(id, pcm, batched);
            SCOPED_TRACE(pinLine(id, tech, d) +
                         (batched ? " writeBatch(64)" : " write()"));
            if (pin == nullptr) {
                ADD_FAILURE() << "no recorded pin";
                continue;
            }
            EXPECT_EQ(d.signature, pin->digest.signature);
            EXPECT_EQ(d.states, pin->digest.states);
            EXPECT_EQ(d.plaintexts, pin->digest.plaintexts);
        }
    }
}

} // namespace
} // namespace deuce
