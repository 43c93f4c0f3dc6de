/**
 * @file
 * Bit-identity tests for the batched write pipeline: for every scheme
 * and batch size, MemorySystem::writeBatch must produce exactly the
 * same outcomes, stored states, and counter signature as the same
 * trace replayed one write() at a time.
 */

#include <gtest/gtest.h>

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

/** Deterministic pseudo-random initial contents per line. */
CacheLine
initialContents(uint64_t addr)
{
    CacheLine line;
    uint64_t x = addr * 0x9e3779b97f4a7c15ull + 0x1234;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line.limb(i) = x;
    }
    return line;
}

/**
 * A write trace with partial-word updates (so the tracking-bit
 * schemes exercise their word paths), repeated addresses (so lines
 * cross epoch boundaries), and enough length that bursts of any
 * tested size contain duplicates.
 */
std::vector<WriteRequest>
makeTrace(unsigned writes, unsigned pool, uint64_t seed)
{
    Rng rng(seed);
    std::vector<CacheLine> current(pool);
    std::vector<bool> touched(pool, false);
    std::vector<WriteRequest> trace;
    trace.reserve(writes);
    for (unsigned i = 0; i < writes; ++i) {
        unsigned a = static_cast<unsigned>(rng.nextBounded(pool));
        uint64_t addr = uint64_t{a} * 3 + 1;
        if (!touched[a]) {
            current[a] = initialContents(addr);
            touched[a] = true;
        }
        CacheLine data = current[a];
        unsigned words = 1 + static_cast<unsigned>(rng.nextBounded(8));
        for (unsigned w = 0; w < words; ++w) {
            unsigned limb = static_cast<unsigned>(rng.nextBounded(8));
            data.limb(limb) ^= rng.next() &
                               (rng.nextBool(0.5) ? 0xffffull
                                                  : ~uint64_t{0});
        }
        current[a] = data;
        trace.push_back(WriteRequest{addr, data});
    }
    return trace;
}

struct Fixture
{
    std::unique_ptr<OtpEngine> otp;
    std::unique_ptr<EncryptionScheme> scheme;
    std::unique_ptr<MemorySystem> system;

    Fixture(const std::string &scheme_id, bool fast,
            const WearLevelingConfig &wl, const FaultConfig &fault,
            const PersistConfig &persist,
            const PcmConfig &pcm = PcmConfig{})
    {
        if (fast) {
            otp = std::make_unique<FastOtpEngine>(0xfeed);
        } else {
            otp = makeAesOtpEngine(0xfeed);
        }
        scheme = makeScheme(scheme_id, *otp);
        system = std::make_unique<MemorySystem>(
            *scheme, wl, pcm, initialContents, fault, persist);
    }
};

void
expectOutcomeEq(const WriteOutcome &a, const WriteOutcome &b,
                const std::string &what)
{
    EXPECT_EQ(a.result.dataDiff, b.result.dataDiff) << what;
    EXPECT_EQ(a.result.dataFlips, b.result.dataFlips) << what;
    EXPECT_EQ(a.result.metaFlips, b.result.metaFlips) << what;
    EXPECT_EQ(a.result.modifiedDiff, b.result.modifiedDiff) << what;
    EXPECT_EQ(a.result.flipDiff, b.result.flipDiff) << what;
    EXPECT_EQ(a.result.cosetDiff, b.result.cosetDiff) << what;
    EXPECT_EQ(a.slots, b.slots) << what;
    EXPECT_EQ(a.writeLatencyNs, b.writeLatencyNs) << what;
    EXPECT_EQ(a.flipFraction, b.flipFraction) << what;
    EXPECT_EQ(a.faultCorrectedCells, b.faultCorrectedCells) << what;
    EXPECT_EQ(a.faultUncorrectable, b.faultUncorrectable) << what;
    EXPECT_EQ(a.persistMetaWrites, b.persistMetaWrites) << what;
}

/**
 * Replay @p trace through two systems — one write() at a time and in
 * writeBatch() bursts of @p batch — and require bit-identical
 * outcomes, stored states, and counter signatures.
 */
void
expectBatchedMatchesSequential(
    const std::string &scheme_id, unsigned batch, bool fast = true,
    const WearLevelingConfig &wl = WearLevelingConfig{},
    const FaultConfig &fault = FaultConfig{},
    const PersistConfig &persist = PersistConfig{},
    unsigned writes = 400, unsigned pool = 29,
    const PcmConfig &pcm = PcmConfig{})
{
    SCOPED_TRACE(scheme_id + " batch=" + std::to_string(batch));
    std::vector<WriteRequest> trace =
        makeTrace(writes, pool, 0xabc + batch);

    Fixture seq(scheme_id, fast, wl, fault, persist, pcm);
    Fixture bat(scheme_id, fast, wl, fault, persist, pcm);

    std::vector<WriteOutcome> seq_out;
    seq_out.reserve(trace.size());
    for (const WriteRequest &w : trace) {
        seq_out.push_back(seq.system->write(w.lineAddr, w.data));
    }

    std::vector<WriteOutcome> bat_out;
    bat_out.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); i += batch) {
        std::size_t n = std::min<std::size_t>(batch,
                                              trace.size() - i);
        std::span<const WriteOutcome> out = bat.system->writeBatch(
            std::span<const WriteRequest>(trace.data() + i, n));
        ASSERT_EQ(out.size(), n);
        // The span aliases the system's arena (reused by the next
        // call), so copy out before the next burst.
        bat_out.insert(bat_out.end(), out.begin(), out.end());
    }

    ASSERT_EQ(seq_out.size(), bat_out.size());
    for (std::size_t i = 0; i < seq_out.size(); ++i) {
        expectOutcomeEq(seq_out[i], bat_out[i],
                        "write " + std::to_string(i));
    }

    for (unsigned a = 0; a < pool; ++a) {
        uint64_t addr = uint64_t{a} * 3 + 1;
        ASSERT_EQ(seq.system->contains(addr),
                  bat.system->contains(addr));
        if (seq.system->contains(addr)) {
            EXPECT_EQ(seq.system->storedState(addr),
                      bat.system->storedState(addr))
                << "line " << addr;
        }
    }

    EXPECT_EQ(seq.system->counters().deterministicSignature(),
              bat.system->counters().deterministicSignature());
}

/** Every registered scheme plus the ones outside allSchemeIds(). */
std::vector<std::string>
schemesUnderTest()
{
    std::vector<std::string> ids = allSchemeIds();
    ids.push_back("addrpad");
    ids.push_back("invmm");
    ids.push_back("perword");
    ids.push_back("vcc");
    ids.push_back("vcc-mlc");
    return ids;
}

TEST(WriteBatch, BitIdenticalAcrossBatchSizesAllSchemes)
{
    for (const std::string &id : schemesUnderTest()) {
        for (unsigned batch : {1u, 7u, 64u}) {
            expectBatchedMatchesSequential(id, batch);
        }
    }
}

TEST(WriteBatch, AesEngineBatchedMatchesSequential)
{
    // The real cipher (auto backend — VAES/AES-NI/NEON where the host
    // has them) through the batched pad stream: catches any pad
    // assembly or ordering bug the fast engine might mask.
    for (const char *id :
         {"encr", "deuce", "deuce-fnw", "dyndeuce", "ble-deuce",
          "vcc"}) {
        expectBatchedMatchesSequential(id, 64, /*fast=*/false);
    }
}

TEST(WriteBatch, MlcCellTechGrid)
{
    // MLC2 stretches writeLatencyNs per slot and charges transition
    // energy; both are derived from the committed diff, so the batch
    // path must reproduce them exactly for every scheme family that
    // plans pads ahead — including both VCC cost models, whose pad
    // selection feeds back into the diff being priced.
    PcmConfig mlc;
    mlc.cellTech = CellTech::MLC2;
    for (const char *id :
         {"encr", "deuce", "vcc", "vcc-mlc"}) {
        for (unsigned batch : {1u, 7u, 64u}) {
            for (const PcmConfig &pcm : {PcmConfig{}, mlc}) {
                expectBatchedMatchesSequential(
                    id, batch, true, WearLevelingConfig{},
                    FaultConfig{}, PersistConfig{}, 400, 29, pcm);
            }
        }
    }
}

TEST(WriteBatch, VccDuplicateHeavyMlcBursts)
{
    // Repeated addresses in one burst force the duplicate-split path;
    // VCC's aux word changes on every rewrite, so a stale burst-entry
    // snapshot would corrupt both selection bits and MLC pricing.
    PcmConfig mlc;
    mlc.cellTech = CellTech::MLC2;
    for (const char *id : {"vcc", "vcc-mlc"}) {
        expectBatchedMatchesSequential(id, 64, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, PersistConfig{},
                                       /*writes=*/300, /*pool=*/3, mlc);
    }
}

TEST(WriteBatch, RotationAndVwlConfigs)
{
    // Rotation moves the physical wear positions; the batched wear
    // landing (cross-line kernels over pre-rotated diffs) must agree
    // with the per-write path under every rotation policy.
    for (WearLevelingConfig::Rotation rot :
         {WearLevelingConfig::Rotation::Hwl,
          WearLevelingConfig::Rotation::HwlHashed,
          WearLevelingConfig::Rotation::PerLine}) {
        WearLevelingConfig wl;
        wl.rotation = rot;
        wl.gapWriteInterval = 16;
        expectBatchedMatchesSequential("deuce", 16, true, wl);
        expectBatchedMatchesSequential("dyndeuce", 16, true, wl);
    }
    WearLevelingConfig no_vwl;
    no_vwl.verticalEnabled = false;
    expectBatchedMatchesSequential("deuce", 16, true, no_vwl);
}

TEST(WriteBatch, SecurityRefreshEngine)
{
    WearLevelingConfig wl;
    wl.engine = WearLevelingConfig::Engine::SecurityRefresh;
    wl.numLines = 1 << 10;
    wl.gapWriteInterval = 8;
    expectBatchedMatchesSequential("deuce", 32, true, wl);
}

TEST(WriteBatch, FaultModelBatched)
{
    FaultConfig fault;
    fault.enabled = true;
    fault.meanEndurance = 600;
    fault.enduranceSigma = 0.25;
    expectBatchedMatchesSequential("deuce", 16, true,
                                   WearLevelingConfig{}, fault);
    expectBatchedMatchesSequential("encr", 16, true,
                                   WearLevelingConfig{}, fault);
}

TEST(WriteBatch, PersistModelBatched)
{
    for (PersistConfig::Policy policy :
         {PersistConfig::Policy::WriteThrough,
          PersistConfig::Policy::Lazy,
          PersistConfig::Policy::BatteryBacked}) {
        PersistConfig persist;
        persist.enabled = true;
        persist.policy = policy;
        persist.flushEpoch = 16;
        expectBatchedMatchesSequential("deuce", 16, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, persist);
    }
}

TEST(WriteBatch, DuplicateHeavyBursts)
{
    // A tiny pool makes nearly every burst contain repeats of the
    // same line, forcing the duplicate-split path: the second write
    // of an address must plan its pads against post-first-write
    // state, not the burst-entry snapshot.
    for (const char *id : {"deuce", "dyndeuce", "encr"}) {
        expectBatchedMatchesSequential(id, 64, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, PersistConfig{},
                                       /*writes=*/300, /*pool=*/3);
    }
}

TEST(WriteBatch, LongDuplicateFreeChunks)
{
    // A wide pool makes chunks run ~90 lines before the first repeated
    // address (the tests above, over 29 lines, cut them at ~7), so
    // chunk pads come from one long stream and the wear lands through
    // the wide cross-line kernel paths. Bursts of 200 also exceed the
    // 64 lines the serving core and the benches use.
    for (const char *id : {"deuce", "dyndeuce", "ble", "vcc"}) {
        expectBatchedMatchesSequential(id, 200, true,
                                       WearLevelingConfig{},
                                       FaultConfig{}, PersistConfig{},
                                       /*writes=*/600, /*pool=*/5000);
    }
}

TEST(WriteBatch, EmptyBatchIsNoOp)
{
    Fixture f("deuce", true, WearLevelingConfig{}, FaultConfig{},
              PersistConfig{});
    std::string before = f.system->counters().deterministicSignature();
    std::span<const WriteOutcome> out =
        f.system->writeBatch(std::span<const WriteRequest>{});
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(f.system->counters().deterministicSignature(), before);
}

TEST(WriteBatch, SingleRequestBatchMatchesWrite)
{
    std::vector<WriteRequest> trace = makeTrace(40, 5, 0x77);
    Fixture seq("deuce", true, WearLevelingConfig{}, FaultConfig{},
                PersistConfig{});
    Fixture bat("deuce", true, WearLevelingConfig{}, FaultConfig{},
                PersistConfig{});
    for (const WriteRequest &w : trace) {
        WriteOutcome a = seq.system->write(w.lineAddr, w.data);
        std::span<const WriteOutcome> b =
            bat.system->writeBatch(std::span<const WriteRequest>(&w, 1));
        ASSERT_EQ(b.size(), 1u);
        expectOutcomeEq(a, b[0], "single-request batch");
    }
    EXPECT_EQ(seq.system->counters().deterministicSignature(),
              bat.system->counters().deterministicSignature());
}

} // namespace
} // namespace deuce
