/**
 * @file
 * Tests for the persist/ subsystem: persistence policies, crash
 * injection, the recovery protocol, and the off-by-default gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "obs/registry.hh"
#include "persist/crash.hh"
#include "persist/persist_domain.hh"
#include "persist/persistence_policy.hh"
#include "persist/recovery.hh"
#include "sim/memory_system.hh"
#include "sim/stats_dump.hh"

namespace deuce
{
namespace
{

PersistConfig
persistConfig(PersistConfig::Policy policy, unsigned flush_epoch = 8,
              bool integrity = true)
{
    PersistConfig cfg;
    cfg.enabled = true;
    cfg.policy = policy;
    cfg.flushEpoch = flush_epoch;
    cfg.queueDepth = 4;
    cfg.integrity = integrity;
    cfg.numLines = 64;
    return cfg;
}

/** A persist-enabled encr memory over 64 lines. */
struct Fixture
{
    FastOtpEngine otp{5};
    std::unique_ptr<EncryptionScheme> scheme;
    std::unique_ptr<MemorySystem> memory;

    explicit Fixture(const PersistConfig &persist,
                     const char *scheme_id = "encr")
    {
        scheme = makeScheme(scheme_id, otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        memory = std::make_unique<MemorySystem>(
            *scheme, wl, PcmConfig{},
            [](uint64_t) { return CacheLine{}; }, FaultConfig{},
            persist);
    }
};

// --- policies -------------------------------------------------------

TEST(PersistPolicy, WindowsPerPolicy)
{
    auto wt = makePersistencePolicy(
        persistConfig(PersistConfig::Policy::WriteThrough));
    auto lazy = makePersistencePolicy(
        persistConfig(PersistConfig::Policy::Lazy, 32));
    auto battery = makePersistencePolicy(
        persistConfig(PersistConfig::Policy::BatteryBacked));

    EXPECT_EQ(wt->worstCaseWindow(), 0u);
    EXPECT_EQ(lazy->worstCaseWindow(), 32u);
    EXPECT_EQ(battery->worstCaseWindow(), 0u);
    EXPECT_FALSE(wt->drainsOnPowerLoss());
    EXPECT_FALSE(lazy->drainsOnPowerLoss());
    EXPECT_TRUE(battery->drainsOnPowerLoss());
}

TEST(PersistPolicy, LazyFlushesEveryEpochInAddressOrder)
{
    auto policy = makePersistencePolicy(
        persistConfig(PersistConfig::Policy::Lazy, 4));

    std::vector<uint64_t> flushed;
    policy->onCounterWrite(9, flushed);
    policy->onCounterWrite(3, flushed);
    policy->onCounterWrite(9, flushed); // coalesces
    EXPECT_TRUE(flushed.empty());
    EXPECT_EQ(policy->dirtyCount(), 2u);

    policy->onCounterWrite(7, flushed); // 4th write: epoch boundary
    EXPECT_EQ(flushed, (std::vector<uint64_t>{3, 7, 9}));
    EXPECT_EQ(policy->dirtyCount(), 0u);
}

TEST(PersistPolicy, LazyPendingSetIsSortedDistinctAndTearsLowest)
{
    // The lazy dirty set is a hash set; everything read out of it is
    // sorted, so pending lines, the volatile count and the torn line
    // of a mid-flush crash depend only on which lines were written.
    Fixture f(persistConfig(PersistConfig::Policy::Lazy, 1000));
    Rng rng(41);
    CacheLine data;
    std::set<uint64_t> written;
    for (int i = 0; i < 200; ++i) {
        uint64_t addr = rng.nextBounded(48);
        data.setField(0, 64, rng.next());
        f.memory->write(addr, data);
        written.insert(addr);
    }
    ASSERT_LT(written.size(), 200u); // the stream repeats lines

    const PersistDomain &domain = *f.memory->persist();
    std::vector<uint64_t> pending = domain.policy().pendingLines();
    EXPECT_TRUE(std::is_sorted(pending.begin(), pending.end()));
    EXPECT_EQ(pending,
              std::vector<uint64_t>(written.begin(), written.end()));
    EXPECT_EQ(domain.volatileCounters(), written.size());

    CrashImage image = f.memory->crash(/*mid_flush=*/true);
    ASSERT_TRUE(image.tornFlush);
    EXPECT_EQ(image.tornLine, *written.begin());
}

TEST(PersistPolicy, WriteThroughFlushesEveryWrite)
{
    auto policy = makePersistencePolicy(
        persistConfig(PersistConfig::Policy::WriteThrough));
    std::vector<uint64_t> flushed;
    policy->onCounterWrite(5, flushed);
    EXPECT_EQ(flushed, std::vector<uint64_t>{5});
    EXPECT_EQ(policy->dirtyCount(), 0u);
}

TEST(PersistPolicy, BatteryQueueCoalescesAndEvicts)
{
    auto policy = makePersistencePolicy(
        persistConfig(PersistConfig::Policy::BatteryBacked)); // depth 4
    std::vector<uint64_t> flushed;
    policy->onCounterWrite(1, flushed);
    policy->onCounterWrite(2, flushed);
    policy->onCounterWrite(1, flushed); // coalesces
    EXPECT_EQ(policy->dirtyCount(), 2u);

    policy->onCounterWrite(3, flushed);
    policy->onCounterWrite(4, flushed);
    EXPECT_TRUE(flushed.empty());
    policy->onCounterWrite(5, flushed); // overflow: oldest evicted
    EXPECT_EQ(flushed, std::vector<uint64_t>{1});

    std::vector<uint64_t> drained;
    policy->drainPending(drained);
    EXPECT_EQ(drained, (std::vector<uint64_t>{2, 3, 4, 5}));
    EXPECT_EQ(policy->dirtyCount(), 0u);
}

TEST(CrashInjectorTest, ChooseIndexSeededAndBounded)
{
    uint64_t a = CrashInjector::chooseIndex(42, 1000);
    uint64_t b = CrashInjector::chooseIndex(42, 1000);
    uint64_t c = CrashInjector::chooseIndex(43, 1000);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c); // SplitMix64: adjacent seeds diverge
    for (uint64_t seed = 0; seed < 64; ++seed) {
        EXPECT_LT(CrashInjector::chooseIndex(seed, 17), 17u);
    }

    CrashInjector injector(2);
    EXPECT_FALSE(injector.onWrite());
    EXPECT_FALSE(injector.onWrite());
    EXPECT_TRUE(injector.onWrite());
    EXPECT_TRUE(injector.fired());
}

// --- the off-by-default gate ---------------------------------------

TEST(PersistGate, DisabledConfigIsBitIdentical)
{
    auto run = [](bool pass_disabled_config) {
        FastOtpEngine otp(9);
        auto scheme = makeScheme("deuce", otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        std::unique_ptr<MemorySystem> memory;
        if (pass_disabled_config) {
            PersistConfig persist; // enabled = false
            memory = std::make_unique<MemorySystem>(
                *scheme, wl, PcmConfig{},
                [](uint64_t) { return CacheLine{}; }, FaultConfig{},
                persist);
        } else {
            memory = std::make_unique<MemorySystem>(*scheme, wl);
        }
        Rng rng(3);
        CacheLine data;
        for (int i = 0; i < 200; ++i) {
            data.setField(0, 64, rng.next());
            WriteOutcome out = memory->write(rng.nextBounded(16), data);
            EXPECT_EQ(out.persistMetaWrites, 0u);
            memory->read(rng.nextBounded(16));
        }
        EXPECT_EQ(memory->persist(), nullptr);

        std::ostringstream os;
        dumpStats(os, *memory, "system.pcm");
        os << '\n' << memory->counters().deterministicSignature();
        std::ostringstream js;
        dumpStatsJson(js, *memory, "system.pcm");
        return os.str() + js.str();
    };

    EXPECT_EQ(run(true), run(false));
}

TEST(PersistGate, EnabledSignatureAndStatsShowTraffic)
{
    Fixture f(persistConfig(PersistConfig::Policy::WriteThrough));
    CacheLine data;
    data.setField(0, 64, 0xabc);
    f.memory->write(3, data);
    f.memory->read(3);

    ASSERT_NE(f.memory->persist(), nullptr);
    EXPECT_GT(f.memory->persist()->stats().metaWrites, 0u);
    EXPECT_NE(f.memory->counters().deterministicSignature().find(
                  "persist="),
              std::string::npos);

    std::ostringstream js;
    dumpStatsJson(js, *f.memory, "system.pcm");
    // The JSON dump nests dotted names as groups.
    EXPECT_NE(js.str().find("\"persist\""), std::string::npos);
    EXPECT_NE(js.str().find("\"counterWrites\""), std::string::npos);
    EXPECT_NE(js.str().find("\"metaWrites\""), std::string::npos);

    std::ostringstream disabled;
    dumpStatsJson(disabled, *Fixture(PersistConfig{}).memory,
                  "system.pcm");
    EXPECT_EQ(disabled.str().find("\"persist\""), std::string::npos);
}

// --- crash + recovery ----------------------------------------------

TEST(Recovery, RoundTripMatchesShadowModel)
{
    Fixture f(persistConfig(PersistConfig::Policy::Lazy, 8));
    Rng rng(17);
    CacheLine data;
    std::map<uint64_t, CacheLine> shadow;
    for (int i = 0; i < 100; ++i) {
        uint64_t addr = rng.nextBounded(16);
        data.setField(0, 64, rng.next());
        data.setField(64, 64, rng.next());
        f.memory->write(addr, data);
        shadow[addr] = data;
    }

    CrashImage image = f.memory->crash(false);
    RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);
    f.memory->adoptRecovery(out);

    EXPECT_GT(out.report.staleLines, 0u);
    EXPECT_EQ(out.report.unrecoverableLines, 0u);
    EXPECT_EQ(out.report.repairedLines, out.report.staleLines);
    EXPECT_EQ(out.report.undetectedStaleLines, 0u);
    for (const auto &[addr, plain] : shadow) {
        EXPECT_EQ(f.memory->read(addr), plain) << "line " << addr;
    }
    EXPECT_EQ(f.memory->persist()->stats().recoveryRepairs,
              out.report.repairedLines);
}

TEST(Recovery, BatchAdoptMatchesPerLineAdoption)
{
    // adoptRecovery() rebuilds the tree in one batch; adopting the
    // same lines one at a time must land on the same root and node
    // digests, and every adopted line must verify against it.
    auto crashed = [] {
        auto f = std::make_unique<Fixture>(
            persistConfig(PersistConfig::Policy::Lazy, 8));
        Rng rng(53);
        CacheLine data;
        for (int i = 0; i < 150; ++i) {
            data.setField(0, 64, rng.next());
            f->memory->write(rng.nextBounded(64), data);
        }
        return f;
    };
    auto batched = crashed();
    auto single = crashed();
    RecoveryOutcome out =
        RecoveryEngine(*batched->scheme).run(batched->memory->crash(true));
    RecoveryOutcome same =
        RecoveryEngine(*single->scheme).run(single->memory->crash(true));
    ASSERT_GT(out.report.staleLines, 0u);
    ASSERT_EQ(out.lines.size(), same.lines.size());

    batched->memory->adoptRecovery(out);
    for (const auto &[line, state] : same.lines) {
        single->memory->adoptLine(line, state);
    }

    const MerkleCounterTree &a = *batched->memory->persist()->tree();
    const MerkleCounterTree &b = *single->memory->persist()->tree();
    EXPECT_EQ(a.root(), b.root());
    // Recorded from per-line adoption over the per-line path re-hash
    // that updateBatch() replaced.
    EXPECT_EQ(a.root(),
              (Digest{0xc0, 0x5a, 0x63, 0xd0, 0xd1, 0x51, 0x5c, 0xdf,
                      0x12, 0xf3, 0xa3, 0x81, 0x0e, 0xa1, 0x5e, 0x42}));
    for (unsigned level = 0; level < a.levels(); ++level) {
        for (uint64_t i = 0; i < a.width(level); ++i) {
            ASSERT_EQ(a.digest(level, i), b.digest(level, i))
                << "level " << level << " node " << i;
        }
    }
    for (const auto &[line, state] : out.lines) {
        EXPECT_TRUE(a.verify(line)) << "line " << line;
        EXPECT_EQ(a.counter(line), PersistDomain::effectiveCounter(state));
    }
}

TEST(Recovery, AtomicityViolationsOnlyUnderLazy)
{
    auto staleAfterCrash = [](PersistConfig::Policy policy) {
        Fixture f(persistConfig(policy, 64));
        Rng rng(23);
        CacheLine data;
        for (int i = 0; i < 50; ++i) {
            data.setField(0, 64, rng.next());
            f.memory->write(rng.nextBounded(16), data);
        }
        CrashImage image = f.memory->crash(false);
        RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);
        return out.report;
    };

    RecoveryReport lazy =
        staleAfterCrash(PersistConfig::Policy::Lazy);
    EXPECT_GT(lazy.staleLines, 0u);
    EXPECT_GT(lazy.padReuseWindow, 0u);
    EXPECT_GE(lazy.padReuseWindow, lazy.staleLines);

    RecoveryReport wt =
        staleAfterCrash(PersistConfig::Policy::WriteThrough);
    EXPECT_EQ(wt.staleLines, 0u);
    EXPECT_EQ(wt.padReuseWindow, 0u);

    RecoveryReport battery =
        staleAfterCrash(PersistConfig::Policy::BatteryBacked);
    EXPECT_EQ(battery.staleLines, 0u);
    EXPECT_EQ(battery.padReuseWindow, 0u);
}

TEST(Recovery, WithoutIntegrityStalenessIsUndetectable)
{
    Fixture f(persistConfig(PersistConfig::Policy::Lazy, 64,
                            /*integrity=*/false));
    CacheLine data;
    data.setField(0, 64, 0x111);
    for (int i = 0; i < 5; ++i) {
        f.memory->write(7, data);
    }
    CrashImage image = f.memory->crash(false);
    RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);

    EXPECT_EQ(out.report.staleLines, 0u); // nothing detectable
    EXPECT_EQ(out.report.undetectedStaleLines, 1u);
    EXPECT_EQ(out.report.padReuseWindow, 5u); // 5 replayable pads
}

TEST(Recovery, TornFlushFallsBackToMacAndRebuildsPath)
{
    Fixture f(persistConfig(PersistConfig::Policy::Lazy, 32));
    Rng rng(31);
    CacheLine data;
    std::map<uint64_t, CacheLine> shadow;
    for (int i = 0; i < 20; ++i) {
        uint64_t addr = rng.nextBounded(16);
        data.setField(0, 64, rng.next());
        f.memory->write(addr, data);
        shadow[addr] = data;
    }

    CrashImage image = f.memory->crash(/*mid_flush=*/true);
    ASSERT_TRUE(image.tornFlush);
    RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);
    f.memory->adoptRecovery(out);

    // The torn line's counter reached the array but its tree path did
    // not: verification fails for the leaf group, recovery falls back
    // to the MAC and rebuilds the path.
    EXPECT_GT(out.report.tornPathLines, 0u);
    EXPECT_EQ(out.report.unrecoverableLines, 0u);
    for (const auto &[addr, plain] : shadow) {
        EXPECT_EQ(f.memory->read(addr), plain) << "line " << addr;
    }
}

TEST(Recovery, CorruptMacBeyondWindowIsUnrecoverable)
{
    Fixture f(persistConfig(PersistConfig::Policy::Lazy, 4));
    CacheLine data;
    data.setField(0, 64, 0x5a5a);
    f.memory->write(9, data); // lands in the dirty set
    f.memory->write(9, data);

    CrashImage image = f.memory->crash(false);
    ASSERT_EQ(image.macs.count(9), 1u);
    image.macs[9] ^= 0xdeadbeef; // ciphertext/MAC corruption
    RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);

    EXPECT_EQ(out.report.unrecoverableLines, 1u);
    EXPECT_EQ(out.report.repairedLines, 0u);
    // The lost line's counter skips past the whole window so no
    // future write can reuse a pad the adversary may hold.
    uint64_t live = image.liveCounters.at(9);
    EXPECT_GT(out.lines.at(9).counter, live);
}

TEST(Recovery, BlockCounterSplitIsUnrecoverable)
{
    // BLE keeps per-block counters; the MAC binds only their sum, so
    // a stale line's split cannot be reconstructed by counter search.
    Fixture f(persistConfig(PersistConfig::Policy::Lazy, 64), "ble");
    CacheLine data;
    for (int i = 0; i < 6; ++i) {
        data.setField(0, 64, 0xb1e + i);
        f.memory->write(4, data);
    }
    CrashImage image = f.memory->crash(false);
    RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);

    EXPECT_EQ(out.report.staleLines, 1u);
    EXPECT_EQ(out.report.repairedLines, 0u);
    EXPECT_EQ(out.report.unrecoverableLines, 1u);
    uint64_t live = image.liveCounters.at(4);
    uint64_t eff = out.lines.at(4).counter;
    for (uint64_t c : out.lines.at(4).blockCounters) {
        eff += c;
    }
    EXPECT_GT(eff, live);
}

// --- determinism ----------------------------------------------------

/** Crash an encr run at write index @p k and digest the outcome. */
std::string
crashAtIndexDigest(uint64_t k)
{
    FastOtpEngine otp(5);
    auto scheme = makeScheme("encr", otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [](uint64_t) { return CacheLine{}; },
                        FaultConfig{},
                        persistConfig(PersistConfig::Policy::Lazy, 8));

    Rng rng(77);
    CacheLine data;
    CrashInjector injector(k);
    for (int i = 0; i < 40; ++i) {
        data.setField(0, 64, rng.next());
        memory.write(rng.nextBounded(8), data);
        if (injector.onWrite()) {
            break;
        }
    }
    CrashImage image = memory.crash(k % 2 == 1);
    RecoveryOutcome out = RecoveryEngine(*scheme).run(image);

    std::ostringstream os;
    const RecoveryReport &r = out.report;
    os << r.linesExamined << ',' << r.cleanLines << ','
       << r.staleLines << ',' << r.repairedLines << ','
       << r.unrecoverableLines << ',' << r.tornPathLines << ','
       << r.padReuseWindow << ',' << r.macComputations << ','
       << r.metaReads << ',' << r.metaWrites;
    for (const auto &[line, st] : out.lines) {
        os << ';' << line << ':' << st.counter;
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            os << '.' << st.data.limb(i);
        }
    }
    return os.str();
}

TEST(Recovery, CrashAtEveryIndexDeterministicAcrossThreads)
{
    constexpr uint64_t kIndices = 40;
    std::vector<std::string> serial(kIndices);
    for (uint64_t k = 0; k < kIndices; ++k) {
        serial[k] = crashAtIndexDigest(k);
    }

    std::vector<std::string> threaded(kIndices);
    ThreadPool::parallelFor(
        kIndices,
        [&](uint64_t k) { threaded[k] = crashAtIndexDigest(k); },
        /*threads=*/4);

    EXPECT_EQ(serial, threaded);
    // Different crash points genuinely differ (the digest is not
    // vacuously constant).
    EXPECT_NE(serial.front(), serial.back());
}

// --- OTP snapshot ---------------------------------------------------

TEST(OtpSnapshot, RoundTrip)
{
    FastOtpEngine otp(3);
    otp.padForLine(1, 1);
    OtpCounterSnapshot snap = otp.snapshotCounters();
    EXPECT_EQ(snap.pads, 4u);

    otp.padForLine(2, 1);
    otp.padForLine(3, 1);
    EXPECT_NE(otp.snapshotCounters(), snap);

    otp.restoreCounters(snap);
    EXPECT_EQ(otp.snapshotCounters(), snap);
    EXPECT_EQ(otp.padsGenerated(), 4u);
}

} // namespace
} // namespace deuce
