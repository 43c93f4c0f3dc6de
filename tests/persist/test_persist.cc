/**
 * @file
 * Tests for the persist/ subsystem: persistence policies, known
 * answers, crash injection, the recovery protocol, the off-by-default gate, and
 * verified reads against tampering and replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "obs/registry.hh"
#include "persist/crash.hh"
#include "persist/persist_domain.hh"
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

/** A state whose effective counter is @p counter. */
StoredLineState
counterState(uint64_t counter)
{
    StoredLineState state;
    state.counter = counter;
    return state;
}

/** Every tracked line of @p image whose durable counter lags its live
 *  one. */
uint64_t
staleLines(const CrashImage &image)
{
    uint64_t stale = 0;
    for (const auto &[line, live] : image.liveCounters) {
        stale += PersistDomain::effectiveCounter(image.lines.at(line)) !=
                 live;
    }
    return stale;
}

TEST(PersistPolicy, WindowsPerPolicy)
{
    EXPECT_EQ(worstCaseWindow(
                  persistConfig(PersistConfig::Policy::WriteThrough)),
              0u);
    EXPECT_EQ(worstCaseWindow(persistConfig(PersistConfig::Policy::Lazy, 32)),
              32u);
    EXPECT_EQ(worstCaseWindow(
                  persistConfig(PersistConfig::Policy::BatteryBacked)),
              0u);

    // Only lazy flushing leaves a crash anything to lose: the battery
    // drains its queue at power loss, write-through never queues.
    for (auto policy : {PersistConfig::Policy::WriteThrough,
                        PersistConfig::Policy::Lazy,
                        PersistConfig::Policy::BatteryBacked}) {
        SCOPED_TRACE(persistPolicyName(policy));
        Fixture f(persistConfig(policy, 32));
        CacheLine data;
        for (uint64_t line : {1, 2, 1}) {
            data.setField(0, 64, line);
            f.memory->write(line, data);
        }
        EXPECT_EQ(f.memory->persist()->volatileCounters(),
                  policy == PersistConfig::Policy::WriteThrough ? 0u : 2u);
        CrashImage image = f.memory->crash(false);
        EXPECT_EQ(staleLines(image),
                  policy == PersistConfig::Policy::Lazy ? 2u : 0u);
        EXPECT_EQ(f.memory->persist()->volatileCounters(), 0u);
    }
}

TEST(PersistPolicy, LazyFlushesEveryEpochInAddressOrder)
{
    PersistDomain domain(persistConfig(PersistConfig::Policy::Lazy, 3));
    ASSERT_EQ(domain.config().treeArity, 8u);

    EXPECT_EQ(domain.onWrite(20, counterState(1)).metaWrites, 0u);
    EXPECT_EQ(domain.onWrite(3, counterState(1)).metaWrites, 0u);
    EXPECT_EQ(domain.pendingLines(), (std::vector<uint64_t>{3, 20}));

    // 3rd write: epoch boundary. In address order {3, 20, 21} spans
    // two leaf groups (0, 2) and two counter lines (0, 1): 4 metadata
    // writes. Write order {20, 3, 21} alternates both and would cost 6.
    PersistTraffic flush = domain.onWrite(21, counterState(1));
    EXPECT_EQ(flush.metaWrites, 4u);
    EXPECT_EQ(flush.criticalMetaWrites, 0u); // write-behind
    EXPECT_EQ(domain.volatileCounters(), 0u);
    EXPECT_EQ(domain.stats().counterFlushes, 1u);
    EXPECT_EQ(domain.stats().flushedCounters, 3u);
    for (uint64_t line : {3, 20, 21}) {
        EXPECT_EQ(domain.tree()->counter(line), 1u) << line;
    }

    // Repeats coalesce: three writes of one line flush it once.
    for (uint64_t counter : {2, 3}) {
        EXPECT_EQ(domain.onWrite(9, counterState(counter)).metaWrites,
                  0u);
        EXPECT_EQ(domain.volatileCounters(), 1u);
    }
    EXPECT_EQ(domain.onWrite(9, counterState(4)).metaWrites, 2u);
    EXPECT_EQ(domain.stats().flushedCounters, 4u);
    EXPECT_EQ(domain.tree()->counter(9), 4u);
}

TEST(PersistPolicy, LazyPendingSetIsSortedDistinctAndTearsLowest)
{
    // The lazy pending list holds every write since the last flush;
    // everything read out of it is sorted and distinct, so pending
    // lines, the volatile count and the torn line of a mid-flush
    // crash depend only on which lines were written.
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
    std::vector<uint64_t> pending = domain.pendingLines();
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
    PersistDomain domain(persistConfig(PersistConfig::Policy::WriteThrough));
    for (uint64_t counter : {1, 2}) {
        // One leaf group and one counter line, on the critical path.
        PersistTraffic t = domain.onWrite(5, counterState(counter));
        EXPECT_EQ(t.metaWrites, 2u);
        EXPECT_EQ(t.criticalMetaWrites, 2u);
        EXPECT_EQ(domain.volatileCounters(), 0u);
        EXPECT_TRUE(domain.pendingLines().empty());
        EXPECT_EQ(domain.tree()->counter(5), counter);
    }
    EXPECT_EQ(domain.stats().counterFlushes, 2u);
    EXPECT_EQ(domain.stats().flushedCounters, 2u);
}

TEST(PersistPolicy, BatteryQueueCoalescesAndEvicts)
{
    PersistDomain domain(
        persistConfig(PersistConfig::Policy::BatteryBacked)); // depth 4
    LineTable<StoredLineState> lines;
    auto write = [&](uint64_t line) {
        StoredLineState &state = lines[line];
        ++state.counter;
        return domain.onWrite(line, state).metaWrites;
    };
    EXPECT_EQ(write(9), 0u);
    EXPECT_EQ(write(20), 0u);
    EXPECT_EQ(write(9), 0u); // coalesces
    EXPECT_EQ(domain.volatileCounters(), 2u);
    EXPECT_EQ(write(3), 0u);
    EXPECT_EQ(write(21), 0u);

    // Overflow: the oldest line (9) is flushed, leaf group 1 plus
    // counter line 0.
    EXPECT_EQ(write(4), 2u);
    EXPECT_EQ(domain.tree()->counter(9), 2u);
    EXPECT_EQ(domain.stats().flushedCounters, 1u);
    EXPECT_EQ(domain.pendingLines(), (std::vector<uint64_t>{3, 4, 20, 21}));

    // Power loss drains the queue in address order: {3, 4, 20, 21}
    // costs 4 metadata writes; FIFO order {20, 3, 21, 4} would cost 8.
    const uint64_t before = domain.stats().metaWrites;
    CrashImage image = domain.crash(lines, /*mid_flush=*/true);
    EXPECT_EQ(domain.stats().metaWrites - before, 4u);
    EXPECT_EQ(domain.stats().flushedCounters, 5u);
    EXPECT_EQ(domain.stats().counterFlushes, 2u);
    EXPECT_FALSE(image.tornFlush); // nothing left to tear
    EXPECT_EQ(staleLines(image), 0u);
    EXPECT_EQ(domain.volatileCounters(), 0u);
}

TEST(PersistPolicy, ZeroLazyFlushEpochIsFatal)
{
    PersistConfig cfg = persistConfig(PersistConfig::Policy::Lazy, 0);
    EXPECT_THROW(PersistDomain{cfg}, FatalError);
    cfg.policy = PersistConfig::Policy::WriteThrough; // epoch unused
    EXPECT_NO_THROW(PersistDomain{cfg});
}

TEST(PersistPolicy, ZeroBatteryQueueDepthIsFatal)
{
    PersistConfig cfg = persistConfig(PersistConfig::Policy::BatteryBacked);
    cfg.queueDepth = 0;
    EXPECT_THROW(PersistDomain{cfg}, FatalError);
    cfg.policy = PersistConfig::Policy::Lazy; // depth unused
    EXPECT_NO_THROW(PersistDomain{cfg});
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

// --- known answers --------------------------------------------------

/** FNV-1a over 64-bit words, byte by byte. */
struct Fnv1a
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
    add(const StoredLineState &s)
    {
        for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
            add(s.data.limb(i));
        }
        add(s.counter);
        for (uint64_t c : s.blockCounters) {
            add(c);
        }
        add(s.modifiedBits);
        add(s.flipBits);
        add(uint64_t{s.modeBit});
        add(s.cosetBits);
    }

    void
    add(const Digest &d)
    {
        for (uint8_t b : d) {
            add(uint64_t{b});
        }
    }
};

std::string
hexDigest(const Digest &d)
{
    std::string s;
    for (uint8_t b : d) {
        s += "0123456789abcdef"[b >> 4];
        s += "0123456789abcdef"[b & 15];
    }
    return s;
}

/** Everything a crash image holds, folded into one FNV-1a digest. The
 *  durable effective counter of each tracked line is derived from its
 *  rolled-back state. */
uint64_t
crashImageDigest(const CrashImage &image)
{
    Fnv1a h;
    const PersistConfig &c = image.config;
    h.add(static_cast<uint64_t>(c.policy));
    h.add(c.flushEpoch);
    h.add(c.queueDepth);
    h.add(uint64_t{c.integrity});
    h.add(c.treeArity);
    h.add(c.numLines);
    h.add(c.keySeed);
    h.add(uint64_t{image.tornFlush});
    h.add(image.tornLine);
    for (const auto &[line, state] : image.lines) {
        h.add(line);
        h.add(state);
    }
    for (const auto &[line, mac] : image.macs) {
        h.add(line);
        h.add(mac);
    }
    for (const auto &[line, live] : image.liveCounters) {
        h.add(line);
        h.add(live);
        h.add(PersistDomain::effectiveCounter(image.lines.at(line)));
    }
    if (image.tree) {
        h.add(image.tree->root());
    }
    return h.h;
}

/**
 * One seeded run of 3000 accesses over 300 lines through MemorySystem,
 * crashed mid-flush, recovered and adopted; every figure the persist
 * model produces, as one line of text.
 */
std::string
persistKnownAnswer(PersistConfig::Policy policy, bool integrity,
                   const char *scheme_id)
{
    PersistConfig cfg = persistConfig(policy, 8, integrity);
    cfg.numLines = 512;
    Fixture f(cfg, scheme_id);

    constexpr uint64_t kLines = 300;
    std::vector<CacheLine> current(kLines);
    Rng rng(0x9e75);
    uint64_t meta_writes = 0;
    for (int i = 0; i < 3000; ++i) {
        uint64_t addr = rng.nextBounded(kLines);
        if (rng.nextBool(0.25)) {
            f.memory->read(addr);
            continue;
        }
        unsigned edits = 1 + static_cast<unsigned>(rng.nextBounded(3));
        for (unsigned e = 0; e < edits; ++e) {
            current[addr].limb(rng.nextBounded(CacheLine::kLimbs)) ^=
                rng.next();
        }
        meta_writes += f.memory->write(addr, current[addr])
                           .persistMetaWrites;
    }

    const PersistDomain &domain = *f.memory->persist();
    const uint64_t volatile_counters = domain.volatileCounters();
    const std::string root =
        domain.tree() ? hexDigest(domain.tree()->root()) : "-";

    CrashImage image = f.memory->crash(/*mid_flush=*/true);
    const uint64_t image_digest = crashImageDigest(image);
    RecoveryOutcome out = RecoveryEngine(*f.scheme).run(image);
    f.memory->adoptRecovery(out);

    const PersistStats &s = domain.stats();
    const RecoveryReport &r = out.report;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s/%d/%s stats %llu %llu %llu %llu %llu %llu %llu %llu %llu "
        "vol %llu meta %llu root %s image %016llx rec %llu %llu %llu "
        "%llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %a",
        persistPolicyName(policy), integrity ? 1 : 0, scheme_id,
        (unsigned long long)s.counterWrites,
        (unsigned long long)s.counterFlushes,
        (unsigned long long)s.flushedCounters,
        (unsigned long long)s.metaReads,
        (unsigned long long)s.metaWrites,
        (unsigned long long)s.macWrites,
        (unsigned long long)s.macReads,
        (unsigned long long)s.treeUpdates,
        (unsigned long long)s.recoveryRepairs,
        (unsigned long long)volatile_counters,
        (unsigned long long)meta_writes, root.c_str(),
        (unsigned long long)image_digest,
        (unsigned long long)r.linesExamined,
        (unsigned long long)r.cleanLines,
        (unsigned long long)r.untrackedLines,
        (unsigned long long)r.staleLines,
        (unsigned long long)r.repairedLines,
        (unsigned long long)r.unrecoverableLines,
        (unsigned long long)r.tornPathLines,
        (unsigned long long)r.undetectedStaleLines,
        (unsigned long long)r.padReuseWindow,
        (unsigned long long)r.maxStaleGap,
        (unsigned long long)r.macComputations,
        (unsigned long long)r.metaReads,
        (unsigned long long)r.metaWrites, r.recoveryNs);
    return buf;
}

TEST(PersistPins, EveryPolicyMatchesRecordedAnswers)
{
    // Recorded before the persistence policies were folded into
    // PersistDomain; must never be edited to follow a code change.
    const std::vector<std::string> expected = {
        "write-through/1/encr stats 2234 2234 2234 766 4468 2234 766 2234 0 vol 0 meta 4468 root b017e3311f5eb01f36c63940ed1264ca image 69ad3cdc5a8b6b94 rec 300 300 0 0 0 0 0 0 0 0 300 1200 0 0x1.e654p+16",
        "write-through/1/ble stats 2234 2234 2234 766 4468 2234 766 2234 0 vol 0 meta 4468 root 6d0987d39e55f7e3ece18a2294867c6c image be7deba144c6074e rec 300 300 0 0 0 0 0 0 0 0 300 1200 0 0x1.e654p+16",
        "write-through/1/vcc-mlc stats 2234 2234 2234 766 4468 2234 766 2234 0 vol 0 meta 4468 root b017e3311f5eb01f36c63940ed1264ca image b19cd40848c58935 rec 300 300 0 0 0 0 0 0 0 0 300 1200 0 0x1.e654p+16",
        "write-through/0/encr stats 2234 2234 2234 0 2234 0 0 0 0 vol 0 meta 2234 root - image 36efef6ade4f2b69 rec 300 300 0 0 0 0 0 0 0 0 0 0 0 0x1.5f9p+14",
        "write-through/0/ble stats 2234 2234 2234 0 2234 0 0 0 0 vol 0 meta 2234 root - image 196b2cb888685859 rec 300 300 0 0 0 0 0 0 0 0 0 0 0 0x1.5f9p+14",
        "write-through/0/vcc-mlc stats 2234 2234 2234 0 2234 0 0 0 0 vol 0 meta 2234 root - image a7b10f010f2c5b76 rec 300 300 0 0 0 0 0 0 0 0 0 0 0 0x1.5f9p+14",
        "lazy/1/encr stats 2234 279 2202 766 3901 2234 766 2202 1 vol 2 meta 0 root 9bfe921233333934ca85ebe17be1cd84 image f1d368e725fcaa09 rec 300 291 0 1 1 0 8 0 1 1 301 1200 18 0x1.f36p+16",
        "lazy/1/ble stats 2234 279 2202 766 3901 2234 766 2202 0 vol 2 meta 0 root def4bf9614c5a136c3dab2eefb14650c image a325be4fb59ee480 rec 300 291 0 1 0 1 8 0 0 0 300 1200 18 0x1.f0ep+16",
        "lazy/1/vcc-mlc stats 2234 279 2202 766 3901 2234 766 2202 1 vol 2 meta 0 root 9bfe921233333934ca85ebe17be1cd84 image f9cf339bddff3f30 rec 300 291 0 1 1 0 8 0 1 1 301 1200 18 0x1.f36p+16",
        "lazy/0/encr stats 2234 279 2202 0 1860 0 0 0 0 vol 2 meta 0 root - image 8cc6e6bb8d9dd225 rec 300 299 0 0 0 0 0 1 1 1 0 0 0 0x1.5f9p+14",
        "lazy/0/ble stats 2234 279 2202 0 1860 0 0 0 0 vol 2 meta 0 root - image 0b73170b9dab53d9 rec 300 299 0 0 0 0 0 1 2 2 0 0 0 0x1.5f9p+14",
        "lazy/0/vcc-mlc stats 2234 279 2202 0 1860 0 0 0 0 vol 2 meta 0 root - image 79be89a98cd13df2 rec 300 299 0 0 0 0 0 1 1 1 0 0 0 0x1.5f9p+14",
        "battery/1/encr stats 2234 2205 2208 766 4416 2234 766 2208 0 vol 4 meta 0 root 31ab8d2e87b5fe4cac8ff05421a73aca image ed930775ea702062 rec 300 300 0 0 0 0 0 0 0 0 300 1200 0 0x1.e654p+16",
        "battery/1/ble stats 2234 2205 2208 766 4416 2234 766 2208 0 vol 4 meta 0 root bdff82149822d42f6b2c349f7d72e857 image 2fbdd258cef0080c rec 300 300 0 0 0 0 0 0 0 0 300 1200 0 0x1.e654p+16",
        "battery/1/vcc-mlc stats 2234 2205 2208 766 4416 2234 766 2208 0 vol 4 meta 0 root 31ab8d2e87b5fe4cac8ff05421a73aca image 7bb213bf5763fc4f rec 300 300 0 0 0 0 0 0 0 0 300 1200 0 0x1.e654p+16",
        "battery/0/encr stats 2234 2205 2208 0 2208 0 0 0 0 vol 4 meta 0 root - image a630c65bb159f9e3 rec 300 300 0 0 0 0 0 0 0 0 0 0 0 0x1.5f9p+14",
        "battery/0/ble stats 2234 2205 2208 0 2208 0 0 0 0 vol 4 meta 0 root - image 9e642c22b1320f5b rec 300 300 0 0 0 0 0 0 0 0 0 0 0 0x1.5f9p+14",
        "battery/0/vcc-mlc stats 2234 2205 2208 0 2208 0 0 0 0 vol 4 meta 0 root - image 349dd6a54853faa8 rec 300 300 0 0 0 0 0 0 0 0 0 0 0 0x1.5f9p+14",
    };
    std::vector<std::string> actual;
    for (auto policy : {PersistConfig::Policy::WriteThrough,
                        PersistConfig::Policy::Lazy,
                        PersistConfig::Policy::BatteryBacked}) {
        for (bool integrity : {true, false}) {
            for (const char *id : {"encr", "ble", "vcc-mlc"}) {
                actual.push_back(
                    persistKnownAnswer(policy, integrity, id));
            }
        }
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]) << "new line:\n\"" << actual[i]
                                          << "\",";
    }
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

// --- verified reads (footnote 1's tamper threat) -------------------

/** Integrity on over 1024 lines (deuce tests use lines < 64). */
PersistConfig
verifiedConfig(
    PersistConfig::Policy policy = PersistConfig::Policy::WriteThrough,
    unsigned flush_epoch = 8)
{
    PersistConfig cfg = persistConfig(policy, flush_epoch);
    cfg.numLines = 1024;
    return cfg;
}

CacheLine
randomLine(Rng &rng)
{
    CacheLine line;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        line.limb(i) = rng.next();
    }
    return line;
}

/** Every scheme whose counters live in StoredLineState (perword and
 *  invmm keep theirs elsewhere). */
constexpr const char *kCounterSchemes[] = {
    "encr", "encr-fnw", "deuce", "deuce-fnw", "dyndeuce",
    "ble",  "ble-deuce", "vcc", "vcc-mlc"};

TEST(VerifiedRead, HonestTrafficAlwaysVerifies)
{
    Fixture f(verifiedConfig(), "deuce");
    Rng rng(2);
    CacheLine plain;
    for (int step = 0; step < 100; ++step) {
        uint64_t addr = rng.nextBounded(32);
        plain = randomLine(rng);
        f.memory->write(addr, plain);
        CacheLine out;
        ASSERT_EQ(f.memory->readVerified(addr, out), ReadStatus::Ok);
        ASSERT_EQ(out, plain);
    }
}

TEST(VerifiedRead, DetectsCiphertextTampering)
{
    Fixture f(verifiedConfig(), "deuce");
    Rng rng(3);
    CacheLine plain = randomLine(rng);
    f.memory->write(7, plain);
    f.memory->tamperDataBit(7, 123);
    CacheLine out;
    EXPECT_EQ(f.memory->readVerified(7, out), ReadStatus::DataTampered);
}

TEST(VerifiedRead, DetectsReplayOfOldSnapshot)
{
    Fixture f(verifiedConfig(), "deuce");
    Rng rng(4);
    CacheLine old_plain = randomLine(rng);
    f.memory->write(5, old_plain);
    LineSnapshot old_snap = f.memory->snapshot(5);

    // The line moves on...
    CacheLine new_plain = randomLine(rng);
    f.memory->write(5, new_plain);
    CacheLine out;
    ASSERT_EQ(f.memory->readVerified(5, out), ReadStatus::Ok);
    ASSERT_EQ(out, new_plain);

    // ...the attacker replays the internally-consistent old snapshot
    // (valid MAC, matching counter copy). Only the on-chip state can
    // tell -- and it does.
    f.memory->replaySnapshot(5, old_snap);
    EXPECT_EQ(f.memory->readVerified(5, out),
              ReadStatus::CounterTampered);
}

TEST(VerifiedRead, FreshCounterReuseWouldBeDetected)
{
    // Pad-reuse setup: reset the tree's counter while keeping newer
    // data. Both the MAC (bound to the counter) and the tree notice.
    Fixture f(verifiedConfig(), "deuce");
    Rng rng(5);
    f.memory->write(9, randomLine(rng));
    f.memory->write(9, randomLine(rng));
    f.memory->tamperCounter(9, 0);
    CacheLine out;
    EXPECT_EQ(f.memory->readVerified(9, out),
              ReadStatus::CounterTampered);
}

TEST(VerifiedRead, WorksOverEverySchemeWithCounters)
{
    // The replay binds the effective counter, block counters
    // included: BLE advances only those, so a tree over the line
    // counter alone would pass its replay as Ok.
    for (const char *id : kCounterSchemes) {
        Fixture f(verifiedConfig(), id);
        Rng rng(6);
        f.memory->write(3, randomLine(rng));
        const LineSnapshot old_snap = f.memory->snapshot(3);
        CacheLine plain = randomLine(rng);
        f.memory->write(3, plain);
        CacheLine out;
        ASSERT_EQ(f.memory->readVerified(3, out), ReadStatus::Ok) << id;
        ASSERT_EQ(out, plain) << id;
        f.memory->tamperDataBit(3, 9);
        EXPECT_EQ(f.memory->readVerified(3, out),
                  ReadStatus::DataTampered)
            << id;
        f.memory->replaySnapshot(3, old_snap);
        EXPECT_EQ(f.memory->readVerified(3, out),
                  ReadStatus::CounterTampered)
            << id;
    }
}

TEST(VerifiedRead, HonestTrafficVerifiesUnderEveryPolicy)
{
    // Under lazy and battery-backed flushing the tree lags the live
    // counters; honest reads of dirty and flushed lines alike pass.
    for (auto policy : {PersistConfig::Policy::WriteThrough,
                        PersistConfig::Policy::Lazy,
                        PersistConfig::Policy::BatteryBacked}) {
        for (const char *id : kCounterSchemes) {
            SCOPED_TRACE(std::string(persistPolicyName(policy)) + " " +
                         id);
            Fixture f(verifiedConfig(policy), id);
            Rng rng(11);
            std::map<uint64_t, CacheLine> shadow;
            CacheLine out;
            for (int step = 0; step < 100; ++step) {
                uint64_t addr = rng.nextBounded(48);
                shadow[addr] = randomLine(rng);
                f.memory->write(addr, shadow[addr]);
                uint64_t probe = rng.nextBounded(48);
                ASSERT_EQ(f.memory->readVerified(probe, out),
                          ReadStatus::Ok);
                auto it = shadow.find(probe);
                ASSERT_EQ(out, it != shadow.end() ? it->second
                                                  : CacheLine{});
            }
        }
    }
}

TEST(VerifiedRead, LazyReplayOfDirtyLineFailsTheLiveCounterCheck)
{
    // Epoch 4: the 4th write flushes every dirty counter.
    Fixture f(verifiedConfig(PersistConfig::Policy::Lazy, 4), "deuce");
    Rng rng(7);
    f.memory->write(5, randomLine(rng));
    for (uint64_t other : {17, 25, 33}) {
        f.memory->write(other, randomLine(rng));
    }
    ASSERT_EQ(f.memory->persist()->volatileCounters(), 0u);
    const LineSnapshot old_snap = f.memory->snapshot(5);

    CacheLine plain = randomLine(rng);
    f.memory->write(5, plain); // the newer counter stays on chip
    ASSERT_EQ(f.memory->persist()->volatileCounters(), 1u);
    CacheLine out;
    ASSERT_EQ(f.memory->readVerified(5, out), ReadStatus::Ok);
    ASSERT_EQ(out, plain);

    // The replayed counter is the durable one the tree leaf holds, so
    // the path still verifies: only the live counter tells.
    f.memory->replaySnapshot(5, old_snap);
    EXPECT_TRUE(f.memory->persist()->tree()->verify(5));
    EXPECT_EQ(f.memory->readVerified(5, out),
              ReadStatus::CounterTampered);
}

TEST(VerifiedRead, LazyCounterTamperBreaksTheTreePath)
{
    Fixture f(verifiedConfig(PersistConfig::Policy::Lazy, 1000),
              "deuce");
    Rng rng(8);
    f.memory->write(9, randomLine(rng));
    f.memory->write(9, randomLine(rng));
    const MerkleCounterTree &tree = *f.memory->persist()->tree();
    ASSERT_EQ(tree.counter(9), 0u); // durable: never flushed
    CacheLine out;
    ASSERT_EQ(f.memory->readVerified(9, out), ReadStatus::Ok);

    // Even the live value is wrong in the leaf: the tree binds the
    // durable counter.
    f.memory->tamperCounter(9, 2);
    EXPECT_EQ(f.memory->readVerified(9, out),
              ReadStatus::CounterTampered);
}

TEST(VerifiedRead, NeverWrittenLineChecksOnlyItsCounterPath)
{
    Fixture f(verifiedConfig(), "deuce");
    CacheLine out;
    ASSERT_EQ(f.memory->readVerified(40, out), ReadStatus::Ok);
    EXPECT_EQ(out, CacheLine{});
    EXPECT_EQ(f.memory->snapshot(40).mac, 0u);
    f.memory->tamperCounter(40, 3);
    EXPECT_EQ(f.memory->readVerified(40, out),
              ReadStatus::CounterTampered);

    // No MAC until the first write: a data flip is out of scope (its
    // own leaf group, so line 40's tamper does not reach it).
    f.memory->tamperDataBit(48, 0);
    EXPECT_EQ(f.memory->readVerified(48, out), ReadStatus::Ok);
}

TEST(VerifiedRead, RequiresIntegrity)
{
    for (bool persist_enabled : {false, true}) {
        PersistConfig cfg = verifiedConfig();
        cfg.enabled = persist_enabled;
        cfg.integrity = false;
        Fixture f(cfg, "deuce");
        CacheLine out;
        try {
            f.memory->readVerified(3, out);
            ADD_FAILURE() << "readVerified without integrity returned";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()).rfind("fatal: ", 0), 0u)
                << e.what();
        }
    }
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
