/**
 * @file
 * Integration tests: the full workload -> scheme -> PCM pipeline, for
 * every scheme, checking end-to-end decrypt correctness against the
 * workload's ground-truth contents, plus the cross-scheme orderings
 * and wear-leveling outcomes the paper's figures depend on.
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/experiment.hh"
#include "sim/memory_system.hh"
#include "trace/synthetic.hh"
#include "wear/lifetime.hh"

namespace deuce
{
namespace
{

BenchmarkProfile
smallProfile(const char *base = "mcf")
{
    BenchmarkProfile p = profileByName(base);
    p.workingSetLines = 128;
    return p;
}

class PipelineTest : public ::testing::TestWithParam<std::string>
{
};

/**
 * Drive a calibrated workload through a MemorySystem and verify that
 * decrypting every touched line reproduces the workload's ground
 * truth, at several checkpoints and at the end.
 */
TEST_P(PipelineTest, MemoryMatchesGroundTruthThroughout)
{
    BenchmarkProfile profile = smallProfile();
    SyntheticWorkload workload(profile, 6000);
    auto otp = makeAesOtpEngine(11);
    auto scheme = makeScheme(GetParam(), *otp);

    WearLevelingConfig wl;
    wl.verticalEnabled = true;
    wl.numLines = profile.workingSetLines;
    wl.gapWriteInterval = 16;
    wl.rotation = WearLevelingConfig::Rotation::Hwl;

    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [&](uint64_t addr) {
                            return workload.initialContents(addr);
                        });

    std::map<uint64_t, CacheLine> truth;
    TraceEvent ev;
    int step = 0;
    while (workload.next(ev)) {
        if (ev.kind == EventKind::Writeback) {
            memory.write(ev.lineAddr, ev.data);
            truth[ev.lineAddr] = ev.data;
        } else {
            memory.read(ev.lineAddr % profile.workingSetLines);
        }
        if (++step % 1000 == 0) {
            for (const auto &[addr, data] : truth) {
                ASSERT_EQ(memory.read(addr), data)
                    << GetParam() << " line " << addr << " at step "
                    << step;
            }
        }
    }
    for (const auto &[addr, data] : truth) {
        ASSERT_EQ(memory.read(addr), data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PipelineTest,
    ::testing::Values("nodcw", "nofnw", "encr", "encr-fnw", "ble",
                      "ble-deuce", "deuce", "deuce-fnw", "dyndeuce"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(Integration, Figure10OrderingHoldsOnAverage)
{
    // The cross-scheme ordering of Figure 10, measured over the full
    // 12-benchmark suite at reduced length.
    ExperimentOptions opt;
    opt.writebacks = 8000;
    opt.otpEngine = makeFastOtpEngine;
    opt.wl.verticalEnabled = false;

    std::map<std::string, double> avg;
    for (const char *id : {"nofnw", "encr", "encr-fnw", "deuce",
                           "dyndeuce", "deuce-fnw"}) {
        std::vector<ExperimentRow> rows;
        for (const BenchmarkProfile &p : spec2006Profiles()) {
            BenchmarkProfile q = p;
            q.workingSetLines = 512;
            rows.push_back(runExperiment(q, id, opt));
        }
        avg[id] = averageOf(rows, &ExperimentRow::flipPct);
    }
    EXPECT_NEAR(avg["encr"], 50.0, 1.5);
    EXPECT_NEAR(avg["encr-fnw"], 43.0, 1.5);
    EXPECT_LT(avg["deuce"], 30.0);
    EXPECT_GT(avg["deuce"], 18.0);
    EXPECT_LE(avg["dyndeuce"], avg["deuce"] + 0.1);
    EXPECT_LT(avg["deuce-fnw"], avg["dyndeuce"]);
    EXPECT_LT(avg["nofnw"], avg["deuce"]);
}

TEST(Integration, GemsAndSoplexPreferFnwUnderDynDeuce)
{
    ExperimentOptions opt;
    opt.writebacks = 8000;
    opt.otpEngine = makeFastOtpEngine;
    opt.wl.verticalEnabled = false;

    for (const char *bench : {"Gems", "soplex"}) {
        BenchmarkProfile p = profileByName(bench);
        p.workingSetLines = 512;
        ExperimentRow deuce = runExperiment(p, "deuce", opt);
        ExperimentRow fnw = runExperiment(p, "encr-fnw", opt);
        ExperimentRow dyn = runExperiment(p, "dyndeuce", opt);
        EXPECT_GT(deuce.flipPct, fnw.flipPct) << bench;
        EXPECT_LT(dyn.flipPct, deuce.flipPct) << bench;
    }
}

TEST(Integration, HwlRecoversDeuceLifetime)
{
    // Figure 14's mechanism end-to-end: DEUCE alone leaves hot
    // positions; DEUCE+HWL approaches the perfect-leveling bound.
    auto run = [&](WearLevelingConfig::Rotation rot) {
        BenchmarkProfile p = smallProfile("libq");
        SyntheticWorkload workload(p, 60000);
        auto otp = std::make_unique<FastOtpEngine>(3);
        auto scheme = makeScheme("deuce", *otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = true;
        // Scaled-down Start-Gap region and interval so the cumulative
        // rotation sweeps all 512 bit positions within the test, the
        // way years of traffic would on a real device.
        wl.numLines = 16;
        wl.gapWriteInterval = 1;
        wl.rotation = rot;
        MemorySystem memory(*scheme, wl, PcmConfig{},
                            [&](uint64_t addr) {
                                return workload.initialContents(addr);
                            });
        TraceEvent ev;
        while (workload.next(ev)) {
            if (ev.kind == EventKind::Writeback) {
                memory.write(ev.lineAddr, ev.data);
            }
        }
        return std::make_pair(
            estimateLifetime(memory.wearTracker()).nonUniformity,
            perfectLeveledLifetime(memory.wearTracker()) /
                estimateLifetime(memory.wearTracker())
                    .writesToFailure);
    };
    auto [nonuniform_none, gap_none] =
        run(WearLevelingConfig::Rotation::None);
    auto [nonuniform_hwl, gap_hwl] =
        run(WearLevelingConfig::Rotation::Hwl);
    // Without HWL the hot positions dominate...
    EXPECT_GT(nonuniform_none, 4.0);
    // ...with HWL wear approaches uniform and the distance to the
    // perfect-leveling bound shrinks dramatically.
    EXPECT_LT(nonuniform_hwl, nonuniform_none / 2.5);
    EXPECT_LT(gap_hwl, gap_none / 2.5);
}

TEST(Integration, CacheFilteredStreamFeedsSecureMemory)
{
    // The full system: accesses -> cache hierarchy -> writebacks ->
    // encrypted PCM. Verifies the plumbing composes and dirty
    // evictions decrypt correctly.
    auto otp = std::make_unique<FastOtpEngine>(17);
    auto scheme = makeScheme("deuce", *otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    std::map<uint64_t, CacheLine> truth;
    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [&](uint64_t) { return CacheLine{}; });

    CacheConfig l4;
    l4.capacityBytes = 16 * 1024;
    l4.ways = 4;
    CacheHierarchy cache({l4});

    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        uint64_t addr = rng.nextBounded(1024);
        bool is_write = rng.nextBool(0.4);
        if (is_write) {
            CacheLine data = truth[addr];
            data.setField(0, 64, rng.next());
            truth[addr] = data;
        }
        for (uint64_t victim : cache.access(addr, is_write)) {
            memory.write(victim, truth[victim]);
        }
    }
    for (uint64_t victim : cache.flush()) {
        memory.write(victim, truth[victim]);
    }
    // After the full drain, memory agrees with ground truth on every
    // line that was ever dirtied.
    for (const auto &[addr, data] : truth) {
        ASSERT_EQ(memory.read(addr), data) << "line " << addr;
    }
    EXPECT_GT(memory.energy().writes(), 100u);
}

TEST(Integration, WriteSlotOrderingAcrossSchemes)
{
    // Figure 15's shape: unencrypted < DEUCE < encrypted slot usage.
    ExperimentOptions opt;
    opt.writebacks = 8000;
    opt.otpEngine = makeFastOtpEngine;
    opt.wl.verticalEnabled = false;

    std::map<std::string, double> slots;
    for (const char *id : {"nodcw", "deuce", "encr"}) {
        std::vector<ExperimentRow> rows;
        for (const BenchmarkProfile &p : spec2006Profiles()) {
            BenchmarkProfile q = p;
            q.workingSetLines = 512;
            rows.push_back(runExperiment(q, id, opt));
        }
        slots[id] = averageOf(rows, &ExperimentRow::avgSlots);
    }
    EXPECT_NEAR(slots["encr"], 4.0, 0.05);
    EXPECT_LT(slots["deuce"], 3.3);
    EXPECT_LT(slots["nodcw"], slots["deuce"]);
}

} // namespace
} // namespace deuce
