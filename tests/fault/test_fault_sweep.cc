/**
 * @file
 * Fault model under the sweep engine: thread-count determinism of
 * fault injection, counter plumbing into rows, passivity of the model
 * with respect to the measured statistics, and the headline endurance
 * ordering (DEUCE outlives full encryption at every ECP size).
 */

#include <gtest/gtest.h>

#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"
#include "sim/sweep.hh"
#include "trace/synthetic.hh"

namespace deuce
{
namespace
{

SweepSpec
faultSpec()
{
    SweepSpec spec;
    for (const char *name : {"libq", "mcf"}) {
        BenchmarkProfile p = profileByName(name);
        p.workingSetLines = 64;
        spec.benchmarks.push_back(p);
    }
    spec.options.writebacks = 4000;
    spec.options.otpEngine = makeFastOtpEngine;
    spec.options.wl.verticalEnabled = false;
    // ~60 writes/line at 4000 writebacks over 64 lines: a 40-flip
    // budget guarantees even the sparser benchmarks wear cells out.
    spec.options.fault.enabled = true;
    spec.options.fault.meanEndurance = 40.0;
    spec.options.fault.enduranceSigma = 0.2;
    spec.options.fault.ecpEntries = 2;
    spec.add("encr", "Encr").add("deuce", "DEUCE");
    return spec;
}

void
expectIdenticalFaultRows(const ExperimentRow &a,
                         const ExperimentRow &b)
{
    EXPECT_EQ(a.bench, b.bench);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_DOUBLE_EQ(a.flipPct, b.flipPct);
    EXPECT_DOUBLE_EQ(a.avgSlots, b.avgSlots);
    EXPECT_DOUBLE_EQ(a.maxFlipRate, b.maxFlipRate);
    EXPECT_DOUBLE_EQ(a.wearNonUniformity, b.wearNonUniformity);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.faultEnabled, b.faultEnabled);
    EXPECT_EQ(a.stuckCells, b.stuckCells);
    EXPECT_EQ(a.correctedWrites, b.correctedWrites);
    EXPECT_EQ(a.uncorrectableErrors, b.uncorrectableErrors);
    EXPECT_EQ(a.decommissionedLines, b.decommissionedLines);
    EXPECT_EQ(a.writesToFirstUncorrectable,
              b.writesToFirstUncorrectable);
}

TEST(FaultSweep, DeterministicAcrossThreadCounts)
{
    SweepSpec serial = faultSpec();
    serial.threads = 1;
    SweepResult a = runSweep(serial);

    for (unsigned threads : {4u, 8u}) {
        SweepSpec par = faultSpec();
        par.threads = threads;
        SweepResult b = runSweep(par);
        ASSERT_EQ(a.schemeCount(), b.schemeCount());
        ASSERT_EQ(a.benchCount(), b.benchCount());
        for (size_t s = 0; s < a.schemeCount(); ++s) {
            for (size_t bench = 0; bench < a.benchCount(); ++bench) {
                expectIdenticalFaultRows(a.cell(s, bench),
                                         b.cell(s, bench));
            }
        }
    }
}

TEST(FaultSweep, CountersFlowIntoRows)
{
    SweepResult result = runSweep(faultSpec());
    for (const ExperimentRow &row : result.flatRows()) {
        EXPECT_TRUE(row.faultEnabled);
        // 4000 writes at 300-flip budgets must wear cells out.
        EXPECT_GT(row.stuckCells + row.decommissionedLines, 0u)
            << row.bench << '/' << row.scheme;
    }
}

TEST(FaultSweep, ModelIsPassiveTowardMeasuredStatistics)
{
    // The fault domain observes the write stream; it must not perturb
    // the scheme's own statistics. A fault-enabled sweep therefore
    // reports bit-identical flip/slot/wear numbers to a disabled one
    // — which is exactly why a disabled run matches the pre-fault
    // output of the library.
    SweepSpec with = faultSpec();
    SweepSpec without = faultSpec();
    without.options.fault = FaultConfig{};
    ASSERT_FALSE(without.options.fault.enabled);

    SweepResult a = runSweep(with);
    SweepResult b = runSweep(without);
    for (size_t s = 0; s < a.schemeCount(); ++s) {
        for (size_t bench = 0; bench < a.benchCount(); ++bench) {
            const ExperimentRow &fa = a.cell(s, bench);
            const ExperimentRow &fb = b.cell(s, bench);
            EXPECT_DOUBLE_EQ(fa.flipPct, fb.flipPct);
            EXPECT_DOUBLE_EQ(fa.avgSlots, fb.avgSlots);
            EXPECT_DOUBLE_EQ(fa.maxFlipRate, fb.maxFlipRate);
            EXPECT_DOUBLE_EQ(fa.wearNonUniformity,
                             fb.wearNonUniformity);
            EXPECT_EQ(fa.writebacks, fb.writebacks);
            // Only the counters differ.
            EXPECT_TRUE(fa.faultEnabled);
            EXPECT_FALSE(fb.faultEnabled);
            EXPECT_EQ(fb.stuckCells, 0u);
            EXPECT_EQ(fb.writesToFirstUncorrectable, 0u);
        }
    }
}

/** Line writes a scheme survives before the first uncorrectable. */
uint64_t
writesToFirstUncorrectable(const std::string &scheme_id, unsigned ecp)
{
    BenchmarkProfile p = profileByName("mcf");
    p.workingSetLines = 64;
    FastOtpEngine otp(7);
    auto scheme = makeScheme(scheme_id, otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    FaultConfig fault;
    fault.enabled = true;
    fault.meanEndurance = 300.0;
    fault.enduranceSigma = 0.2;
    fault.ecpEntries = ecp;
    // One shared seed: every scheme faces the same cell budgets.
    fault.seed = 0xccd1;

    SyntheticWorkload workload(p, 3000000);
    MemorySystem memory(*scheme, wl, PcmConfig{},
                        [&](uint64_t addr) {
                            return workload.initialContents(addr);
                        },
                        fault);
    TraceEvent ev;
    while (workload.next(ev)) {
        if (ev.kind == EventKind::Writeback &&
            memory.write(ev.lineAddr, ev.data).faultUncorrectable) {
            break;
        }
    }
    uint64_t first =
        memory.fault()->stats().firstUncorrectableWrite;
    EXPECT_GT(first, 0u) << scheme_id << " never wore out";
    return first;
}

TEST(FaultSweep, DeuceOutlivesFullEncryptionAtEveryEcpSize)
{
    for (unsigned ecp : {0u, 2u, 4u}) {
        uint64_t encr = writesToFirstUncorrectable("encr", ecp);
        uint64_t deuce = writesToFirstUncorrectable("deuce", ecp);
        EXPECT_GT(deuce, encr) << "ECP-" << ecp;
    }
}

} // namespace
} // namespace deuce
