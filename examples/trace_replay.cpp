/**
 * @file
 * Scenario: capture a workload to a trace file, then replay the
 * identical stream through several schemes for an apples-to-apples
 * comparison (the methodology behind every figure in the paper).
 *
 *   $ ./trace_replay [benchmark] [writebacks] [trace_path]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli_parse.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"
#include "sim/report.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"

namespace
{

using namespace deuce;

} // namespace

int
main(int argc, char **argv)
{
    const char *synopsis = "[benchmark] [writebacks] [trace_path]";
    if (argc > 4) {
        usageExit(argv[0], synopsis);
    }
    std::string bench = argc > 1 ? argv[1] : "omnetpp";
    uint64_t writebacks =
        argc > 2 ? valueOrUsage(parseUnsigned(argv[2]), argv[0], synopsis)
                 : 30000;
    std::string path = argc > 3 ? argv[3] : "/tmp/deuce_replay.trc";

    BenchmarkProfile profile = profileByName(bench);
    profile.workingSetLines = 2048;

    // --- capture ---------------------------------------------------
    uint64_t events = static_cast<uint64_t>(
        writebacks * (profile.mpki + profile.wbpki) / profile.wbpki);
    SyntheticWorkload workload(profile, events);
    {
        TraceWriter writer(path);
        TraceEvent ev;
        while (workload.next(ev)) {
            writer.write(ev);
        }
        std::cout << "captured " << writer.count() << " events ("
                  << workload.writebacksProduced()
                  << " writebacks) from " << bench << " to " << path
                  << "\n\n";
    }

    // --- replay through each scheme --------------------------------
    Table t({"scheme", "flips %", "slots", "tracking bits"});
    for (const std::string &id : allSchemeIds()) {
        TraceReader reader(path);
        auto otp = makeAesOtpEngine(1);
        auto scheme = makeScheme(id, *otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        // Re-create the generator only to recover the deterministic
        // initial line contents for installs.
        SyntheticWorkload initials(profile, 0);
        MemorySystem memory(*scheme, wl, PcmConfig{},
                            [&](uint64_t addr) {
                                return initials.initialContents(addr);
                            });
        TraceEvent ev;
        while (reader.next(ev)) {
            if (ev.kind == EventKind::Writeback) {
                memory.write(ev.lineAddr, ev.data);
            }
        }
        t.addRow({scheme->name(),
                  fmt(memory.flipStat().mean() * 100.0, 1),
                  fmt(memory.slotStat().mean(), 2),
                  std::to_string(scheme->trackingBitsPerLine())});
    }
    t.print(std::cout);

    std::remove(path.c_str());
    return 0;
}
