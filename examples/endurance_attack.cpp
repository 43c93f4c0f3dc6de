/**
 * @file
 * Scenario: an endurance attack against PCM, and the layered defense
 * (Section 7.3 of the paper + the integrity extension).
 *
 * Act 1 — a malicious program hammers one line to wear it out. The
 *         write-stream detector flags it within one observation
 *         window, while the benign SPEC-like workloads never trip it.
 * Act 2 — the attack runs against the end-of-life fault model: cells
 *         stick as their endurance budgets drain, ECP entries absorb
 *         the first failures, and the line is finally decommissioned.
 *         Wear leveling multiplies the writes the attacker needs, and
 *         the detector flags the stream long before any cell sticks.
 * Act 3 — a memory/bus tamperer tries the counter-rollback attack of
 *         footnote 1; the Merkle counter tree catches the replay.
 * Act 4 — the persistence attack: the adversary crashes the machine
 *         repeatedly while write counters are lazily persisted. Each
 *         lazy crash opens a pad-reuse window the recovery engine
 *         must detect (MAC + Merkle) and close by re-encrypting the
 *         line; write-through counters never expose a pad but pay a
 *         metadata write on every store.
 *
 *   $ ./endurance_attack
 */

#include <iostream>

#include "common/rng.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "sim/memory_system.hh"
#include "sim/report.hh"
#include "trace/synthetic.hh"
#include "wear/attack_detector.hh"

namespace
{

using namespace deuce;

void
act1Detection()
{
    std::cout << "--- Act 1: detecting the write stream ---\n";

    // Benign workload: calibrated mcf.
    {
        SyntheticWorkload w(profileByName("mcf"), 60000);
        AttackDetector detector(4096, 0.05);
        uint64_t flags = 0;
        TraceEvent ev;
        while (w.next(ev)) {
            if (ev.kind == EventKind::Writeback) {
                flags += detector.onWrite(ev.lineAddr) ? 1 : 0;
            }
        }
        std::cout << "  benign mcf: " << flags
                  << " lines flagged (max single-line share "
                  << fmt(detector.maxObservedShare() * 100.0, 1)
                  << "%)\n";
    }

    // Attacker: 40% of writes hammer one line.
    {
        Rng rng(13);
        AttackDetector detector(4096, 0.05);
        uint64_t writes_to_detect = 0;
        for (uint64_t i = 0; i < 100000; ++i) {
            uint64_t addr =
                rng.nextBool(0.4) ? 666 : rng.nextBounded(4096);
            if (detector.onWrite(addr) && writes_to_detect == 0) {
                writes_to_detect = detector.writes();
            }
        }
        std::cout << "  attacker: flagged after " << writes_to_detect
                  << " writes (line 666, share "
                  << fmt(detector.maxObservedShare() * 100.0, 1)
                  << "%)\n";
    }
}

void
act2FaultLifetime()
{
    std::cout << "\n--- Act 2: end-of-life under attack, per WL "
                 "config ---\n";

    struct Setup
    {
        const char *name;
        bool vertical;
        WearLevelingConfig::Engine engine;
    };
    const Setup setups[] = {
        {"No rotation", false, WearLevelingConfig::Engine::StartGap},
        {"Start-Gap + HWL(hash)", true,
         WearLevelingConfig::Engine::StartGap},
        {"Security Refresh + HWL(hash)", true,
         WearLevelingConfig::Engine::SecurityRefresh},
    };

    Table t({"config", "detected @", "first stuck @",
             "ECP corrections", "decommissioned @"});
    for (const Setup &s : setups) {
        auto otp = makeAesOtpEngine(3);
        auto scheme = makeScheme("deuce", *otp);
        WearLevelingConfig wl;
        wl.verticalEnabled = s.vertical;
        if (s.vertical) {
            wl.engine = s.engine;
            wl.numLines = 16; // time-scaled, as in bench_fig14
            wl.gapWriteInterval = 1;
            wl.rotation = WearLevelingConfig::Rotation::HwlHashed;
        }
        // One shared seed: every config faces identical cell budgets,
        // scaled down (like bench_fault_lifetime) so end of life
        // arrives within the demo.
        FaultConfig fault;
        fault.enabled = true;
        fault.meanEndurance = 1500.0;
        fault.enduranceSigma = 0.2;
        fault.ecpEntries = 4;
        fault.seed = 0xa77ac;
        MemorySystem memory(*scheme, wl, PcmConfig{},
                            [](uint64_t) { return CacheLine{}; },
                            fault);

        // The attack stream of Act 1: 40% of writes hammer line 7's
        // first word, the rest spread over a small working set.
        AttackDetector detector(16, 0.2);
        Rng rng(17);
        CacheLine data;
        uint64_t detected_at = 0;
        uint64_t first_stuck_at = 0;
        uint64_t decommissioned_at = 0;
        const FaultStats &fs = memory.fault()->stats();
        for (uint64_t i = 1; i <= 400000; ++i) {
            uint64_t addr =
                rng.nextBool(0.4) ? 7 : rng.nextBounded(16);
            data.setField(0, 16, rng.next() | 1);
            if (detector.onWrite(addr) && detected_at == 0) {
                detected_at = i;
            }
            memory.write(addr, data);
            if (first_stuck_at == 0 && fs.stuckCells > 0) {
                first_stuck_at = i;
            }
            if (fs.decommissionedLines > 0) {
                decommissioned_at = i;
                break;
            }
        }
        auto at = [](uint64_t writes) {
            return writes ? fmt(static_cast<double>(writes), 0) +
                                " writes"
                          : std::string("never");
        };
        t.addRow({s.name, at(detected_at), at(first_stuck_at),
                  fmt(static_cast<double>(fs.correctedWrites), 0),
                  at(decommissioned_at)});
    }
    t.print(std::cout);
    std::cout << "  (detection fires orders of magnitude before the "
                 "first cell sticks;\n   rotation multiplies the "
                 "writes needed to retire the line)\n";
}

void
act3Tampering()
{
    std::cout << "\n--- Act 3: counter rollback vs the Merkle tree ---\n";
    auto otp = makeAesOtpEngine(21);
    auto scheme = makeScheme("deuce", *otp);
    PersistConfig persist;
    persist.enabled = true;
    persist.policy = PersistConfig::Policy::WriteThrough;
    persist.integrity = true;
    persist.numLines = 256;
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem memory(*scheme, wl, PcmConfig{}, {}, FaultConfig{},
                        persist);

    CacheLine v1, v2;
    v1.setField(0, 64, 0x1111);
    v2.setField(0, 64, 0x2222);
    memory.write(9, v1);
    LineSnapshot old_snapshot = memory.snapshot(9);
    memory.write(9, v2);

    memory.replaySnapshot(9, old_snapshot);
    CacheLine out;
    ReadStatus status = memory.readVerified(9, out);
    std::cout << "  replayed old (ciphertext, counter, MAC) triple: "
              << (status == ReadStatus::CounterTampered
                      ? "DETECTED (root mismatch)"
                      : "missed!")
              << '\n';
}

void
act4CrashRecovery()
{
    std::cout << "\n--- Act 4: persistence attack -- crash/recovery "
                 "cycles ---\n";

    struct Setup
    {
        const char *name;
        PersistConfig::Policy policy;
    };
    const Setup setups[] = {
        {"lazy (epoch 64)", PersistConfig::Policy::Lazy},
        {"battery-backed", PersistConfig::Policy::BatteryBacked},
        {"write-through", PersistConfig::Policy::WriteThrough},
    };

    Table t({"policy", "stale lines", "pads exposed", "repaired",
             "recovery us"});
    for (const Setup &s : setups) {
        auto otp = makeAesOtpEngine(33);
        auto scheme = makeScheme("encr", *otp);
        PersistConfig persist;
        persist.enabled = true;
        persist.policy = s.policy;
        persist.flushEpoch = 64;
        WearLevelingConfig wl;
        wl.verticalEnabled = false;
        MemorySystem memory(*scheme, wl, PcmConfig{},
                            [](uint64_t) { return CacheLine{}; },
                            FaultConfig{}, persist);
        RecoveryEngine engine(*scheme);

        // Six power cycles; each runs a write burst over a small
        // working set and then loses power mid-epoch.
        Rng rng(29);
        CacheLine data;
        uint64_t stale = 0;
        uint64_t exposed = 0;
        uint64_t repaired = 0;
        double recovery_ns = 0.0;
        for (int cycle = 0; cycle < 6; ++cycle) {
            for (int i = 0; i < 200; ++i) {
                data.setField(0, 64, rng.next());
                memory.write(rng.nextBounded(32), data);
            }
            CrashImage image = memory.crash(false);
            RecoveryOutcome out = engine.run(image);
            memory.adoptRecovery(out);
            stale += out.report.staleLines;
            exposed += out.report.padReuseWindow;
            repaired += out.report.repairedLines;
            recovery_ns += out.report.recoveryNs;
        }
        t.addRow({s.name, fmt(static_cast<double>(stale), 0),
                  fmt(static_cast<double>(exposed), 0),
                  fmt(static_cast<double>(repaired), 0),
                  fmt(recovery_ns / 1000.0, 1)});
    }
    t.print(std::cout);
    std::cout << "  (every lazy crash opens pad-reuse windows that "
                 "recovery closes by\n   re-encrypting the line; "
                 "write-through and battery-backed queues never\n"
                 "   expose a pad)\n";
}

} // namespace

int
main()
{
    act1Detection();
    act2FaultLifetime();
    act3Tampering();
    act4CrashRecovery();
    return 0;
}
