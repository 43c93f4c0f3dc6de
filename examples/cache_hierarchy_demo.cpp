/**
 * @file
 * Scenario: the full processor-side path of Table 1 — a CPU access
 * stream filtered through the L1/L2/L3/L4 cache hierarchy, with the
 * surviving writebacks landing in a DEUCE-encrypted PCM.
 *
 * Shows (a) how the 64MB L4 turns hundreds of accesses per kilo-
 * instruction into a few writebacks per kilo-instruction (the regime
 * of Table 2), and (b) that the encrypted memory behaves identically
 * whether driven by this emergent stream or by the calibrated
 * generators the figures use.
 *
 *   $ ./cache_hierarchy_demo [accesses]
 */

#include <iostream>

#include "common/cli_parse.hh"
#include "cache/cache.hh"
#include "core/secure_memory.hh"
#include "pcm/address_map.hh"
#include "sim/report.hh"
#include "trace/cpu_stream.hh"

namespace
{

using namespace deuce;

/** Scaled-down Table 1 hierarchy (1/8th sizes, same ratios). */
std::vector<CacheConfig>
hierarchy()
{
    CacheConfig l1{"L1", 32 * 1024 / 8, 8, 64};
    CacheConfig l2{"L2", 256 * 1024 / 8, 8, 64};
    CacheConfig l3{"L3", 1024 * 1024 / 8, 8, 64};
    CacheConfig l4{"L4", 64ull * 1024 * 1024 / 8, 16, 64};
    return {l1, l2, l3, l4};
}

} // namespace

int
main(int argc, char **argv)
{
    const char *synopsis = "[accesses]";
    if (argc > 2) {
        usageExit(argv[0], synopsis);
    }
    uint64_t accesses = 2'000'000;
    if (argc > 1) {
        accesses =
            valueOrUsage(parseUnsigned(argv[1]), argv[0], synopsis);
    }

    CacheHierarchy caches(hierarchy());
    SecureMemoryConfig cfg;
    cfg.scheme = "deuce";
    SecureMemory memory(cfg);
    AddressMap address_map;

    CpuStreamConfig stream_cfg;
    CpuStream stream(stream_cfg);

    // Every dirty line's current contents, so evictions carry data.
    std::unordered_map<uint64_t, CacheLine> contents;
    Rng rng(1);

    uint64_t last_icount = 0;
    std::array<uint64_t, 32> bank_writes{};
    for (uint64_t i = 0; i < accesses; ++i) {
        CpuAccess access = stream.next();
        last_icount = access.icount;
        if (access.isWrite) {
            CacheLine &line = contents[access.lineAddr];
            line.setField(0, 64, rng.next());
        }
        for (uint64_t victim :
             caches.access(access.lineAddr, access.isWrite)) {
            memory.writeLine(victim, contents[victim]);
            ++bank_writes[address_map.flatBank(victim)];
        }
    }

    double ki = static_cast<double>(last_icount) / 1000.0;
    Table t({"level", "accesses", "miss rate", "writebacks"});
    const char *names[4] = {"L1", "L2", "L3", "L4"};
    for (unsigned level = 0; level < caches.numLevels(); ++level) {
        const SetAssocCache &c = caches.level(level);
        t.addRow({names[level], std::to_string(c.accesses()),
                  fmt(c.missRatio() * 100.0, 1) + "%",
                  std::to_string(c.writebacks())});
    }
    t.print(std::cout);

    SecureMemoryStats stats = memory.stats();
    std::cout << "\nAPKI " << fmt(accesses / ki, 1) << " -> L4 MPKI "
              << fmt(caches.level(3).misses() / ki, 2) << ", WBPKI "
              << fmt(stats.lineWrites / ki, 2)
              << "  (Table 2 regime: 1-10 WBPKI)\n";
    std::cout << "PCM writes: " << stats.lineWrites << " at "
              << fmt(stats.avgFlipPct, 1)
              << "% bits flipped per write under DEUCE\n";

    uint64_t max_bank = 0, min_bank = ~uint64_t{0};
    for (uint64_t w : bank_writes) {
        max_bank = std::max(max_bank, w);
        min_bank = std::min(min_bank, w);
    }
    std::cout << "bank interleave balance: min " << min_bank
              << " / max " << max_bank << " writes per bank\n";
    return stats.lineWrites > 0 ? 0 : 1;
}
