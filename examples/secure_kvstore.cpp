/**
 * @file
 * Scenario: a multi-tenant persistent key-value store served from
 * sharded, encrypted PCM.
 *
 * In-memory databases are the motivating workload for NVM main
 * memory: small values are updated in place at high rates, and every
 * update becomes a writeback. This example builds a fixed-slot KV
 * store on top of the queue-driven serving core
 * (serve/sharded_memory_system.hh): four tenants, each with its own
 * AES key domain, share four shards behind NVMe-style SQ/CQ
 * queue-pairs, driven by two client threads. It then compares the
 * write cost of running the store over naive counter-mode encryption
 * vs DEUCE vs DynDEUCE, and demonstrates tenant isolation — the same
 * key written by every tenant stays private to each key domain.
 *
 *   $ ./secure_kvstore [num_ops]
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_parse.hh"
#include "common/rng.hh"
#include "serve/sharded_memory_system.hh"

namespace
{

using namespace deuce;
using serve::Completion;
using serve::ReqOp;
using serve::Request;
using serve::ServeConfig;
using serve::ShardedMemorySystem;

constexpr unsigned kTenants = 4;
constexpr unsigned kClients = 2;
constexpr unsigned kShards = 4;

/**
 * A toy fixed-capacity hash table, one per tenant, stored in the
 * shared serving core: each bucket is one 64-byte line holding an
 * 8-byte key, a 16-byte value and an 8-byte version counter. All
 * traffic flows through a ClientPort as explicit request/completion
 * pairs; this client keeps one request in flight (synchronous), so
 * the first completion polled is always its own.
 */
class SecureKvStore
{
  public:
    static constexpr uint64_t kBuckets = 4096;
    /** log2(kBuckets): width of the tenant-local address field. */
    static constexpr unsigned kAddrBits = 12;

    SecureKvStore(ShardedMemorySystem::ClientPort &port,
                  uint16_t tenant)
        : port_(port), tenant_(tenant)
    {}

    void
    put(uint64_t key, const std::string &value)
    {
        CacheLine data = readLine(bucketOf(key));
        data.setField(0, 64, key);
        for (unsigned i = 0; i < 16; ++i) {
            data.setByte(8 + i,
                         i < value.size()
                             ? static_cast<uint8_t>(value[i]) : 0);
        }
        // Bump the version field (byte 24..31).
        data.setField(24 * 8, 64, data.field(24 * 8, 64) + 1);
        writeLine(bucketOf(key), data);
    }

    std::string
    get(uint64_t key)
    {
        CacheLine data = readLine(bucketOf(key));
        if (data.field(0, 64) != key) {
            return {};
        }
        std::string value;
        for (unsigned i = 0; i < 16; ++i) {
            char c = static_cast<char>(data.byte(8 + i));
            if (c == '\0') {
                break;
            }
            value.push_back(c);
        }
        return value;
    }

  private:
    static uint64_t
    bucketOf(uint64_t key)
    {
        key ^= key >> 33;
        key *= 0xff51afd7ed558ccdull;
        key ^= key >> 33;
        return key % kBuckets;
    }

    CacheLine
    readLine(uint64_t line)
    {
        Request req;
        req.op = ReqOp::Read;
        req.tenant = tenant_;
        req.addr = line;
        return sync(req).data;
    }

    void
    writeLine(uint64_t line, const CacheLine &data)
    {
        Request req;
        req.op = ReqOp::Write;
        req.tenant = tenant_;
        req.addr = line;
        req.data = data;
        sync(req);
    }

    Completion
    sync(Request req)
    {
        req.seq = seq_++;
        req.submitNs = serve::nowNs();
        while (!port_.trySubmit(req)) {
            std::this_thread::yield();
        }
        Completion done;
        while (!port_.tryPoll(done)) {
            std::this_thread::yield();
        }
        return done;
    }

    ShardedMemorySystem::ClientPort &port_;
    uint16_t tenant_;
    uint64_t seq_ = 0;
};

struct WorkloadResult
{
    double avgFlipPct = 0.0;
    uint64_t lineWrites = 0;
    double energyUj = 0.0;
    double opsPerSec = 0.0;
};

WorkloadResult
runWorkload(const std::string &scheme, uint64_t ops, bool verbose)
{
    ServeConfig cfg;
    cfg.scheme = scheme;
    cfg.shards = kShards;
    cfg.tenants = kTenants;
    cfg.tenantAddrBits = SecureKvStore::kAddrBits;
    // The wear-leveled region spans all tenants' buckets.
    cfg.wearLeveling.numLines = kTenants * SecureKvStore::kBuckets;
    cfg.wearLeveling.rotation = WearLevelingConfig::Rotation::Hwl;

    ShardedMemorySystem srv(cfg);
    std::vector<ShardedMemorySystem::ClientPort> ports;
    ports.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        ports.push_back(srv.addClient());
    }
    srv.start();

    // Client thread c serves tenants {t : t % kClients == c}: every
    // tenant's store has a single driving thread.
    uint64_t start = serve::nowNs();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<SecureKvStore> stores;
            for (unsigned t = c; t < kTenants; t += kClients) {
                stores.emplace_back(ports[c],
                                    static_cast<uint16_t>(t));
            }
            // Zipf-popular keys, short values: a cache/session-store
            // shape, one independent stream per tenant.
            Rng rng(7 + c);
            ZipfSampler keys(10000, 0.9);
            uint64_t perTenant = ops / kTenants;
            for (uint64_t i = 0; i < perTenant; ++i) {
                for (auto &store : stores) {
                    store.put(keys.sample(rng),
                              "v" + std::to_string(
                                        rng.nextBounded(100000)));
                }
            }

            // Tenant isolation: every tenant writes the SAME key with
            // a different value; each must read back only its own
            // (its own key domain, its own address space).
            for (size_t s = 0; s < stores.size(); ++s) {
                unsigned tenant = c + kClients * s;
                stores[s].put(424242,
                              "secret-" + std::to_string(tenant));
            }
        });
    }
    for (auto &t : clients) {
        t.join();
    }
    double seconds =
        static_cast<double>(serve::nowNs() - start) / 1e9;

    // Verify each tenant reads back its own sentinel (the workers are
    // joined, so reusing their ports from this thread is safe).
    for (unsigned t = 0; t < kTenants; ++t) {
        SecureKvStore store(ports[t % kClients],
                            static_cast<uint16_t>(t));
        if (store.get(424242) != "secret-" + std::to_string(t)) {
            std::cerr << "KV store corruption or tenant leak under "
                      << scheme << " (tenant " << t << ")!\n";
            std::exit(1);
        }
    }
    srv.stop();

    auto counters = srv.aggregateCounters();
    WorkloadResult result;
    result.avgFlipPct = counters.flipStat().mean() * 100.0;
    result.lineWrites = counters.energy().writes();
    result.energyUj = counters.energy().dynamicEnergyPj() / 1e6;
    result.opsPerSec = static_cast<double>(ops) / seconds;
    if (verbose) {
        std::cout << scheme << ": " << result.lineWrites
                  << " line writes, " << result.avgFlipPct
                  << "% bits flipped/write, " << result.energyUj
                  << " uJ, "
                  << static_cast<uint64_t>(result.opsPerSec)
                  << " puts/s\n";
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *synopsis = "[ops]";
    if (argc > 2) {
        usageExit(argv[0], synopsis);
    }
    uint64_t ops = 20000;
    if (argc > 1) {
        ops = valueOrUsage(parseUnsigned(argv[1]), argv[0], synopsis);
    }

    std::cout << "KV store: " << ops << " put() ops across "
              << kTenants << " tenants on " << kShards
              << " shards of encrypted PCM (" << kClients
              << " client threads):\n\n";
    WorkloadResult encr = runWorkload("encr", ops, true);
    WorkloadResult deuce = runWorkload("deuce", ops, true);
    WorkloadResult dyn = runWorkload("dyndeuce", ops, true);

    std::cout << "\nDEUCE cuts the KV store's write cost to "
              << static_cast<int>(100.0 * deuce.avgFlipPct /
                                  encr.avgFlipPct)
              << "% of naive encryption (DynDEUCE: "
              << static_cast<int>(100.0 * dyn.avgFlipPct /
                                  encr.avgFlipPct)
              << "%), with every tenant's data confined to its own "
                 "key domain.\n";
    return deuce.avgFlipPct < encr.avgFlipPct ? 0 : 1;
}
