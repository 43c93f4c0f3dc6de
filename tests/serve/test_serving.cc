/**
 * @file
 * Tests for the sharded serving core: tenant key domains, tenant
 * address-space isolation, MemorySystem movability, per-bank read
 * counters, completion integrity, queue backpressure, and the
 * headline determinism property — sharded execution produces
 * bit-identical aggregate counters to a single-threaded sequential
 * replay of the same request stream, at every shard count. The
 * multi-threaded cases run under ThreadSanitizer via the tier-1
 * DEUCE_TSAN branch.
 */

#include <map>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/key_domain.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"
#include "serve/sharded_memory_system.hh"
#include "serve/tenant_scheme.hh"
#include "sim/memory_system.hh"

namespace deuce
{
namespace
{

using serve::Completion;
using serve::ReqOp;
using serve::Request;
using serve::ServeConfig;
using serve::ShardedMemorySystem;
using serve::TenantScheme;

CacheLine
patternLine(uint64_t seed)
{
    Rng rng(seed);
    CacheLine line;
    for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
        line.limb(l) = rng.next();
    }
    return line;
}

// ---------------------------------------------------------------------
// Tenant key domains.
// ---------------------------------------------------------------------

TEST(TenantKeyTableTest, SeedsAreDistinctAndReproducible)
{
    TenantKeyTable a(0x1234, 8, makeFastOtpEngine);
    TenantKeyTable b(0x1234, 8, makeFastOtpEngine);
    ASSERT_EQ(a.tenants(), 8u);
    for (unsigned t = 0; t < 8; ++t) {
        // Same master seed -> byte-identical domains.
        EXPECT_EQ(a.keySeed(t), b.keySeed(t));
        // Pure function of the coordinates.
        EXPECT_EQ(a.keySeed(t),
                  TenantKeyTable::deriveTenantSeed(0x1234, t));
        // No two tenants share a key seed.
        for (unsigned u = t + 1; u < 8; ++u) {
            EXPECT_NE(a.keySeed(t), a.keySeed(u));
        }
    }
    // A different master seed re-keys every domain.
    TenantKeyTable c(0x1235, 8, makeFastOtpEngine);
    for (unsigned t = 0; t < 8; ++t) {
        EXPECT_NE(a.keySeed(t), c.keySeed(t));
    }
}

TEST(TenantKeyTableTest, EnginesProduceDomainSeparatedPads)
{
    TenantKeyTable keys(0xfeedface, 2, makeFastOtpEngine);
    // The same (line, counter, block) coordinates must yield different
    // pads in different tenant domains.
    auto p0 = keys.engine(0).padForBlock(42, 7, 0);
    auto p1 = keys.engine(1).padForBlock(42, 7, 0);
    EXPECT_NE(p0, p1);
    // ... and identical pads within one domain (deterministic).
    EXPECT_EQ(p0, keys.engine(0).padForBlock(42, 7, 0));
}

// ---------------------------------------------------------------------
// Tenant address-space isolation at the scheme level.
// ---------------------------------------------------------------------

TEST(TenantSchemeTest, GlobalAddressRoundTrips)
{
    TenantKeyTable keys(1, 4, makeFastOtpEngine);
    TenantScheme scheme(keys, "deuce", 20);
    for (unsigned t = 0; t < 4; ++t) {
        uint64_t addr = TenantScheme::globalAddr(t, 0xabcde, 20);
        EXPECT_EQ(scheme.tenantOf(addr), t);
        EXPECT_EQ(scheme.localOf(addr), 0xabcdeull);
    }
}

TEST(TenantSchemeTest, SameLocalLineSamePlaintextDifferentCiphertext)
{
    TenantKeyTable keys(0xfeedface, 2, makeFastOtpEngine);
    TenantScheme scheme(keys, "encr", 16);
    CacheLine plain = patternLine(99);

    StoredLineState s0, s1;
    scheme.install(TenantScheme::globalAddr(0, 7, 16), plain, s0);
    scheme.install(TenantScheme::globalAddr(1, 7, 16), plain, s1);

    // Different key domains: unrelated ciphertext for identical
    // (local address, plaintext, counter) coordinates ...
    EXPECT_NE(s0.data, s1.data);
    // ... while each tenant still decrypts its own line.
    EXPECT_EQ(scheme.read(TenantScheme::globalAddr(0, 7, 16), s0),
              plain);
    EXPECT_EQ(scheme.read(TenantScheme::globalAddr(1, 7, 16), s1),
              plain);
}

TEST(TenantSchemeTest, InnerSchemeSeesLocalAddress)
{
    TenantKeyTable keys(5, 2, makeFastOtpEngine);
    TenantScheme scheme(keys, "encr", 16);
    // Tenant 1's line must be encrypted with tenant 1's engine at the
    // LOCAL address: reproduce it with a bare inner scheme over the
    // same key domain.
    FastOtpEngine raw(keys.keySeed(1));
    auto inner = makeScheme("encr", raw);

    CacheLine plain = patternLine(3);
    StoredLineState viaTenant, viaInner;
    scheme.install(TenantScheme::globalAddr(1, 123, 16), plain,
                   viaTenant);
    inner->install(123, plain, viaInner);
    EXPECT_EQ(viaTenant.data, viaInner.data);
}

// ---------------------------------------------------------------------
// MemorySystem is a move-only handle (shards in a plain vector).
// ---------------------------------------------------------------------

static_assert(std::is_nothrow_move_constructible_v<MemorySystem>,
              "shards must move into std::vector without copies");
static_assert(!std::is_copy_constructible_v<MemorySystem>,
              "a memory system owns device state; copying is a bug");
static_assert(!std::is_copy_assignable_v<MemorySystem>);

TEST(MemorySystemMoveTest, SurvivesVectorReallocation)
{
    FastOtpEngine otp(7);
    auto scheme = makeScheme("deuce", otp);

    std::vector<MemorySystem> systems;
    // No reserve: growth from 1 -> 2 -> 4 forces move-construction of
    // the existing elements.
    for (int i = 0; i < 5; ++i) {
        systems.emplace_back(*scheme, WearLevelingConfig{}, PcmConfig{},
                             [](uint64_t) { return CacheLine{}; });
    }
    CacheLine line = patternLine(11);
    for (size_t i = 0; i < systems.size(); ++i) {
        systems[i].write(40 + i, line);
        EXPECT_EQ(systems[i].read(40 + i), line);
        EXPECT_EQ(systems[i].energy().writes(), 1u);
    }
}

TEST(MemorySystemMoveTest, MovePreservesCountersAndContents)
{
    FastOtpEngine otp(7);
    auto scheme = makeScheme("deuce", otp);
    MemorySystem a(*scheme, WearLevelingConfig{}, PcmConfig{},
                   [](uint64_t) { return CacheLine{}; });
    CacheLine line = patternLine(21);
    a.write(5, line);
    a.read(5);
    uint64_t flips = a.energy().flips();

    MemorySystem b(std::move(a));
    EXPECT_EQ(b.read(5), line);
    EXPECT_EQ(b.energy().writes(), 1u);
    EXPECT_EQ(b.energy().flips(), flips);
    EXPECT_EQ(b.counters().totalReads(), 2u);
}

// ---------------------------------------------------------------------
// Per-bank read counters.
// ---------------------------------------------------------------------

TEST(BankCountersTest, ReadsAttributeToTheirBank)
{
    FastOtpEngine otp(3);
    auto scheme = makeScheme("deuce", otp);
    PcmConfig pcm; // totalBanks() banks, lineAddr % banks interleave
    MemorySystem sys(*scheme, WearLevelingConfig{}, pcm,
                     [](uint64_t) { return CacheLine{}; });
    unsigned banks = pcm.totalBanks();

    CacheLine line = patternLine(1);
    sys.write(0, line);          // bank 0
    sys.read(0);                 // bank 0
    sys.read(0);                 // bank 0
    sys.read(1);                 // bank 1
    sys.read(banks);             // wraps back to bank 0

    EXPECT_EQ(sys.bankCounters(0).reads, 3u);
    EXPECT_EQ(sys.bankCounters(1).reads, 1u);
    EXPECT_EQ(sys.bankCounters(0).writes, 1u);
    EXPECT_EQ(sys.counters().totalReads(), 4u);
}

// ---------------------------------------------------------------------
// Serving core: completion integrity, backpressure, determinism.
// ---------------------------------------------------------------------

std::vector<Request>
makeTrace(uint64_t seed, unsigned tenants, uint64_t ops,
          uint64_t working_set)
{
    Rng rng(seed);
    std::vector<Request> trace;
    trace.reserve(ops);
    for (uint64_t i = 0; i < ops; ++i) {
        Request req;
        req.tenant = static_cast<uint16_t>(rng.nextBounded(tenants));
        req.addr = rng.nextBounded(working_set);
        req.seq = i;
        if (rng.nextBool(0.5)) {
            req.op = ReqOp::Read;
        } else {
            req.op = ReqOp::Write;
            req.data = patternLine(seed ^ i);
        }
        trace.push_back(req);
    }
    return trace;
}

/** Drive @p trace through one client port, reaping as we go. */
std::vector<Completion>
driveClient(ShardedMemorySystem::ClientPort &port,
            const std::vector<Request> &trace)
{
    std::vector<Completion> done;
    done.reserve(trace.size());
    Completion c;
    for (Request req : trace) {
        req.submitNs = serve::nowNs();
        while (!port.trySubmit(req)) {
            while (port.tryPoll(c)) {
                done.push_back(c);
            }
        }
        while (port.tryPoll(c)) {
            done.push_back(c);
        }
    }
    while (done.size() < trace.size()) {
        if (port.tryPoll(c)) {
            done.push_back(c);
        }
    }
    return done;
}

TEST(ShardedMemorySystemTest, CompletionsMatchRequests)
{
    ServeConfig cfg;
    cfg.scheme = "deuce";
    cfg.shards = 4;
    cfg.tenants = 2;
    cfg.fastOtp = true;
    cfg.tenantAddrBits = 16;

    const auto trace = makeTrace(0xc0ffee, cfg.tenants, 2000, 64);

    ShardedMemorySystem srv(cfg);
    auto port = srv.addClient();
    srv.start();
    auto completions = driveClient(port, trace);
    srv.stop();

    ASSERT_EQ(completions.size(), trace.size());
    EXPECT_EQ(srv.requestsServed(), trace.size());

    // Every submitted seq completes exactly once, with matching
    // coordinates, and read completions return what a shadow model
    // says the line last held.
    std::vector<bool> seen(trace.size(), false);
    std::map<std::pair<unsigned, uint64_t>, CacheLine> shadow;
    // Shadow must apply writes in per-line submission order; sort
    // completions back into seq order (seq == submission index here).
    std::map<uint64_t, const Completion *> bySeq;
    for (const Completion &c : completions) {
        ASSERT_LT(c.seq, trace.size());
        ASSERT_FALSE(seen[c.seq]) << "seq completed twice";
        seen[c.seq] = true;
        bySeq[c.seq] = &c;
        ASSERT_GE(c.completeNs, c.submitNs);
    }
    for (const auto &[seq, c] : bySeq) {
        const Request &req = trace[seq];
        ASSERT_EQ(c->op, req.op);
        ASSERT_EQ(c->tenant, req.tenant);
        ASSERT_EQ(c->addr, req.addr);
        auto key = std::make_pair(unsigned(req.tenant), req.addr);
        if (req.op == ReqOp::Write) {
            shadow[key] = req.data;
        } else {
            auto it = shadow.find(key);
            CacheLine expect =
                it == shadow.end() ? CacheLine{} : it->second;
            ASSERT_EQ(c->data, expect)
                << "read returned stale or foreign data";
        }
    }
}

TEST(ShardedMemorySystemTest, TinyQueuesBackpressureWithoutLoss)
{
    ServeConfig cfg;
    cfg.scheme = "encr";
    cfg.shards = 2;
    cfg.tenants = 1;
    cfg.fastOtp = true;
    cfg.queueCapacity = 4; // forces constant SQ-full / CQ-full edges
    cfg.maxBurst = 2;

    const auto trace = makeTrace(7, 1, 3000, 32);
    ShardedMemorySystem srv(cfg);
    auto port = srv.addClient();
    srv.start();
    auto completions = driveClient(port, trace);
    srv.stop();

    EXPECT_EQ(completions.size(), trace.size());
    EXPECT_EQ(srv.aggregateCounters().deterministicSignature(),
              serve::replaySequential(cfg, trace)
                  .deterministicSignature());
}

TEST(ShardedMemorySystemTest, OutOfRangeTenantAddressIsRejected)
{
    // Tenant 0's local line 0x13 does not fit 4 address bits: composed
    // blindly it would be tenant 1's line 3, read back decrypted under
    // tenant 1's key. The submitting thread gets the fatal error, and
    // nothing reaches a shard.
    ServeConfig cfg;
    cfg.scheme = "encr";
    cfg.shards = 2;
    cfg.tenants = 2;
    cfg.fastOtp = true;
    cfg.tenantAddrBits = 4;

    Request alias;
    alias.op = ReqOp::Read;
    alias.tenant = 0;
    alias.addr = 0x13;
    Request in_range = alias;
    in_range.addr = 0xf;

    ShardedMemorySystem srv(cfg);
    auto port = srv.addClient();
    EXPECT_THROW(port.trySubmit(alias), FatalError);
    EXPECT_TRUE(port.trySubmit(in_range));
    for (unsigned s = 0; s < cfg.shards; ++s) {
        EXPECT_EQ(srv.queueDepth(s), s == srv.shardOf(0xf) ? 1u : 0u);
    }

    EXPECT_THROW(serve::replaySequential(cfg, {in_range, alias}),
                 FatalError);
}

TEST(ShardedMemorySystemTest, UnknownTenantIsRejected)
{
    // A tenant without a key domain used to reach the worker's
    // assertion and abort the process from the worker thread.
    ServeConfig cfg;
    cfg.scheme = "encr";
    cfg.shards = 2;
    cfg.tenants = 2;
    cfg.fastOtp = true;
    cfg.tenantAddrBits = 4;

    Request req;
    req.op = ReqOp::Write;
    req.tenant = 2;
    req.addr = 3;
    req.data = patternLine(1);

    ShardedMemorySystem srv(cfg);
    auto port = srv.addClient();
    EXPECT_THROW(port.trySubmit(req), FatalError);
    EXPECT_THROW(serve::replaySequential(cfg, {req}), FatalError);
}

TEST(ShardedMemorySystemTest, ShardedAggregateMatchesSequentialReplay)
{
    // The headline property: for every shard count, the aggregate
    // integer counters (writes/reads/flips/slots, energy, wear totals,
    // per-bank counters, histogram buckets) are bit-identical to a
    // sequential replay — worker interleave must not matter.
    for (unsigned shards : {1u, 2u, 4u}) {
        for (unsigned clients : {1u, 2u}) {
            ServeConfig cfg;
            cfg.scheme = "deuce";
            cfg.shards = shards;
            cfg.tenants = 4;
            cfg.fastOtp = true;
            cfg.tenantAddrBits = 16;

            // One trace per client over DISJOINT tenants (tenant t is
            // driven by client t % clients) so per-line order is
            // client-local.
            std::vector<std::vector<Request>> traces(clients);
            for (unsigned c = 0; c < clients; ++c) {
                Rng rng(100 + c);
                for (uint64_t i = 0; i < 1500; ++i) {
                    Request req;
                    req.tenant = static_cast<uint16_t>(
                        c + clients * rng.nextBounded(
                                          cfg.tenants / clients));
                    req.addr = rng.nextBounded(96);
                    req.seq = i;
                    if (rng.nextBool(0.4)) {
                        req.op = ReqOp::Read;
                    } else {
                        req.op = ReqOp::Write;
                        req.data = patternLine(i * 31 + c);
                    }
                    traces[c].push_back(req);
                }
            }

            ShardedMemorySystem srv(cfg);
            std::vector<ShardedMemorySystem::ClientPort> ports;
            for (unsigned c = 0; c < clients; ++c) {
                ports.push_back(srv.addClient());
            }
            srv.start();
            std::vector<std::thread> threads;
            for (unsigned c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    driveClient(ports[c], traces[c]);
                });
            }
            for (auto &t : threads) {
                t.join();
            }
            srv.stop();

            // Any fixed interleave of the client traces is a valid
            // sequential reference (per-line order is per-client).
            std::vector<Request> sequential;
            for (uint64_t i = 0; i < 1500; ++i) {
                for (unsigned c = 0; c < clients; ++c) {
                    sequential.push_back(traces[c][i]);
                }
            }
            SCOPED_TRACE(testing::Message()
                         << shards << " shards, " << clients
                         << " clients");
            EXPECT_EQ(srv.aggregateCounters().deterministicSignature(),
                      serve::replaySequential(cfg, sequential)
                          .deterministicSignature());
        }
    }
}

TEST(ShardedMemorySystemTest, StatsRegisterPerShardAndPerTenant)
{
    ServeConfig cfg;
    cfg.shards = 2;
    cfg.tenants = 2;
    cfg.fastOtp = true;
    const auto trace = makeTrace(9, cfg.tenants, 500, 32);

    ShardedMemorySystem srv(cfg);
    auto port = srv.addClient();
    srv.start();
    driveClient(port, trace);
    srv.stop();

    obs::StatRegistry reg;
    srv.registerStats(reg, "serve");
    // Full dotted names resolve for every shard and tenant, and the
    // text dump (one line per visible stat) renders without dying.
    EXPECT_NE(reg.find("serve.shard0.pcm.writes"), nullptr);
    EXPECT_NE(reg.find("serve.shard1.pcm.writes"), nullptr);
    EXPECT_NE(reg.find("serve.shard0.served"), nullptr);
    EXPECT_NE(reg.find("serve.shard1.served"), nullptr);
    EXPECT_NE(reg.find("serve.shard0.sqDepth"), nullptr);
    EXPECT_NE(reg.find("serve.shard0.burst"), nullptr);
    EXPECT_EQ(reg.find("serve.shard2.served"), nullptr);
    std::ostringstream os;
    reg.dumpText(os);
    EXPECT_NE(os.str().find("serve.shard0.pcm.writes"),
              std::string::npos);
    EXPECT_NE(os.str().find("serve.tenant"), std::string::npos);
}

TEST(ShardedMemorySystemTest, TelemetryObservesWithoutPerturbing)
{
    ServeConfig cfg;
    cfg.scheme = "deuce";
    cfg.shards = 2;
    cfg.tenants = 2;
    cfg.fastOtp = true;
    const auto trace = makeTrace(0x7e11e, cfg.tenants, 2000, 64);

    ShardedMemorySystem srv(cfg);

    // Live-safe registry + sampler, sampling concurrently with the
    // workers (TSan covers this via the tier-1 DEUCE_TSAN branch).
    obs::StatRegistry reg;
    srv.registerTelemetry(reg, "serve");
    obs::TelemetryConfig tcfg;
    tcfg.periodMs = 1;
    obs::TelemetrySampler sampler(reg, tcfg);
    srv.attachTelemetry(sampler, "serve");
    for (uint16_t t = 0; t < cfg.tenants; ++t) {
        obs::SloTarget target;
        target.p99Target = 1e9; // generous: alerts stay quiet
        sampler.slo().setTarget(t, target);
    }

    auto port = srv.addClient();
    sampler.start();
    srv.start();
    auto completions = driveClient(port, trace);
    srv.stop();
    sampler.stop();

    ASSERT_EQ(completions.size(), trace.size());

    // The headline property survives live sampling: the aggregate
    // counter signature is still bit-identical to a sequential
    // replay — telemetry observes, never steers.
    EXPECT_EQ(srv.aggregateCounters().deterministicSignature(),
              serve::replaySequential(cfg, trace)
                  .deterministicSignature());

    // Every completion that carried a submit timestamp landed in a
    // shard latency histogram, and the same samples are visible
    // through the per-tenant view.
    uint64_t shardSamples = 0;
    for (unsigned s = 0; s < cfg.shards; ++s) {
        shardSamples += srv.latencyHistogram(s).snapshot().count();
    }
    EXPECT_EQ(shardSamples, trace.size());
    uint64_t tenantSamples = 0;
    for (uint16_t t = 0; t < cfg.tenants; ++t) {
        obs::Log2Histogram merged;
        for (const obs::AtomicLog2Histogram *h :
             srv.tenantLatencyParts(t)) {
            merged.mergeFrom(h->snapshot());
        }
        tenantSamples += merged.count();
    }
    EXPECT_EQ(tenantSamples, trace.size());

    // The sampler saw the run and the final counters.
    EXPECT_GE(sampler.samplesTaken(), 1u);
    const obs::TelemetrySampler::Sample &last = sampler.lastSample();
    double served = 0;
    for (const auto &v : last.values) {
        if (v.name == "serve.served") {
            served = v.value;
        }
    }
    EXPECT_EQ(served, static_cast<double>(trace.size()));
    // Queues drained by stop(): every depth gauge reads 0.
    for (const auto &q : last.queues) {
        EXPECT_EQ(q.depth, 0u);
    }
}

} // namespace
} // namespace deuce
