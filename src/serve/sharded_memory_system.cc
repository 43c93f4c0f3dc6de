/**
 * @file
 * ShardedMemorySystem implementation.
 */

#include "serve/sharded_memory_system.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/registry.hh"

namespace deuce
{
namespace serve
{

namespace
{

/** @p req as a burst entry at global line address @p addr. */
MemRequest
memRequestOf(const Request &req, uint64_t addr)
{
    return MemRequest{req.op == ReqOp::Write ? MemOp::Write : MemOp::Read,
                      addr, req.data};
}

/** A completion echoing @p req's identity and submit stamp. */
Completion
completionOf(const Request &req)
{
    Completion c;
    c.op = req.op;
    c.tenant = req.tenant;
    c.addr = req.addr;
    c.seq = req.seq;
    c.submitNs = req.submitNs;
    return c;
}

/** The key table @p cfg asks for: AES pads unless a test opts out. */
TenantKeyTable
keyTableOf(const ServeConfig &cfg)
{
    return TenantKeyTable(cfg.masterSeed, cfg.tenants,
                          cfg.fastOtp ? makeFastOtpEngine
                                      : makeAesOtpEngine);
}

} // namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
checkedGlobalAddr(const ServeConfig &cfg, const Request &req)
{
    if (req.tenant >= cfg.tenants) {
        deuce_fatal("request for tenant " + std::to_string(req.tenant) +
                    " of " + std::to_string(cfg.tenants));
    }
    if ((req.addr >> cfg.tenantAddrBits) != 0) {
        deuce_fatal("tenant-local line " + std::to_string(req.addr) +
                    " exceeds " + std::to_string(cfg.tenantAddrBits) +
                    " address bits");
    }
    return TenantScheme::globalAddr(req.tenant, req.addr,
                                    cfg.tenantAddrBits);
}

MemoryCounters
replaySequential(const ServeConfig &cfg,
                 const std::vector<Request> &trace)
{
    TenantKeyTable keys = keyTableOf(cfg);
    TenantScheme scheme(keys, cfg.scheme, cfg.tenantAddrBits);
    MemorySystem system(scheme, cfg.wearLeveling, cfg.pcm,
                        [](uint64_t) { return CacheLine{}; });
    // The trace replays in bursts of the workers' size through the
    // same mixed burst path; its signature is bit-identical to an
    // op-at-a-time replay either way.
    deuce_assert(cfg.maxBurst >= 1);
    std::vector<MemRequest> burst;
    for (std::size_t i = 0; i < trace.size(); i += cfg.maxBurst) {
        burst.clear();
        const std::size_t end = std::min<std::size_t>(
            trace.size(), i + cfg.maxBurst);
        for (std::size_t j = i; j < end; ++j) {
            burst.push_back(memRequestOf(trace[j],
                                         checkedGlobalAddr(cfg, trace[j])));
        }
        system.applyBurst(burst);
    }
    return system.counters();
}

ShardedMemorySystem::ShardedMemorySystem(const ServeConfig &cfg)
    : cfg_(cfg), keys_(keyTableOf(cfg))
{
    deuce_assert(cfg_.shards >= 1);
    deuce_assert(cfg_.tenants >= 1 && cfg_.tenants <= 65536);
    deuce_assert(cfg_.maxBurst >= 1);
    shards_.reserve(cfg_.shards);
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        auto scheme = std::make_unique<TenantScheme>(
            keys_, cfg_.scheme, cfg_.tenantAddrBits);
        // The scheme sits behind a stable heap pointer, so the system
        // may hold a reference to it across the moves below.
        MemorySystem system(*scheme, cfg_.wearLeveling, cfg_.pcm,
                            [](uint64_t) { return CacheLine{}; });
        shards_.emplace_back(std::move(scheme), std::move(system));
        shards_.back().telemetry->tenantLatencyNs =
            std::vector<obs::AtomicLog2Histogram>(
                std::min(cfg_.tenants, cfg_.maxTrackedTenants));
    }
}

ShardedMemorySystem::~ShardedMemorySystem()
{
    stop();
}

ShardedMemorySystem::ClientPort
ShardedMemorySystem::addClient()
{
    deuce_assert(!running_);
    unsigned client = numClients_++;
    for (Shard &shard : shards_) {
        shard.ports.push_back(
            std::make_unique<QueuePair>(cfg_.queueCapacity));
    }
    return ClientPort(*this, client);
}

void
ShardedMemorySystem::start()
{
    deuce_assert(!running_);
    deuce_assert(numClients_ >= 1);
    stop_.store(false, std::memory_order_release);
    for (unsigned s = 0; s < numShards(); ++s) {
        shards_[s].worker = std::thread([this, s] { workerLoop(s); });
    }
    running_ = true;
}

void
ShardedMemorySystem::stop()
{
    if (!running_) {
        return;
    }
    stop_.store(true, std::memory_order_release);
    for (Shard &shard : shards_) {
        if (shard.worker.joinable()) {
            shard.worker.join();
        }
    }
    running_ = false;
}

const MemorySystem &
ShardedMemorySystem::shard(unsigned s) const
{
    deuce_assert(s < shards_.size());
    return shards_[s].system;
}

const obs::Log2Histogram &
ShardedMemorySystem::burstHistogram(unsigned s) const
{
    deuce_assert(s < shards_.size());
    return shards_[s].burst;
}

uint64_t
ShardedMemorySystem::requestsServed() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
        total += shard.telemetry->served.load(std::memory_order_relaxed);
    }
    return total;
}

MemoryCounters
ShardedMemorySystem::aggregateCounters() const
{
    deuce_assert(!running_);
    MemoryCounters aggregate(cfg_.pcm);
    for (const Shard &shard : shards_) {
        aggregate.mergeFrom(shard.system.counters());
    }
    return aggregate;
}

void
ShardedMemorySystem::registerStats(obs::StatRegistry &reg,
                                   const std::string &prefix) const
{
    for (unsigned s = 0; s < numShards(); ++s) {
        const Shard &shard = shards_[s];
        std::string base = prefix + ".shard" + std::to_string(s);
        shard.system.registerStats(reg, base + ".pcm");
        reg.addIntValue(base + ".served",
                        "requests applied by the shard worker",
                        [&shard] {
                            return shard.telemetry->served.load(
                                std::memory_order_relaxed);
                        });
        reg.addHistogram(base + ".sqDepth",
                         "submission-queue depth sampled per visit",
                         shard.sqDepth);
        reg.addHistogram(base + ".burst",
                         "requests drained per burst", shard.burst);
    }
    keys_.registerStats(reg, prefix + ".tenant");
}

void
ShardedMemorySystem::registerTelemetry(obs::StatRegistry &reg,
                                       const std::string &prefix) const
{
    for (unsigned s = 0; s < numShards(); ++s) {
        const ShardTelemetry &tel = *shards_[s].telemetry;
        std::string base = prefix + ".shard" + std::to_string(s);
        reg.addIntValue(base + ".served",
                        "requests applied by the shard worker",
                        [&tel] {
                            return tel.served.load(
                                std::memory_order_relaxed);
                        });
        reg.addIntValue(base + ".cq_stalls",
                        "CQ-full backpressure episodes", [&tel] {
                            return tel.cqStalls.load(
                                std::memory_order_relaxed);
                        });
    }
    reg.addIntValue(prefix + ".served",
                    "requests applied across all shards",
                    [this] { return requestsServed(); });
    reg.addIntValue(prefix + ".cq_stalls",
                    "CQ-full backpressure episodes across all shards",
                    [this] { return backpressureStalls(); });
}

void
ShardedMemorySystem::attachTelemetry(obs::TelemetrySampler &sampler,
                                     const std::string &prefix) const
{
    for (unsigned s = 0; s < numShards(); ++s) {
        std::string base = prefix + ".shard" + std::to_string(s);
        sampler.addLatencySource(base + ".latency",
                                 {&shards_[s].telemetry->latencyNs});
        sampler.addQueueSource(
            base + ".sq", [this, s] { return queueDepth(s); },
            cfg_.queueCapacity * std::max(1u, numClients_));
    }
    unsigned tracked = std::min(cfg_.tenants, cfg_.maxTrackedTenants);
    for (unsigned t = 0; t < tracked; ++t) {
        sampler.addLatencySource(
            prefix + ".tenant" + std::to_string(t) + ".latency",
            tenantLatencyParts(static_cast<uint16_t>(t)),
            static_cast<uint16_t>(t));
    }
}

const obs::AtomicLog2Histogram &
ShardedMemorySystem::latencyHistogram(unsigned s) const
{
    deuce_assert(s < shards_.size());
    return shards_[s].telemetry->latencyNs;
}

std::vector<const obs::AtomicLog2Histogram *>
ShardedMemorySystem::tenantLatencyParts(uint16_t tenant) const
{
    std::vector<const obs::AtomicLog2Histogram *> parts;
    for (const Shard &shard : shards_) {
        if (tenant < shard.telemetry->tenantLatencyNs.size()) {
            parts.push_back(&shard.telemetry->tenantLatencyNs[tenant]);
        }
    }
    return parts;
}

uint64_t
ShardedMemorySystem::queueDepth(unsigned s) const
{
    deuce_assert(s < shards_.size());
    uint64_t depth = 0;
    for (const auto &port : shards_[s].ports) {
        depth += port->sq.size();
    }
    return depth;
}

uint64_t
ShardedMemorySystem::backpressureStalls() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
        total +=
            shard.telemetry->cqStalls.load(std::memory_order_relaxed);
    }
    return total;
}

void
ShardedMemorySystem::recordCompletion(Shard &shard,
                                      const Completion &c)
{
    if (c.submitNs == 0 || c.completeNs < c.submitNs) {
        return; // unstamped request: no latency to attribute
    }
    uint64_t lat = c.completeNs - c.submitNs;
    ShardTelemetry &tel = *shard.telemetry;
    tel.latencyNs.add(lat);
    if (c.tenant < tel.tenantLatencyNs.size()) {
        tel.tenantLatencyNs[c.tenant].add(lat);
    }
    obs::flightRecorderRecord(obs::FlightEventKind::Complete,
                              static_cast<uint16_t>(&shard -
                                                    shards_.data()),
                              c.tenant, c.addr, lat);
}

void
ShardedMemorySystem::workerLoop(unsigned s)
{
    Shard &shard = shards_[s];
    // Worker-local burst buffers, reused across visits (the drain is
    // allocation-free after warm-up, like the batch pipeline itself).
    std::vector<MemRequest> burst;
    std::vector<Completion> completions;
    burst.reserve(cfg_.maxBurst);
    completions.reserve(cfg_.maxBurst);
    for (;;) {
        bool any = false;
        for (auto &port : shard.ports) {
            size_t depth = port->sq.size();
            if (depth == 0) {
                continue;
            }
            shard.sqDepth.add(depth);

            // Drain the whole burst, apply it in submission order
            // through the mixed burst path (one pad stream per
            // duplicate-free chunk), then complete it FIFO.
            burst.clear();
            completions.clear();
            Request req;
            while (burst.size() < cfg_.maxBurst && port->sq.tryPop(req)) {
                burst.push_back(memRequestOf(
                    req, TenantScheme::globalAddr(req.tenant, req.addr,
                                                  cfg_.tenantAddrBits)));
                completions.push_back(completionOf(req));
            }
            BurstOutcome out = shard.system.applyBurst(burst);
            const WriteOutcome *write = out.writes.data();
            const CacheLine *read = out.reads.data();
            for (Completion &c : completions) {
                if (c.op == ReqOp::Write) {
                    c.slots = write->slots;
                    c.flips = write->result.totalFlips();
                    ++write;
                } else {
                    c.data = *read++;
                }
                c.completeNs = nowNs();
                recordCompletion(shard, c);
            }
            for (Completion &c : completions) {
                // CQ full means the client is slow to reap; spin with
                // yields — backpressure, the entry is never dropped.
                if (!port->cq.tryPush(std::move(c))) {
                    shard.telemetry->cqStalls.fetch_add(
                        1, std::memory_order_relaxed);
                    if (obs::flightRecorderEnabled()) {
                        obs::logEvent(obs::FlightEventKind::Stall,
                                      "serve",
                                      "cq full: shard " +
                                          std::to_string(s),
                                      c.tenant, c.seq);
                    }
                    do {
                        std::this_thread::yield();
                    } while (!port->cq.tryPush(std::move(c)));
                }
            }
            shard.burst.add(burst.size());
            shard.telemetry->served.fetch_add(
                burst.size(), std::memory_order_relaxed);
            any = true;
        }
        if (!any) {
            // Only quit once stopping AND every SQ drained, so stop()
            // never strands a submitted request.
            if (stop_.load(std::memory_order_acquire)) {
                return;
            }
            std::this_thread::yield();
        }
    }
}

bool
ShardedMemorySystem::ClientPort::trySubmit(Request req)
{
    uint64_t addr = checkedGlobalAddr(owner_->cfg_, req);
    Shard &shard = owner_->shards_[owner_->shardOf(addr)];
    return shard.ports[client_]->sq.tryPush(std::move(req));
}

bool
ShardedMemorySystem::ClientPort::tryPoll(Completion &out)
{
    unsigned shards = owner_->numShards();
    for (unsigned i = 0; i < shards; ++i) {
        unsigned s = (pollCursor_ + i) % shards;
        if (owner_->shards_[s].ports[client_]->cq.tryPop(out)) {
            pollCursor_ = (s + 1) % shards;
            return true;
        }
    }
    return false;
}

} // namespace serve
} // namespace deuce
