/**
 * @file
 * ShardedMemorySystem: the queue-driven secure-memory serving core.
 *
 * The batch simulator drives one MemorySystem synchronously; a
 * serving system faces many concurrent clients. This core partitions
 * the global line-address space by bank (the same lineAddr % banks
 * interleave the timing model uses) across N shards, each owning its
 * own MemorySystem — lines, wear, fault, energy and bank counters are
 * all shard-local, so shard workers never share mutable simulator
 * state. Every (client, shard) pair is connected by a bounded
 * lock-free SPSC submission/completion queue-pair
 * (common/spsc_queue.hh), modeled on NVMe SQ/CQ dispatch: clients
 * push Requests into per-shard SQs through a move-only ClientPort,
 * shard workers drain bursts, apply them, and push Completions back.
 *
 * Determinism: a line's shard is a pure function of its address, and
 * each SQ is FIFO, so per-line request order is preserved whenever
 * each line is driven by a single client (the serving benches
 * partition tenants across clients to guarantee this). All integer
 * aggregate counters — writes, reads, flips, slots, energy (computed
 * from integer totals), wear totals, per-bank counters, histogram
 * buckets — are then bit-identical to a single-threaded sequential
 * replay of the same request stream, at any shard count and any
 * worker interleave (see MemoryCounters::deterministicSignature and
 * replaySequential). Cross-line service order does vary, so
 * order-sensitive floating-point summaries (running means) and
 * wear *positions* under gap-coupled HWL rotation are outside the
 * guarantee.
 */

#ifndef DEUCE_SERVE_SHARDED_MEMORY_SYSTEM_HH
#define DEUCE_SERVE_SHARDED_MEMORY_SYSTEM_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_queue.hh"
#include "crypto/key_domain.hh"
#include "obs/stat.hh"
#include "obs/telemetry.hh"
#include "serve/request.hh"
#include "serve/tenant_scheme.hh"
#include "sim/memory_counters.hh"
#include "sim/memory_system.hh"

namespace deuce
{
namespace serve
{

/** Configuration of a ShardedMemorySystem. */
struct ServeConfig
{
    /** Inner scheme identifier (enc/scheme_factory.hh). */
    std::string scheme = "deuce";

    /** Number of shards (each owns a MemorySystem and a worker). */
    unsigned shards = 4;

    /** Number of tenant key domains. */
    unsigned tenants = 1;

    /** Width of the tenant-local address field (lines per tenant =
     *  2^tenantAddrBits). */
    unsigned tenantAddrBits = 24;

    /** Master secret seed the per-tenant keys derive from. */
    uint64_t masterSeed = 0xfeedface;

    /**
     * Build the tenant engines on the hash reference pads
     * (FastOtpEngine) instead of AES. Only tests set it to true, to
     * replay signatures recorded on those pads; every product path
     * leaves it false.
     */
    bool fastOtp = false;

    /** Wear-leveling setup of every shard. */
    WearLevelingConfig wearLeveling;

    /** PCM device parameters of every shard. */
    PcmConfig pcm;

    /** Capacity of each SQ and CQ (rounded up to a power of two). */
    size_t queueCapacity = 1024;

    /** Most requests a worker drains from one SQ per visit. */
    unsigned maxBurst = 64;

    /**
     * Per-tenant latency histograms are allocated only up to this
     * many tenants (each histogram is ~2.5 KiB per shard); beyond it,
     * only the per-shard aggregate is tracked.
     */
    unsigned maxTrackedTenants = 256;
};

/** Steady-clock timestamp in nanoseconds (latency measurement). */
uint64_t nowNs();

/**
 * The global line address of @p req under @p cfg. Fatal when the
 * tenant is not one of cfg.tenants or the tenant-local address does
 * not fit cfg.tenantAddrBits: either would alias another tenant's
 * lines, decrypted under that tenant's key.
 */
uint64_t checkedGlobalAddr(const ServeConfig &cfg, const Request &req);

/**
 * Replay @p trace in order on one single-threaded MemorySystem built
 * from @p cfg (same tenant key domains, same scheme, same device),
 * in applyBurst() bursts of cfg.maxBurst, and return its final
 * counters. The reference the sharded path's aggregate is gated
 * against. Fatal on a request checkedGlobalAddr() rejects.
 */
MemoryCounters replaySequential(const ServeConfig &cfg,
                                const std::vector<Request> &trace);

/** A sharded, queue-driven, multi-tenant secure memory. */
class ShardedMemorySystem
{
  public:
    explicit ShardedMemorySystem(const ServeConfig &cfg);

    /** Stops the workers if still running. */
    ~ShardedMemorySystem();

    ShardedMemorySystem(const ShardedMemorySystem &) = delete;
    ShardedMemorySystem &operator=(const ShardedMemorySystem &) = delete;

    /**
     * A client's handle on the serving core: one SQ/CQ pair per
     * shard, owned by exactly one client thread (SPSC). Move-only,
     * nvmetro engine-handle style.
     */
    class ClientPort
    {
      public:
        ClientPort(ClientPort &&) noexcept = default;
        ClientPort &operator=(ClientPort &&) noexcept = default;
        ClientPort(const ClientPort &) = delete;
        ClientPort &operator=(const ClientPort &) = delete;

        /**
         * Route @p req to its shard's submission queue. Fatal, on the
         * caller's thread, on a request checkedGlobalAddr() rejects.
         * @return false when that SQ is full (caller should poll
         *         completions and retry — backpressure, not loss).
         */
        bool trySubmit(Request req);

        /**
         * Pop one completion destined for this client, scanning the
         * per-shard CQs round-robin from a persistent cursor.
         */
        bool tryPoll(Completion &out);

        /** This client's index within the serving core. */
        unsigned id() const { return client_; }

      private:
        friend class ShardedMemorySystem;
        ClientPort(ShardedMemorySystem &owner, unsigned client)
            : owner_(&owner), client_(client)
        {}

        ShardedMemorySystem *owner_;
        unsigned client_;
        unsigned pollCursor_ = 0;
    };

    /**
     * Register a client and get its port. Must be called before
     * start(); each port must then be used by a single thread.
     */
    ClientPort addClient();

    /** Spawn the shard workers. */
    void start();

    /**
     * Drain every submission queue, then join the workers.
     * Outstanding completions must still be polled by their clients
     * before the final drain can push them, so clients should have
     * reaped (or keep reaping) their completions when this is called.
     * Idempotent.
     */
    void stop();

    bool running() const { return running_; }

    /** Shard owning global address @p addr (bank-interleaved). */
    unsigned
    shardOf(uint64_t addr) const
    {
        return static_cast<unsigned>(addr % cfg_.pcm.totalBanks()) %
               numShards();
    }

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    unsigned numClients() const { return numClients_; }

    const ServeConfig &config() const { return cfg_; }

    /** Tenant key domains (shared by all shards). */
    const TenantKeyTable &keys() const { return keys_; }

    /** Shard @p s's memory system (inspection; quiesced callers). */
    const MemorySystem &shard(unsigned s) const;

    /** Shard @p s's requests-drained-per-burst histogram (quiesced
     *  callers). Burst sizes tell how often the worker drain feeds
     *  the batch pipeline multi-line runs versus singletons. */
    const obs::Log2Histogram &burstHistogram(unsigned s) const;

    /** Requests applied across all shards. */
    uint64_t requestsServed() const;

    /**
     * Merge every shard's counters, in ascending shard order, into
     * one aggregate view. Call only while quiesced (before start() or
     * after stop()): shard counters are worker-thread-local while
     * running.
     */
    MemoryCounters aggregateCounters() const;

    /**
     * Register per-shard stats under "<prefix>.shard<s>..." — the
     * classic pcm counters of each shard plus the serving-side
     * queue-depth and burst-size histograms — and the per-tenant OTP
     * counters under "<prefix>.tenant<t>.otp". Dump only while
     * quiesced.
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Register the live-safe subset: atomic served/stall counters per
     * shard plus totals, under "<prefix>.shard<s>..." and
     * "<prefix>...". Unlike registerStats, every source here is an
     * atomic read, so a TelemetrySampler may walk the registry while
     * the workers run.
     */
    void registerTelemetry(obs::StatRegistry &reg,
                           const std::string &prefix) const;

    /**
     * Wire this core's latency histograms and queue depths into @p
     * sampler: one per-shard latency source, one merged per-tenant
     * source per tracked tenant (tenant id attached, so SLO targets
     * set on the sampler apply), and one SQ-depth source per shard.
     * Call before sampler.start(); the core must outlive the sampler.
     */
    void attachTelemetry(obs::TelemetrySampler &sampler,
                         const std::string &prefix) const;

    /** Shard @p s's completion-latency histogram (ns; live-safe). */
    const obs::AtomicLog2Histogram &latencyHistogram(unsigned s) const;

    /** Per-shard parts of @p tenant's latency (empty when the tenant
     *  is beyond maxTrackedTenants). Live-safe. */
    std::vector<const obs::AtomicLog2Histogram *>
    tenantLatencyParts(uint16_t tenant) const;

    /** Entries currently queued in shard @p s's SQs (live-safe). */
    uint64_t queueDepth(unsigned s) const;

    /** CQ-full backpressure episodes across all shards (live-safe). */
    uint64_t backpressureStalls() const;

  private:
    /** One SQ/CQ pair connecting one client to one shard. */
    struct QueuePair
    {
        explicit QueuePair(size_t capacity) : sq(capacity), cq(capacity)
        {}
        SpscQueue<Request> sq;
        SpscQueue<Completion> cq;
    };

    /**
     * One shard's live telemetry: every field is atomic, written by
     * the shard worker with relaxed operations and read concurrently
     * by the sampler thread. Heap-allocated (behind unique_ptr) so
     * Shard stays movable for vector emplacement.
     */
    struct ShardTelemetry
    {
        std::atomic<uint64_t> served{0};   ///< requests applied
        std::atomic<uint64_t> cqStalls{0}; ///< CQ-full episodes
        obs::AtomicLog2Histogram latencyNs; ///< submit→complete
        /** Per-tenant latency; sized to min(tenants,
         *  maxTrackedTenants), single-writer = the shard worker. */
        std::vector<obs::AtomicLog2Histogram> tenantLatencyNs;
    };

    /** One shard: scheme + memory system + per-client queue-pairs. */
    struct Shard
    {
        std::unique_ptr<TenantScheme> scheme;
        MemorySystem system;
        std::vector<std::unique_ptr<QueuePair>> ports;
        obs::Log2Histogram sqDepth;  ///< SQ depth sampled per visit
        obs::Log2Histogram burst;    ///< requests drained per burst
        std::unique_ptr<ShardTelemetry> telemetry;
        std::thread worker;

        Shard(std::unique_ptr<TenantScheme> s, MemorySystem sys)
            : scheme(std::move(s)), system(std::move(sys)),
              telemetry(std::make_unique<ShardTelemetry>())
        {}
    };

    void workerLoop(unsigned s);
    void recordCompletion(Shard &shard, const Completion &c);

    ServeConfig cfg_;
    TenantKeyTable keys_;
    std::vector<Shard> shards_;
    unsigned numClients_ = 0;
    std::atomic<bool> stop_{false};
    bool running_ = false;
};

} // namespace serve
} // namespace deuce

#endif // DEUCE_SERVE_SHARDED_MEMORY_SYSTEM_HH
