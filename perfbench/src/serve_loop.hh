/**
 * @file
 * The closed-loop serving client: one thread keeps a fixed window of
 * requests outstanding against a ShardedMemorySystem, checks every
 * read against its own shadow copy of the lines, and feeds the
 * latency and throughput estimators.
 */

#ifndef PERFBENCH_SERVE_LOOP_HH
#define PERFBENCH_SERVE_LOOP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bench.hh"
#include "serve/sharded_memory_system.hh"

namespace perfbench
{

/** The serve-ble serving core: 2 shards, 4 tenants, scheme ble. */
deuce::serve::ServeConfig serveConfig(uint64_t seed);

/** Requests plus a dense per-request line index for the shadow. */
struct ClientStream
{
    std::vector<deuce::serve::Request> requests;
    std::vector<uint32_t> line;
    uint32_t lines = 0;
};

ClientStream makeClientStream(std::vector<deuce::serve::Request> reqs);

/** Client state that carries across loops on one server. */
struct ClientState
{
    explicit ClientState(const ClientStream &cs);

    std::size_t pos = 0;
    uint64_t serial = 0;
    std::vector<CacheLine> shadow;

    struct Slot
    {
        CacheLine expected;
        bool read = false;
    };
    std::array<Slot, kServeWindow> slots;
    std::vector<unsigned> freeSlots;
};

/** What one loop measured. */
struct LoopStats
{
    explicit LoopStats(uint64_t slice_ops) : slices(slice_ops) {}

    SliceClock slices;
    LatencyWindows latency;
    uint64_t ops = 0;
    uint64_t readMismatches = 0;
    uint64_t submitRetries = 0;

    /** Traced loops only, every 16th request: submit->complete and
     *  complete->reaped. */
    bool traced = false;
    std::vector<double> sqWaitNs;
    std::vector<double> cqWaitNs;
};

/**
 * Run the loop until @p max_submits requests were submitted, or until
 * a slice closes after @p deadline_ns; then drain the window.
 */
void closedLoop(deuce::serve::ShardedMemorySystem::ClientPort &port,
                const ClientStream &cs, ClientState &st,
                uint64_t max_submits, uint64_t deadline_ns,
                LoopStats &stats);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOOP_HH
