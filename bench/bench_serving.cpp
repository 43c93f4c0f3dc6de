/**
 * @file
 * Serving benchmark: sustained throughput and tail latency of the
 * sharded, queue-driven secure-memory core.
 *
 * For every (shards x tenants) cell the bench generates a fixed,
 * seed-deterministic request stream (tenants partitioned across
 * client threads so every line has a single writer — the condition
 * under which the sharded path is bit-deterministic), drives it
 * through a ShardedMemorySystem with per-request latency stamping,
 * then replays the identical stream on one single-threaded
 * MemorySystem and requires the aggregate integer counters (writes,
 * reads, flips, slots, energy, wear totals, per-bank counters,
 * histogram buckets) to be bit-identical. A signature mismatch is a
 * hard failure.
 *
 * Reported per cell: sustained ops/sec (serving and sequential) and
 * p50/p99/p999 completion latency.
 *
 *   $ ./bench_serving [--shards 1,4,8] [--tenants 1,4] [--clients 2]
 *                     [--ops N] [--read-pct 50] [--scheme deuce]
 *                     [--working-set 4096] [--seed S]
 *                     [--queue 1024] [--burst 64] [--json rows.jsonl]
 *                     [--telemetry-out base] [--telemetry-period-ms N]
 *                     [--slo-p99-us X]
 *
 * Latency percentiles are streamed through per-client Log2Histograms
 * (bounded memory at any op count) and merged after the run. With
 * --telemetry-out (or DEUCE_TELEMETRY=<base>), a sampler thread
 * exports live counters, tail latency and queue depths to
 * <base>.prom / <base>.jsonl while each cell runs; --slo-p99-us arms
 * per-tenant SLO burn-rate alerts at that target. DEUCE_PROGRESS
 * enables the heartbeat over the cell grid.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/flight_recorder.hh"
#include "obs/progress.hh"
#include "obs/registry.hh"
#include "obs/telemetry.hh"
#include "serve/sharded_memory_system.hh"
#include "sim/report.hh"

namespace
{

using namespace deuce;
using namespace deuce::serve;

struct Args
{
    std::vector<unsigned> shards{1, 4, 8};
    std::vector<unsigned> tenants{1, 4};
    unsigned clients = 2;
    uint64_t ops = 100000;
    unsigned readPct = 50;
    unsigned workingSet = 4096;
    std::string scheme = "deuce";
    uint64_t seed = 0xfeedface;
    size_t queue = 1024;
    unsigned burst = 64;
    std::string json;
    std::string telemetryOut;
    uint64_t telemetryPeriodMs = 100;
    double sloP99Us = 0.0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--shards <n[,n...]>] [--tenants <n[,n...]>]"
                 " [--clients <n>] [--ops <n>] [--read-pct <0-100>]"
                 " [--scheme <id>] [--working-set <n>]"
                 " [--seed <n>] [--queue <n>] [--burst <n>]"
                 " [--json <path>] [--telemetry-out <base>]"
                 " [--telemetry-period-ms <n>] [--slo-p99-us <x>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    constexpr uint64_t kUintMax = std::numeric_limits<unsigned>::max();
    constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        // An integer in [min, max]; anything else exits through
        // usage().
        auto number = [&](const char *text, uint64_t min, uint64_t max) {
            std::optional<uint64_t> v = parseUnsigned(text, max);
            if (!v || *v < min) {
                usage(argv[0]);
            }
            return *v;
        };
        auto count = [&](uint64_t max) { return number(next(), 1, max); };
        auto countList = [&]() {
            std::vector<unsigned> out;
            std::stringstream ss(next());
            std::string item;
            while (std::getline(ss, item, ',')) {
                out.push_back(static_cast<unsigned>(
                    number(item.c_str(), 1, kUintMax)));
            }
            if (out.empty()) {
                usage(argv[0]);
            }
            return out;
        };
        if (a == "--shards") {
            args.shards = countList();
        } else if (a == "--tenants") {
            args.tenants = countList();
        } else if (a == "--clients") {
            args.clients = static_cast<unsigned>(count(kUintMax));
        } else if (a == "--ops") {
            args.ops = count(kU64Max);
        } else if (a == "--read-pct") {
            args.readPct = static_cast<unsigned>(number(next(), 0, 100));
        } else if (a == "--working-set") {
            args.workingSet = static_cast<unsigned>(count(kUintMax));
        } else if (a == "--scheme") {
            args.scheme = next();
        } else if (a == "--seed") {
            args.seed = number(next(), 0, kU64Max);
        } else if (a == "--queue") {
            args.queue = count(kUintMax);
        } else if (a == "--burst") {
            args.burst = static_cast<unsigned>(count(kUintMax));
        } else if (a == "--json") {
            args.json = next();
        } else if (a == "--telemetry-out") {
            args.telemetryOut = next();
        } else if (a == "--telemetry-period-ms") {
            args.telemetryPeriodMs = count(kU64Max);
        } else if (a == "--slo-p99-us") {
            std::optional<double> slo = parseDouble(next());
            if (!slo) {
                usage(argv[0]);
            }
            args.sloP99Us = *slo;
        } else {
            usage(argv[0]);
        }
    }
    if (args.telemetryOut.empty()) {
        // Flag beats env, matching the backend-selection ladders.
        obs::TelemetryConfig env;
        if (obs::telemetryConfigFromEnv(env)) {
            args.telemetryOut = env.promPath.substr(
                0, env.promPath.size() - std::strlen(".prom"));
            args.telemetryPeriodMs = env.periodMs;
        }
    }
    return args;
}

/**
 * One client's seed-deterministic request stream. Client c drives
 * tenants {t : t % clients == c}, so no line is ever written from two
 * queues and per-line order equals trace order.
 */
std::vector<Request>
makeClientTrace(const Args &args, unsigned shards, unsigned tenants,
                unsigned clients, unsigned client, uint64_t ops)
{
    Rng rng(args.seed ^ (0x5bd1e995ull * (shards + 1)) ^
            (0x9e3779b9ull * (tenants + 1)) ^
            (0xc2b2ae35ull * (client + 1)));
    std::vector<unsigned> owned;
    for (unsigned t = client; t < tenants; t += clients) {
        owned.push_back(t);
    }
    ZipfSampler addrs(args.workingSet, 0.9);
    std::vector<Request> trace;
    trace.reserve(ops);
    for (uint64_t i = 0; i < ops; ++i) {
        Request req;
        req.tenant = static_cast<uint16_t>(
            owned[rng.nextBounded(owned.size())]);
        req.addr = addrs.sample(rng);
        req.seq = client * ops + i;
        if (rng.nextBounded(100) < args.readPct) {
            req.op = ReqOp::Read;
        } else {
            req.op = ReqOp::Write;
            for (unsigned l = 0; l < CacheLine::kLimbs; ++l) {
                req.data.limb(l) = rng.next();
            }
        }
        trace.push_back(req);
    }
    return trace;
}

struct CellResult
{
    double servingOpsPerSec = 0.0;
    double sequentialOpsPerSec = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    /** Requests drained per worker visit, merged across shards —
     *  how often the drain feeds the batch pipeline multi-request
     *  runs rather than singletons. */
    obs::Log2Histogram bursts;
    MemoryCounters aggregate;
    bool deterministic = false;
};

CellResult
runCell(const Args &args, unsigned shards, unsigned tenants)
{
    unsigned clients = std::min(args.clients, tenants);
    uint64_t opsPerClient = args.ops / clients;

    ServeConfig cfg;
    cfg.scheme = args.scheme;
    cfg.shards = shards;
    cfg.tenants = tenants;
    cfg.masterSeed = args.seed;
    cfg.queueCapacity = args.queue;
    cfg.maxBurst = args.burst;

    std::vector<std::vector<Request>> traces;
    for (unsigned c = 0; c < clients; ++c) {
        traces.push_back(makeClientTrace(args, shards, tenants,
                                         clients, c, opsPerClient));
    }

    ShardedMemorySystem srv(cfg);
    std::vector<ShardedMemorySystem::ClientPort> ports;
    ports.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        ports.push_back(srv.addClient());
    }

    // Live telemetry: a live-safe registry over the core's atomic
    // counters, sampled by a background thread for the whole cell.
    // Declared after srv (and stopped in reverse order at scope exit)
    // so the sampler never outlives its sources.
    obs::StatRegistry telemetryReg;
    std::unique_ptr<obs::TelemetrySampler> sampler;
    if (!args.telemetryOut.empty()) {
        srv.registerTelemetry(telemetryReg, "serve");
        obs::TelemetryConfig tcfg;
        tcfg.periodMs = args.telemetryPeriodMs;
        tcfg.promPath = args.telemetryOut + ".prom";
        tcfg.jsonlPath = args.telemetryOut + ".jsonl";
        sampler = std::make_unique<obs::TelemetrySampler>(telemetryReg,
                                                          tcfg);
        if (args.sloP99Us > 0) {
            obs::SloTarget target;
            target.p99Target = args.sloP99Us * 1e3; // us -> ns
            for (unsigned t = 0; t < tenants; ++t) {
                sampler->slo().setTarget(static_cast<uint16_t>(t),
                                         target);
            }
        }
        srv.attachTelemetry(*sampler, "serve");
        sampler->start();
    }

    srv.start();

    // Per-client streaming latency histograms: bounded memory at any
    // --ops, merged once the clients join.
    std::vector<obs::Log2Histogram> latencies(clients);
    uint64_t startNs = nowNs();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            auto &port = ports[c];
            auto &lats = latencies[c];
            uint64_t reaped = 0;
            Completion done;
            auto reap = [&] {
                while (port.tryPoll(done)) {
                    lats.add(
                        static_cast<double>(nowNs() - done.submitNs));
                    ++reaped;
                }
            };
            for (Request &req : traces[c]) {
                req.submitNs = nowNs();
                while (!port.trySubmit(req)) {
                    reap(); // SQ full: make room by reaping
                }
                reap();
            }
            while (reaped < traces[c].size()) {
                reap();
            }
        });
    }
    for (auto &t : threads) {
        t.join();
    }
    uint64_t servingNs = nowNs() - startNs;
    srv.stop();
    if (sampler) {
        sampler->stop();
    }

    CellResult result;
    uint64_t totalOps = opsPerClient * clients;
    result.servingOpsPerSec =
        static_cast<double>(totalOps) * 1e9 /
        static_cast<double>(servingNs);
    result.aggregate = srv.aggregateCounters();
    for (unsigned s = 0; s < srv.numShards(); ++s) {
        result.bursts.mergeFrom(srv.burstHistogram(s));
    }

    obs::Log2Histogram all;
    for (const auto &lats : latencies) {
        all.mergeFrom(lats);
    }
    if (!all.empty()) {
        result.p50Us = all.percentile(0.50) / 1e3;
        result.p99Us = all.percentile(0.99) / 1e3;
        result.p999Us = all.percentile(0.999) / 1e3;
    }

    // Sequential reference: the same stream, round-robin interleaved
    // across the clients (any fixed interleave works — per-line order
    // is per-client order), applied on one MemorySystem.
    std::vector<Request> sequential;
    sequential.reserve(totalOps);
    for (uint64_t i = 0; i < opsPerClient; ++i) {
        for (unsigned c = 0; c < clients; ++c) {
            sequential.push_back(traces[c][i]);
        }
    }
    uint64_t seqStart = nowNs();
    MemoryCounters reference = replaySequential(cfg, sequential);
    uint64_t seqNs = nowNs() - seqStart;
    result.sequentialOpsPerSec = static_cast<double>(totalOps) * 1e9 /
                                 static_cast<double>(seqNs);

    result.deterministic = result.aggregate.deterministicSignature() ==
                           reference.deterministicSignature();
    return result;
}

void
appendJsonRow(const Args &args, unsigned shards, unsigned tenants,
              const CellResult &result)
{
    std::string path = args.json;
    if (path.empty()) {
        if (const char *env = std::getenv("DEUCE_BENCH_JSON")) {
            path = env;
        }
    }
    if (path.empty()) {
        return;
    }
    std::ofstream out(path, std::ios::app);
    out << "{\"bench\":\"SERVING\",\"scheme\":\"" << args.scheme
        << "\",\"shards\":" << shards << ",\"tenants\":" << tenants
        << ",\"clients\":" << std::min(args.clients, tenants)
        << ",\"ops\":" << args.ops << ",\"read_pct\":" << args.readPct
        << ",\"ops_per_sec\":" << result.servingOpsPerSec
        << ",\"seq_ops_per_sec\":" << result.sequentialOpsPerSec
        << ",\"p50_us\":" << result.p50Us
        << ",\"p99_us\":" << result.p99Us
        << ",\"p999_us\":" << result.p999Us
        << ",\"burst_mean\":"
        << (result.bursts.empty() ? 0.0 : result.bursts.mean())
        << ",\"burst_p50\":"
        << (result.bursts.empty() ? 0.0 : result.bursts.percentile(0.5))
        << ",\"burst_p95\":"
        << (result.bursts.empty() ? 0.0
                                  : result.bursts.percentile(0.95))
        << ",\"flip_pct\":"
        << result.aggregate.flipStat().mean() * 100.0
        << ",\"bit_flips\":" << result.aggregate.energy().flips()
        << ",\"deterministic\":"
        << (result.deterministic ? "true" : "false") << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    obs::flightRecorderConfigureFromEnv();

    printBanner(std::cout, "Serving",
                "sharded queue-driven secure-memory core — sustained "
                "ops/sec and tail latency");
    std::cout << "scheme " << args.scheme << ", " << args.ops
              << " ops/cell, " << args.readPct << "% reads, "
              << args.clients << " client threads"
              << ", AES pads\n\n";

    Table table({"cell", "ops/s", "seq ops/s", "speedup", "p50 us",
                 "p99 us", "p999 us", "burst", "b-p95", "flip %",
                 "ok"});

    // DEUCE_PROGRESS heartbeat over the cell grid (cells run one at
    // a time here, so workers = 1 for the ETA).
    std::unique_ptr<obs::ProgressReporter> progress;
    if (auto opts = obs::progressOptionsFromEnv()) {
        opts->label = "serving";
        progress = std::make_unique<obs::ProgressReporter>(
            args.shards.size() * args.tenants.size(), 1, *opts);
    }

    bool allDeterministic = true;
    for (unsigned shards : args.shards) {
        for (unsigned tenants : args.tenants) {
            std::string cell = std::to_string(shards) + "s x " +
                               std::to_string(tenants) + "t";
            if (progress) {
                progress->cellStarted(cell);
            }
            uint64_t cellStart = nowNs();
            CellResult r = runCell(args, shards, tenants);
            if (progress) {
                progress->cellFinished(
                    cell,
                    static_cast<double>(nowNs() - cellStart) / 1e9);
            }
            allDeterministic = allDeterministic && r.deterministic;
            table.addRow({
                std::to_string(shards) + "s x " +
                    std::to_string(tenants) + "t",
                fmt(r.servingOpsPerSec / 1e3, 0) + "k",
                fmt(r.sequentialOpsPerSec / 1e3, 0) + "k",
                fmt(r.servingOpsPerSec / r.sequentialOpsPerSec, 2),
                fmt(r.p50Us, 1),
                fmt(r.p99Us, 1),
                fmt(r.p999Us, 1),
                fmt(r.bursts.empty() ? 0.0 : r.bursts.mean(), 1),
                fmt(r.bursts.empty() ? 0.0 : r.bursts.percentile(0.95),
                    1),
                fmt(r.aggregate.flipStat().mean() * 100.0, 1),
                r.deterministic ? "=" : "DIVERGED",
            });
            appendJsonRow(args, shards, tenants, r);
            if (!r.deterministic) {
                std::cerr << "FAIL: sharded aggregate diverged from "
                             "sequential replay at "
                          << shards << " shards x " << tenants
                          << " tenants\n";
                obs::flightRecorderRecord(obs::FlightEventKind::Gate,
                                          0, 0, shards, tenants);
                obs::flightRecorderWriteFile();
            }
        }
    }
    table.print(std::cout);
    std::cout << "\n'=' marks cells whose aggregate flip/slot/energy "
                 "counters are bit-identical to the sequential "
                 "replay of the same request stream.\n"
                 "'burst'/'b-p95' are the mean and p95 requests "
                 "drained per worker visit — runs of consecutive "
                 "writes in a burst go through the batched write "
                 "pipeline as one pad stream.\n";
    return allDeterministic ? 0 : 1;
}
