/**
 * @file
 * Write-path throughput bench: lines/sec of MemorySystem::write vs
 * MemorySystem::writeBatch across schemes, cipher backends, and batch
 * sizes — the gate for the cross-line batched write pipeline.
 *
 * For every (scheme x batch) cell the bench replays one pre-generated
 * writeback trace (trace generation is outside the timed region) and
 * reports lines/sec. Two hard gates fail the binary:
 *
 *  1. Bit-identity: every batched cell's counter signature must equal
 *     the sequential (batch=1) signature for the same scheme.
 *  2. Speedup: on the auto-selected cipher backend, batch >= 16 must
 *     reach at least 1.5x the one-at-a-time lines/sec for the pure
 *     counter-mode scheme ("encr") and for "deuce" — the two schemes
 *     whose write cost is dominated by pad generation.
 *
 * DEUCE_BENCH_JSON appends one JSON line per cell. The scalar-backend
 * sweep (--all-backends) shows where the wide cipher kernels earn the
 * speedup; gates apply to the auto backend only.
 *
 *   $ ./bench_throughput [--writes N] [--pool LINES] [--schemes a,b]
 *                        [--batches 1,16,64] [--all-backends]
 *                        [--json rows.jsonl] [--seed S]
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/cli_parse.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "crypto/aes_backend.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "obs/flight_recorder.hh"
#include "obs/progress.hh"
#include "sim/memory_system.hh"
#include "sim/report.hh"

namespace
{

using namespace deuce;

struct Args
{
    uint64_t writes = 200000;
    unsigned pool = 4096;
    std::vector<std::string> schemes{"encr", "deuce", "deuce-fnw",
                                     "dyndeuce", "ble"};
    std::vector<unsigned> batches{1, 16, 64};
    bool allBackends = false;
    std::string json;
    uint64_t seed = 0x7f4a7c15;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--writes <n>] [--pool <lines>] [--schemes <a,b>]"
                 " [--batches <n[,n...]>] [--all-backends]"
                 " [--json <path>] [--seed <n>]\n";
    std::exit(2);
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        out.push_back(item);
    }
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    constexpr uint64_t kUintMax = std::numeric_limits<unsigned>::max();
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
            }
            return argv[++i];
        };
        // A count in [1, max]; anything else exits through usage().
        auto count = [&](const char *text, uint64_t max) {
            std::optional<uint64_t> v = parseUnsigned(text, max);
            if (!v || *v == 0) {
                usage(argv[0]);
            }
            return *v;
        };
        if (a == "--writes") {
            args.writes = count(next(), std::numeric_limits<uint64_t>::max());
        } else if (a == "--pool") {
            args.pool = static_cast<unsigned>(count(next(), kUintMax));
        } else if (a == "--schemes") {
            args.schemes = splitCsv(next());
            if (args.schemes.empty()) {
                usage(argv[0]);
            }
        } else if (a == "--batches") {
            args.batches.clear();
            for (const std::string &b : splitCsv(next())) {
                args.batches.push_back(
                    static_cast<unsigned>(count(b.c_str(), kUintMax)));
            }
            if (args.batches.empty()) {
                usage(argv[0]);
            }
        } else if (a == "--all-backends") {
            args.allBackends = true;
        } else if (a == "--json") {
            args.json = next();
        } else if (a == "--seed") {
            std::optional<uint64_t> seed = parseUnsigned(next());
            if (!seed) {
                usage(argv[0]);
            }
            args.seed = *seed;
        } else {
            usage(argv[0]);
        }
    }
    return args;
}

CacheLine
initialContents(uint64_t addr)
{
    CacheLine line;
    uint64_t x = addr * 0x9e3779b97f4a7c15ull + 1;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        line.limb(i) = x;
    }
    return line;
}

/**
 * The writeback trace every cell replays: uniform addresses over the
 * pool, partial-word updates (the regime the tracking schemes are
 * built for). Generated once, outside the timed region.
 */
std::vector<WriteRequest>
makeTrace(const Args &args)
{
    Rng rng(args.seed);
    std::vector<CacheLine> current(args.pool);
    std::vector<bool> touched(args.pool, false);
    std::vector<WriteRequest> trace;
    trace.reserve(args.writes);
    for (uint64_t i = 0; i < args.writes; ++i) {
        unsigned a = static_cast<unsigned>(rng.nextBounded(args.pool));
        if (!touched[a]) {
            current[a] = initialContents(a);
            touched[a] = true;
        }
        CacheLine data = current[a];
        unsigned words = rng.nextPositiveGeometric(2.0);
        for (unsigned w = 0; w < words && w < 8; ++w) {
            data.limb(rng.nextBounded(8)) ^= rng.next();
        }
        current[a] = data;
        trace.push_back(WriteRequest{a, data});
    }
    return trace;
}

struct CellResult
{
    double linesPerSec = 0.0;
    std::string signature;
    std::string aesBackend;
};

bool
backendAvailable(AesBackendKind k)
{
    switch (k) {
      case AesBackendKind::AesNi: return aesniAvailable();
      case AesBackendKind::Vaes: return vaesAvailable();
      case AesBackendKind::Neon: return aesNeonAvailable();
      default: return true;
    }
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

CellResult
runCell(const std::string &scheme_id, unsigned batch,
        AesBackendKind backend,
        const std::vector<WriteRequest> &trace)
{
    AesKey key{};
    for (unsigned i = 0; i < 16; ++i) {
        key[i] = static_cast<uint8_t>(0x42 + 13 * i);
    }
    AesOtpEngine otp(key, backend);
    std::unique_ptr<EncryptionScheme> scheme =
        makeScheme(scheme_id, otp);
    WearLevelingConfig wl;
    wl.verticalEnabled = false;
    MemorySystem system(*scheme, wl, PcmConfig{}, initialContents);

    uint64_t start = nowNs();
    if (batch <= 1) {
        for (const WriteRequest &w : trace) {
            system.write(w.lineAddr, w.data);
        }
    } else {
        for (std::size_t i = 0; i < trace.size(); i += batch) {
            std::size_t n =
                std::min<std::size_t>(batch, trace.size() - i);
            system.writeBatch(
                std::span<const WriteRequest>(trace.data() + i, n));
        }
    }
    uint64_t elapsed = nowNs() - start;

    CellResult result;
    result.linesPerSec = static_cast<double>(trace.size()) * 1e9 /
                         static_cast<double>(elapsed);
    result.signature = system.counters().deterministicSignature();
    result.aesBackend = otp.backendName();
    return result;
}

void
appendJsonRow(const Args &args, const std::string &scheme,
              unsigned batch, const CellResult &r, double speedup,
              bool identical)
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
    out << "{\"bench\":\"THROUGHPUT\",\"scheme\":\"" << scheme
        << "\",\"write_batch\":" << batch << ",\"aes_backend\":\""
        << r.aesBackend << "\",\"writes\":" << args.writes
        << ",\"lines_per_sec\":" << r.linesPerSec
        << ",\"speedup\":" << speedup << ",\"bit_identical\":"
        << (identical ? "true" : "false") << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    args.writes = benchutil::writebacksFromEnv(args.writes);
    obs::flightRecorderConfigureFromEnv();

    printBanner(std::cout, "Throughput",
                "batched write pipeline — lines/sec vs one-at-a-time");

    std::vector<AesBackendKind> backends{AesBackendKind::Auto};
    if (args.allBackends) {
        for (AesBackendKind k :
             {AesBackendKind::Scalar, AesBackendKind::AesNi,
              AesBackendKind::Vaes, AesBackendKind::Neon}) {
            if (backendAvailable(k)) {
                backends.push_back(k);
            }
        }
    }

    std::vector<WriteRequest> trace = makeTrace(args);
    std::cout << args.writes << " writebacks over " << args.pool
              << " lines, batch sizes {";
    for (std::size_t i = 0; i < args.batches.size(); ++i) {
        std::cout << (i ? "," : "") << args.batches[i];
    }
    std::cout << "}\n\n";

    Table table({"scheme", "backend", "batch", "Mlines/s", "speedup",
                 "identical"});

    // DEUCE_PROGRESS heartbeat over the cell grid (serial cells).
    std::unique_ptr<obs::ProgressReporter> progress;
    if (auto opts = obs::progressOptionsFromEnv()) {
        opts->label = "throughput";
        progress = std::make_unique<obs::ProgressReporter>(
            args.schemes.size() * backends.size() *
                args.batches.size(),
            1, *opts);
    }

    bool gatesPass = true;
    for (const std::string &scheme : args.schemes) {
        for (AesBackendKind backend : backends) {
            double baseline = 0.0;
            std::string baseSignature;
            bool first = true;
            for (unsigned batch : args.batches) {
                std::string cell = scheme + "/b" +
                                   std::to_string(batch);
                if (progress) {
                    progress->cellStarted(cell);
                }
                uint64_t cellStart = nowNs();
                CellResult r = runCell(scheme, batch, backend, trace);
                if (progress) {
                    progress->cellFinished(
                        cell, static_cast<double>(nowNs() - cellStart) /
                                  1e9);
                }
                if (first) {
                    // The smallest batch size anchors both gates; the
                    // default grid starts at 1 (pure write() path).
                    baseline = r.linesPerSec;
                    baseSignature = r.signature;
                    first = false;
                }
                double speedup = r.linesPerSec / baseline;
                bool identical = r.signature == baseSignature;
                table.addRow({scheme, r.aesBackend,
                              std::to_string(batch),
                              fmt(r.linesPerSec / 1e6, 3),
                              fmt(speedup, 2),
                              identical ? "=" : "DIVERGED"});
                appendJsonRow(args, scheme, batch, r, speedup,
                              identical);
                if (!identical) {
                    std::cerr << "FAIL: " << scheme << " batch "
                              << batch << " on " << r.aesBackend
                              << " diverged from the sequential "
                                 "signature\n";
                    obs::flightRecorderRecord(
                        obs::FlightEventKind::Gate, 0, 0, batch);
                    obs::flightRecorderWriteFile();
                    gatesPass = false;
                }
                // Speedup gate: auto backend, the pad-generation-
                // bound schemes, at a batch the pipeline was built
                // for. Other schemes/backends report but don't gate.
                if (backend == AesBackendKind::Auto && batch >= 16 &&
                    (scheme == "encr" || scheme == "deuce") &&
                    speedup < 1.5) {
                    std::cerr << "FAIL: " << scheme << " batch "
                              << batch << " reached only "
                              << fmt(speedup, 2)
                              << "x over one-at-a-time (gate: 1.5x)\n";
                    obs::flightRecorderRecord(
                        obs::FlightEventKind::Gate, 0, 0, batch);
                    obs::flightRecorderWriteFile();
                    gatesPass = false;
                }
            }
        }
        table.addRule();
    }
    table.print(std::cout);
    std::cout << "\n'=' marks cells whose counter signature is "
                 "bit-identical to the batch-1 replay; the 1.5x gate "
                 "applies to encr and deuce at batch >= 16 on the "
                 "auto backend.\n";
    return gatesPass ? 0 : 1;
}
