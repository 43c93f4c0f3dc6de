/**
 * @file
 * DEUCE benchmark driver.
 *
 *   deuce_perfbench --workload replay-deuce|timed-mlc|serve-ble
 *                   --seed N --seconds S --trace 0|1 [--trace-out F]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics of a separate traced run and writes the
 * benchmark-side spans to F as Chrome-trace JSON. Either way the last
 * line of stdout is one JSON object {correct, attempted, failed,
 * metrics}, and the exit code is nonzero when an output check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include <malloc.h>
#include <sys/prctl.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"
#include "common/line_kernels.hh"

namespace
{

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "deuce_perfbench: " << msg
              << "\nusage: deuce_perfbench --workload "
                 "replay-deuce|timed-mlc|serve-ble --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &s, const char *what)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || s[0] == '-') {
        usage(std::string("bad ") + what + ": " + s);
    }
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + a);
        }
        std::string v = argv[++i];
        if (a == "--workload") {
            have_workload = true;
            if (v == "replay-deuce") {
                args.workload = Workload::ReplayDeuce;
            } else if (v == "timed-mlc") {
                args.workload = Workload::TimedMlc;
            } else if (v == "serve-ble") {
                args.workload = Workload::ServeBle;
            } else {
                usage("unknown workload " + v);
            }
        } else if (a == "--seed") {
            args.seed = parseUnsigned(v, "seed");
        } else if (a == "--seconds") {
            uint64_t s = parseUnsigned(v, "seconds");
            if (s < 1 || s > 120) {
                usage("--seconds must be 1..120");
            }
            args.seconds = static_cast<double>(s);
        } else if (a == "--trace") {
            if (v != "0" && v != "1") {
                usage("--trace must be 0 or 1");
            }
            args.trace = v == "1";
        } else if (a == "--trace-out") {
            args.traceOut = v;
        } else {
            usage("unknown argument " + a);
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    return args;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
        __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10],
                    &regs[11])) {
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

void
printFingerprint(const Args &args)
{
    std::cout << "workload " << workloadName(args.workload) << ", seed "
              << args.seed << ", " << args.seconds << " s, trace "
              << (args.trace ? 1 : 0) << "\n"
              << "host: cpu=\"" << cpuModel()
              << "\" nproc=" << std::thread::hardware_concurrency()
              << " aes=" << makeOtp(args.seed)->backendName()
              << " line_kernels="
              << deuce::lineBackendName(deuce::activeLineBackend())
              << " compiler=\"" << __VERSION__
              << "\" build=" << PERFBENCH_BUILD_TYPE << "\n";
}

void
printReport(const Report &report)
{
    std::printf("%-30s %16s  %-8s %10s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : report.metrics) {
        std::printf("%-30s %16.6g  %-8s %10llu\n", m.name.c_str(), m.value,
                    m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
#ifndef NDEBUG
    std::cerr << "deuce_perfbench: refusing host-time metrics from a "
                 "build without NDEBUG\n";
    return 2;
#endif
    if (kSanitized) {
        std::cerr << "deuce_perfbench: refusing host-time metrics from a "
                     "sanitizer build\n";
        return 2;
    }
    // Transparent huge pages are granted or not depending on the
    // host's free memory, which made peak RSS wander by 20%.
    prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
    // A fixed mmap threshold: glibc otherwise raises it after the first
    // set-up frees its stream, and later set-ups then keep their
    // freed memory, so peak RSS depended on the order of frees.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    printFingerprint(args);

    Report report;
    SpanLog spans;
    try {
        if (args.trace) {
            runTraced(args, report, spans);
        } else {
            runWorkload(args, report, spans);
        }
    } catch (const std::exception &e) {
        std::cerr << "deuce_perfbench: " << e.what() << "\n";
        return 1;
    }
    if (!args.traceOut.empty() && !spans.write(args.traceOut)) {
        std::cerr << "deuce_perfbench: cannot write " << args.traceOut
                  << "\n";
        return 1;
    }
    if (report.attempted == 0) {
        std::cerr << "deuce_perfbench: no operations ran\n";
        return 1;
    }
    printReport(report);
    return report.failed == 0 ? 0 : 1;
}
