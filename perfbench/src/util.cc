/**
 * @file
 * Estimators, span log, report and workload configurations.
 */

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench.hh"


namespace perfbench
{

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::ReplayDeuce: return "replay-deuce";
      case Workload::TimedMlc: return "timed-mlc";
      case Workload::ServeBle: return "serve-ble";
    }
    return "?";
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
timerCostNs()
{
    static const uint64_t cost = [] {
        std::vector<double> v;
        for (int i = 0; i < 2001; ++i) {
            uint64_t a = nowNs();
            uint64_t b = nowNs();
            v.push_back(static_cast<double>(b - a));
        }
        return static_cast<uint64_t>(quantile(v, 0.5));
    }();
    return cost;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace
{

/** The CPUs this process may run on, as it started. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set)) {
                    v.push_back(c);
                }
            }
        }
        return v;
    }();
    return cpus;
}

/** Pin thread @p tid (0: the caller) to CPU @p cpu. */
void
pin(pid_t tid, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // Best effort: a refused move only loses the averaging.
    sched_setaffinity(tid, sizeof(one), &one);
}

} // namespace

void
rotateCpu()
{
    static std::size_t next = 0;
    const std::vector<int> &cpus = allowedCpus();
    if (cpus.size() > 1) {
        pin(0, cpus[next++ % cpus.size()]);
    }
}

std::vector<pid_t>
otherThreads()
{
    std::vector<pid_t> tids;
    pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *e = readdir(dir)) {
            pid_t t = static_cast<pid_t>(std::atoi(e->d_name));
            if (t > 0 && t != self) {
                tids.push_back(t);
            }
        }
        closedir(dir);
    }
    std::sort(tids.begin(), tids.end());
    return tids;
}

void
placeThreads(const std::vector<pid_t> &others, unsigned placement)
{
    const std::vector<int> &cpus = allowedCpus();
    std::size_t n = cpus.size();
    if (n < 2) {
        return;
    }
    pin(0, cpus[placement % n]);
    for (std::size_t i = 0; i < others.size(); ++i) {
        pin(others[i], cpus[(placement + 1 + i) % n]);
    }
}

int
SpanLog::open(const char *name, int parent)
{
    return record(name, nowNs(), 0, parent);
}

void
SpanLog::close(int id)
{
    if (id >= 0) {
        spans_[static_cast<std::size_t>(id)].end = nowNs();
    }
}

int
SpanLog::record(const char *name, uint64_t start, uint64_t end,
                int parent)
{
    if (full()) {
        return -1;
    }
    spans_.push_back(Span{name, start, end, parent});
    return static_cast<int>(spans_.size() - 1);
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    uint64_t base = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        uint64_t end = std::max(s.end, s.start);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      i ? ",\n" : "", s.name,
                      static_cast<double>(s.start - base) / 1e3,
                      static_cast<double>(end - s.start) / 1e3, i,
                      s.parent);
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void
Report::check(bool ok, const std::string &what, uint64_t count)
{
    if (!ok) {
        failed += count;
        std::cout << "CHECK FAILED: " << what << " (" << count
                  << " ops)\n";
    }
}

Config
configFor(Workload w, uint64_t seed)
{
    Config c;
    c.wl.verticalEnabled = true;
    c.wl.engine = deuce::WearLevelingConfig::Engine::StartGap;
    // Table-2 streams span 12 ranges of 2^14 lines.
    c.wl.numLines = uint64_t{1} << 18;
    switch (w) {
      case Workload::ReplayDeuce:
        c.scheme = "deuce";
        c.batched = true;
        break;
      case Workload::TimedMlc:
        c.scheme = "vcc-mlc";
        c.pcm.cellTech = deuce::CellTech::MLC2;
        c.wl.rotation = deuce::WearLevelingConfig::Rotation::Hwl;
        c.fault.enabled = true;
        c.fault.seed = seed ^ 0xfa117;
        c.persist.enabled = true;
        c.persist.policy = deuce::PersistConfig::Policy::Lazy;
        c.persist.numLines = uint64_t{1} << 18;
        break;
      case Workload::ServeBle:
        // The serving core's default device and wear leveling.
        c.scheme = "ble";
        c.wl = deuce::WearLevelingConfig{};
        break;
    }
    return c;
}

std::unique_ptr<deuce::OtpEngine>
makeOtp(uint64_t seed)
{
    return deuce::makeAesOtpEngine(seed * 0x9e3779b97f4a7c15ull + 0x5ec2e7);
}

} // namespace perfbench
