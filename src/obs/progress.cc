/**
 * @file
 * ProgressReporter implementation.
 */

#include "obs/progress.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

namespace deuce
{
namespace obs
{

std::optional<ProgressOptions>
progressOptionsFromEnv()
{
    const char *env = std::getenv("DEUCE_PROGRESS");
    if (env == nullptr || *env == '\0' ||
        std::string_view(env) == "0") {
        return std::nullopt;
    }
    ProgressOptions opts;
    opts.enabled = true;
    if (std::string_view(env) != "1") {
        opts.jsonlPath = env;
    }
    return opts;
}

ProgressReporter::ProgressReporter(uint64_t total, unsigned workers,
                                   ProgressOptions options)
    : opts_(std::move(options)), total_(total),
      workers_(std::max(workers, 1u)),
      start_(std::chrono::steady_clock::now())
{
}

void
ProgressReporter::cellStarted(const std::string &label)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++started_;
    running_.push_back(label);
}

void
ProgressReporter::cellFinished(const std::string &label,
                               double seconds)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++done_;
    durationsNs_.add(static_cast<uint64_t>(seconds * 1e9));
    auto it = std::find(running_.begin(), running_.end(), label);
    if (it != running_.end()) {
        running_.erase(it);
    }
}

ProgressSnapshot
ProgressReporter::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    ProgressSnapshot snap;
    snap.done = done_;
    snap.total = total_;
    snap.elapsedSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_)
            .count();
    snap.running = running_;
    if (done_ > 0 && total_ >= done_) {
        snap.meanCellSeconds = durationsNs_.snapshot().mean() / 1e9;
        uint64_t remaining = total_ - done_;
        snap.etaSeconds = snap.meanCellSeconds *
                          static_cast<double>(remaining) /
                          static_cast<double>(workers_);
    }
    return snap;
}

uint64_t
ProgressReporter::started() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return started_;
}

uint64_t
ProgressReporter::done() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
}

void
ProgressReporter::heartbeat()
{
    emit(snapshot(), "progress");
}

void
ProgressReporter::summary()
{
    emit(snapshot(), "summary");
}

void
ProgressReporter::emit(const ProgressSnapshot &snap, const char *type)
{
    double pct = snap.total > 0
                     ? 100.0 * static_cast<double>(snap.done) /
                           static_cast<double>(snap.total)
                     : 0.0;

    // Human heartbeat on stderr. One line per tick (not \r-rewritten)
    // so redirected logs of long runs stay readable.
    std::string current;
    if (!snap.running.empty()) {
        current = " | " + snap.running.front();
        if (snap.running.size() > 1) {
            current +=
                " +" + std::to_string(snap.running.size() - 1);
        }
    }
    if (snap.etaSeconds >= 0.0) {
        std::fprintf(stderr,
                     "[%s] %llu/%llu cells (%.1f%%) elapsed %.1fs "
                     "eta %.1fs%s\n",
                     opts_.label.c_str(),
                     static_cast<unsigned long long>(snap.done),
                     static_cast<unsigned long long>(snap.total), pct,
                     snap.elapsedSeconds, snap.etaSeconds,
                     current.c_str());
    } else {
        std::fprintf(stderr,
                     "[%s] %llu/%llu cells (%.1f%%) elapsed %.1fs "
                     "eta unknown%s\n",
                     opts_.label.c_str(),
                     static_cast<unsigned long long>(snap.done),
                     static_cast<unsigned long long>(snap.total), pct,
                     snap.elapsedSeconds, current.c_str());
    }

    if (opts_.jsonlPath.empty()) {
        return;
    }
    std::ofstream os(opts_.jsonlPath, std::ios::app);
    if (!os) {
        return;
    }
    os << "{\"type\":\"" << type << "\",\"label\":\"" << opts_.label
       << "\",\"done\":" << snap.done << ",\"total\":" << snap.total
       << ",\"elapsed_s\":" << snap.elapsedSeconds
       << ",\"eta_s\":" << snap.etaSeconds
       << ",\"mean_cell_s\":" << snap.meanCellSeconds
       << ",\"running\":[";
    for (size_t i = 0; i < snap.running.size(); ++i) {
        if (i > 0) {
            os << ',';
        }
        os << '"' << snap.running[i] << '"';
    }
    os << "]}\n";
}

} // namespace obs
} // namespace deuce
