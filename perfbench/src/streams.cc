/**
 * @file
 * Workload generation. All inputs are made here from the seed; the
 * simulator only ever receives the generated events and requests.
 */

#include <algorithm>
#include <map>

#include "bench.hh"
#include "common/rng.hh"
#include "serve/tenant_scheme.hh"
#include "trace/profile.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kRangeBits = 14;
constexpr uint64_t kGenSlice = 4096;

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Times generation in slices of kGenSlice events. */
struct GenClock
{
    std::vector<double> nsPerEvent;
    uint64_t events = 0;
    uint64_t pending = 0;
    uint64_t start = nowNs();

    void
    tick()
    {
        ++events;
        if (++pending == kGenSlice) {
            uint64_t now = nowNs();
            nsPerEvent.push_back(static_cast<double>(now - start) /
                                 kGenSlice);
            start = now;
            pending = 0;
        }
    }
};

} // namespace

std::vector<std::pair<uint64_t, CacheLine>>
Stream::finalContents() const
{
    std::map<uint64_t, CacheLine> last;
    for (const TraceEvent &ev : events) {
        if (ev.kind == deuce::EventKind::Writeback) {
            last[ev.lineAddr] = ev.data;
        }
    }
    return {last.begin(), last.end()};
}

Stream
makeTable2Stream(uint64_t seed, uint64_t instructions, bool keep_reads)
{
    std::vector<deuce::BenchmarkProfile> profiles =
        deuce::spec2006Profiles();
    Stream s;
    GenClock clock;
    std::vector<std::vector<TraceEvent>> per(profiles.size());
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        deuce::BenchmarkProfile prof = profiles[p];
        prof.seed ^= mix(seed * 131 + p);
        double per_kilo = prof.mpki + prof.wbpki;
        uint64_t budget = static_cast<uint64_t>(
            static_cast<double>(instructions) * per_kilo / 1000.0 * 2.0) +
            64;
        auto gen = std::make_unique<deuce::SyntheticWorkload>(prof, budget);
        TraceEvent ev;
        while (gen->next(ev)) {
            clock.tick();
            if (ev.icount > instructions) {
                break;
            }
            if (!keep_reads && ev.kind == deuce::EventKind::ReadMiss) {
                continue;
            }
            ev.lineAddr |= static_cast<uint64_t>(p) << kRangeBits;
            per[p].push_back(ev);
        }
        s.sources.push_back(std::move(gen));
    }

    // k-way merge on instruction count (ties by profile order).
    std::vector<std::size_t> next(per.size(), 0);
    for (;;) {
        std::size_t best = per.size();
        for (std::size_t p = 0; p < per.size(); ++p) {
            if (next[p] < per[p].size() &&
                (best == per.size() ||
                 per[p][next[p]].icount < per[best][next[best]].icount)) {
                best = p;
            }
        }
        if (best == per.size()) {
            break;
        }
        const TraceEvent &ev = per[best][next[best]++];
        (ev.kind == deuce::EventKind::Writeback ? s.writes : s.reads)++;
        s.events.push_back(ev);
    }
    s.icountSpan = instructions + 1;

    std::vector<const deuce::SyntheticWorkload *> gens;
    for (const auto &g : s.sources) {
        gens.push_back(g.get());
    }
    s.initial = [gens](uint64_t addr) {
        return gens[addr >> kRangeBits]->initialContents(
            addr & ((uint64_t{1} << kRangeBits) - 1));
    };
    s.genNsPerEvent = median(clock.nsPerEvent);
    s.genEvents = clock.events;
    return s;
}

RequestStream
makeServeStream(uint64_t seed, uint64_t n)
{
    using deuce::serve::ReqOp;
    using deuce::serve::Request;
    RequestStream rs;
    GenClock clock;
    deuce::Rng rng(mix(seed ^ 0x5e7eb1e));
    deuce::ZipfSampler addrs(kServeWorkingSet, 0.9);
    std::vector<CacheLine> current(kServeTenants * kServeWorkingSet);
    rs.requests.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        Request req;
        req.tenant = static_cast<uint16_t>(rng.nextBounded(kServeTenants));
        req.addr = addrs.sample(rng);
        req.seq = i;
        if (rng.nextBounded(100) < 50) {
            req.op = ReqOp::Read;
        } else {
            req.op = ReqOp::Write;
            CacheLine &cur =
                current[req.tenant * kServeWorkingSet + req.addr];
            unsigned words = 1 + static_cast<unsigned>(rng.nextBounded(3));
            for (unsigned w = 0; w < words; ++w) {
                cur.limb(static_cast<unsigned>(rng.nextBounded(
                    CacheLine::kLimbs))) ^= rng.next() | 1;
            }
            req.data = cur;
        }
        rs.requests.push_back(req);
        clock.tick();
    }
    rs.genNsPerEvent = median(clock.nsPerEvent);
    rs.genEvents = clock.events;
    return rs;
}

Stream
requestsAsStream(const RequestStream &rs)
{
    Stream s;
    uint64_t icount = 0;
    for (const deuce::serve::Request &req : rs.requests) {
        TraceEvent ev;
        bool write = req.op == deuce::serve::ReqOp::Write;
        ev.kind = write ? deuce::EventKind::Writeback
                        : deuce::EventKind::ReadMiss;
        ev.lineAddr = deuce::serve::TenantScheme::globalAddr(
            req.tenant, req.addr, kServeAddrBits);
        icount += 100;
        ev.icount = icount;
        ev.data = req.data;
        (write ? s.writes : s.reads)++;
        s.events.push_back(ev);
    }
    s.icountSpan = icount + 100;
    s.initial = [](uint64_t) { return CacheLine{}; };
    s.genNsPerEvent = rs.genNsPerEvent;
    s.genEvents = rs.genEvents;
    return s;
}

Stream
makeStream(Workload w, uint64_t seed)
{
    switch (w) {
      case Workload::ReplayDeuce: {
        Stream s = makeTable2Stream(seed, kReplayInstructions, false);
        s.events.resize(s.events.size() / kBurst * kBurst);
        s.writes = s.events.size();
        return s;
      }
      case Workload::TimedMlc:
        return makeTable2Stream(seed, kMlcInstructions, true);
      case Workload::ServeBle:
        break;
    }
    return requestsAsStream(makeServeStream(seed, kServeRequests));
}

std::vector<deuce::serve::Request>
streamAsRequests(const Stream &s)
{
    std::vector<deuce::serve::Request> out;
    out.reserve(s.events.size());
    for (const TraceEvent &ev : s.events) {
        deuce::serve::Request req;
        req.op = ev.kind == deuce::EventKind::Writeback
                     ? deuce::serve::ReqOp::Write
                     : deuce::serve::ReqOp::Read;
        req.tenant = 0;
        req.addr = ev.lineAddr;
        req.seq = out.size();
        req.data = ev.data;
        out.push_back(req);
    }
    return out;
}

} // namespace perfbench
