/**
 * @file
 * Experiment runner implementation.
 */

#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "enc/scheme_factory.hh"
#include "obs/trace.hh"
#include "trace/synthetic.hh"
#include "wear/lifetime.hh"

namespace deuce
{

namespace
{

/**
 * Events needed so that roughly `writebacks` writebacks occur: the
 * generator always produces the mixed read/writeback stream, so the
 * budget scales by the event mix even when reads are filtered out.
 */
uint64_t
eventBudget(const BenchmarkProfile &p, uint64_t writebacks)
{
    double events_per_wb = (p.mpki + p.wbpki) / p.wbpki;
    return static_cast<uint64_t>(
        static_cast<double>(writebacks) * events_per_wb) + 1;
}

/** Wraps a workload, passing through only writeback events. */
class WritebackOnly : public TraceSource
{
  public:
    explicit WritebackOnly(SyntheticWorkload &inner) : inner_(inner) {}

    bool
    next(TraceEvent &out) override
    {
        while (inner_.next(out)) {
            if (out.kind == EventKind::Writeback) {
                return true;
            }
        }
        return false;
    }

  private:
    SyntheticWorkload &inner_;
};

} // namespace

ExperimentRow
runExperiment(const BenchmarkProfile &profile,
              const EncryptionScheme &scheme,
              const ExperimentOptions &options)
{
    SyntheticWorkload workload(
        profile, eventBudget(profile, options.writebacks));

    // Install-on-first-touch must see the line's pre-write image; at
    // a first writeback the workload's current contents are already
    // mutated, but the pre-image is exactly the deterministic initial
    // contents (lines change only via writebacks).
    // The persist tree must cover every line a write can touch.
    PersistConfig persist = options.persist;
    if (persist.enabled) {
        persist.numLines =
            std::max(persist.numLines, profile.workingSetLines);
    }

    MemorySystem memory(
        scheme, options.wl, options.pcm,
        [&workload](uint64_t addr) {
            return workload.initialContents(addr);
        },
        options.fault, persist);

    ExperimentRow row;
    row.bench = profile.name;
    row.scheme = scheme.name();
    row.trackingBits = scheme.trackingBitsPerLine();

    if (options.timing) {
        DEUCE_TRACE_SCOPE("experiment.timing");
        TimingSimulator sim(options.timingCfg, options.pcm);
        TimingResult t = sim.run(workload, memory);
        row.executionNs = t.executionNs;
        row.energyPj = memory.energy().totalEnergyPj(t.executionNs);
        row.powerMw = memory.energy().averagePowerMw(t.executionNs);
        row.edp = memory.energy().edp(t.executionNs);
        row.reads = t.reads;
        row.writebacks = t.writebacks;
        row.counterCacheMissRate = t.counterCacheMissRate;
    } else if (options.processReads) {
        DEUCE_TRACE_SCOPE("experiment.replay");
        TraceEvent ev;
        while (workload.next(ev)) {
            if (ev.kind == EventKind::Writeback) {
                memory.write(ev.lineAddr, ev.data);
            } else {
                memory.read(ev.lineAddr);
            }
        }
        row.reads = workload.readsProduced();
        row.writebacks = workload.writebacksProduced();
    } else {
        DEUCE_TRACE_SCOPE("experiment.writebacks");
        WritebackOnly writebacks(workload);
        TraceEvent ev;
        unsigned batch = std::max(1u, options.writeBatch);
        if (batch == 1) {
            while (writebacks.next(ev)) {
                memory.write(ev.lineAddr, ev.data);
            }
        } else {
            std::vector<WriteRequest> burst;
            burst.reserve(batch);
            while (writebacks.next(ev)) {
                burst.push_back(WriteRequest{ev.lineAddr, ev.data});
                if (burst.size() == batch) {
                    memory.writeBatch(burst);
                    burst.clear();
                }
            }
            if (!burst.empty()) {
                memory.writeBatch(burst);
            }
        }
        row.writeBatch = batch;
        row.writebacks = workload.writebacksProduced();
    }

    row.flipPct = memory.flipStat().mean() * 100.0;
    row.avgSlots = memory.slotStat().mean();
    if (memory.wearTracker().writes() > 0) {
        LifetimeEstimate est = estimateLifetime(memory.wearTracker(),
                                                options.pcm);
        row.maxFlipRate = est.maxFlipRate;
        row.wearNonUniformity = est.nonUniformity;
    }
    if (const PersistDomain *pd = memory.persist()) {
        const PersistStats &ps = pd->stats();
        row.persistEnabled = true;
        row.persistPolicy = persistPolicyName(pd->config().policy);
        row.persistFlushEpoch =
            (pd->config().policy == PersistConfig::Policy::Lazy)
                ? pd->config().flushEpoch : 0;
        row.persistVolatileCounters = pd->volatileCounters();
        row.persistCounterFlushes = ps.counterFlushes;
        row.persistMetaWrites = ps.metaWrites;
        row.persistMetaReads = ps.metaReads;
    }
    if (row.writebacks > 0) {
        row.avgWriteEnergyPj = memory.energy().writeEnergyPj() /
                               static_cast<double>(row.writebacks);
    }
    if (options.pcm.cellTech == CellTech::MLC2) {
        row.mlcEnabled = true;
        row.mlcProgrammedCells = memory.energy().mlcProgrammedCells();
        row.mlcTransitionEnergyPj =
            memory.energy().mlcTransitionEnergyPj();
    }
    if (const FaultDomain *fault = memory.fault()) {
        const FaultStats &fs = fault->stats();
        row.faultEnabled = true;
        row.stuckCells = fs.stuckCells;
        row.correctedWrites = fs.correctedWrites;
        row.uncorrectableErrors = fs.uncorrectableErrors;
        row.decommissionedLines = fs.decommissionedLines;
        row.writesToFirstUncorrectable = fs.firstUncorrectableWrite;
    }
    return row;
}

ExperimentRow
runExperiment(const BenchmarkProfile &profile,
              const SchemeFactory &factory,
              const ExperimentOptions &options)
{
    std::unique_ptr<OtpEngine> otp = options.otpEngine(options.otpSeed);
    std::unique_ptr<EncryptionScheme> scheme = factory(*otp);
    ExperimentRow row = runExperiment(profile, *scheme, options);
    row.aesBackend = otp->backendName();
    row.lineBackend = lineBackendName(activeLineBackend());
    return row;
}

ExperimentRow
runExperiment(const BenchmarkProfile &profile,
              const std::string &scheme_id,
              const ExperimentOptions &options)
{
    return runExperiment(
        profile,
        [&scheme_id](const OtpEngine &otp) {
            return makeScheme(scheme_id, otp);
        },
        options);
}

double
averageOf(const std::vector<ExperimentRow> &rows,
          double ExperimentRow::*field)
{
    deuce_assert(!rows.empty());
    double sum = 0.0;
    for (const ExperimentRow &r : rows) {
        sum += r.*field;
    }
    return sum / static_cast<double>(rows.size());
}

double
geomeanSpeedup(const std::vector<ExperimentRow> &baseline,
               const std::vector<ExperimentRow> &scheme,
               double ExperimentRow::*field)
{
    deuce_assert(baseline.size() == scheme.size() && !baseline.empty());
    double log_sum = 0.0;
    for (size_t i = 0; i < baseline.size(); ++i) {
        double b = baseline[i].*field;
        double s = scheme[i].*field;
        deuce_assert(b > 0.0 && s > 0.0);
        log_sum += std::log(b / s);
    }
    return std::exp(log_sum / static_cast<double>(baseline.size()));
}

} // namespace deuce
