/**
 * @file
 * Experiment runner: one (benchmark, scheme, wear-leveling) cell of
 * any of the paper's tables or figures, plus sweep/report helpers.
 */

#ifndef DEUCE_SIM_EXPERIMENT_HH
#define DEUCE_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "crypto/otp_engine.hh"
#include "enc/scheme.hh"
#include "enc/scheme_factory.hh"
#include "fault/fault_config.hh"
#include "persist/persist_config.hh"
#include "sim/memory_system.hh"
#include "sim/timing.hh"
#include "trace/profile.hh"

namespace deuce
{

/** Knobs of one experiment cell. */
struct ExperimentOptions
{
    /** Writebacks to simulate (events scale with mpki/wbpki). */
    uint64_t writebacks = 200000;

    /** Also service read misses (needed for timing/energy runs). */
    bool processReads = false;

    /** Run the bank-contention timing model. */
    bool timing = false;

    /** Wear-leveling configuration. */
    WearLevelingConfig wl;

    /** Timing model parameters. */
    TimingConfig timingCfg;

    /** PCM device parameters. */
    PcmConfig pcm;

    /** End-of-life fault model (off by default). */
    FaultConfig fault;

    /** Counter-persistence / crash-consistency model (off by
     *  default). numLines is grown automatically to cover the
     *  profile's working set. */
    PersistConfig persist;

    /** Builds the cell's pad engine from otpSeed. */
    OtpEngineMaker otpEngine = makeAesOtpEngine;

    /** Key seed for the pad generator. */
    uint64_t otpSeed = 0x5ec2e7;

    /**
     * Writebacks gathered per writeBatch() burst in the replay loop
     * (1 = the historical one-at-a-time path). Any value produces
     * bit-identical results — the batch pipeline is signature-exact —
     * so the default favours throughput.
     */
    unsigned writeBatch = 64;
};

/** One result row (a bar of a figure / a cell of a table). */
struct ExperimentRow
{
    std::string bench;
    std::string scheme;

    /**
     * Pad-generator cipher backend the cell ran on ("scalar",
     * "aesni", "vaes", "neon", or "fast-hash"), so perf numbers are
     * attributable. Populated by the factory-based runExperiment
     * overloads (the sweep path); empty for borrowed-scheme runs,
     * and omitted from the JSON row when empty.
     */
    std::string aesBackend;

    /**
     * Line-kernel backend the cell ran on ("scalar", "avx2", or
     * "neon" — the resolved --line-backend selection). Populated by the factory-based runExperiment
     * overloads alongside aesBackend; empty for borrowed-scheme runs
     * and omitted from the JSON row when empty.
     */
    std::string lineBackend;

    /** Average bits modified per write, percent of the 512 line bits. */
    double flipPct = 0.0;

    /** Average write slots per write. */
    double avgSlots = 0.0;

    /** Execution time (timing runs only), ns. */
    double executionNs = 0.0;

    /** Memory energy, pJ (timing runs only). */
    double energyPj = 0.0;

    /** Memory power, mW (timing runs only). */
    double powerMw = 0.0;

    /** Energy-delay product, pJ*ns (timing runs only). */
    double edp = 0.0;

    /** Flips/write at the hottest bit position. */
    double maxFlipRate = 0.0;

    /** Hottest-position to mean-position wear ratio. */
    double wearNonUniformity = 1.0;

    /** Counter-cache miss ratio (timing runs with the model on). */
    double counterCacheMissRate = 0.0;

    /** Scheme tracking-bit overhead per line (Table 3 column). */
    unsigned trackingBits = 0;

    uint64_t writebacks = 0;
    uint64_t reads = 0;

    /** Burst size the replay loop used (1 = one-at-a-time path). */
    unsigned writeBatch = 1;

    /** Fault counters (populated only when the fault model ran). */
    bool faultEnabled = false;

    /** Cells stuck-at by the end of the run (live lines). */
    uint64_t stuckCells = 0;

    /** Writes that needed at least one new ECP entry. */
    uint64_t correctedWrites = 0;

    /** Writes past ECP capacity. */
    uint64_t uncorrectableErrors = 0;

    /** Lines retired into the spare pool. */
    uint64_t decommissionedLines = 0;

    /** 1-based write index of the first uncorrectable error (0=none). */
    uint64_t writesToFirstUncorrectable = 0;

    /** Persist counters (populated only when the persist model ran). */
    bool persistEnabled = false;

    /** Persistence policy the cell ran ("write-through", ...). */
    std::string persistPolicy;

    /** Lazy flush epoch (0 for other policies). */
    uint64_t persistFlushEpoch = 0;

    /** Lines with volatile counter state at the end of the run. */
    uint64_t persistVolatileCounters = 0;

    /** Counter flush events. */
    uint64_t persistCounterFlushes = 0;

    /** Metadata-array writes charged to the runtime. */
    uint64_t persistMetaWrites = 0;

    /** Metadata-array reads charged to the runtime. */
    uint64_t persistMetaReads = 0;

    /** MLC fields (populated only when the cell ran on MLC2 cells;
     *  SLC rows keep the historical JSON byte for byte). */
    bool mlcEnabled = false;

    /** Data cells programmed (off-diagonal level transitions). */
    uint64_t mlcProgrammedCells = 0;

    /** Data-cell program energy through the transition matrix, pJ. */
    double mlcTransitionEnergyPj = 0.0;

    /**
     * Array-write energy per writeback, pJ (flip energy plus MLC2
     * transition energy). Populated for every cell — it is the
     * cross-technology cost metric the SLC-vs-MLC sweeps rank on —
     * but emitted in the JSON row only for MLC2 cells, keeping SLC
     * rows byte-identical to the historical format.
     */
    double avgWriteEnergyPj = 0.0;
};

/** Run one (benchmark, scheme) cell. */
ExperimentRow runExperiment(const BenchmarkProfile &profile,
                            const std::string &scheme_id,
                            const ExperimentOptions &options);

/**
 * Run one cell, constructing the scheme (and its pad engine, per
 * options.otpEngine/otpSeed) through @p factory. This is the overload
 * parallel sweeps use: the cell owns everything it touches, so no
 * scheme instance is shared across worker threads.
 */
ExperimentRow runExperiment(const BenchmarkProfile &profile,
                            const SchemeFactory &factory,
                            const ExperimentOptions &options);

/**
 * Run one cell with an externally constructed scheme (for custom
 * configurations not expressible as a factory id). The scheme is
 * borrowed for the duration of the call; prefer the SchemeFactory
 * overload anywhere cells may run concurrently.
 */
ExperimentRow runExperiment(const BenchmarkProfile &profile,
                            const EncryptionScheme &scheme,
                            const ExperimentOptions &options);

/** Arithmetic mean of a row field over benchmarks (paper's "Avg"). */
double averageOf(const std::vector<ExperimentRow> &rows,
                 double ExperimentRow::*field);

/** Geometric mean of per-row ratios vs a baseline row set. */
double geomeanSpeedup(const std::vector<ExperimentRow> &baseline,
                      const std::vector<ExperimentRow> &scheme,
                      double ExperimentRow::*field);

} // namespace deuce

#endif // DEUCE_SIM_EXPERIMENT_HH
