/**
 * @file
 * MemorySystem implementation.
 */

#include "sim/memory_system.hh"

#include "common/line_kernels.hh"
#include "common/logging.hh"
#include "obs/flight_recorder.hh"
#include "obs/registry.hh"

namespace deuce
{

MemorySystem::MemorySystem(const EncryptionScheme &scheme,
                           const WearLevelingConfig &wl,
                           const PcmConfig &pcm,
                           std::function<CacheLine(uint64_t)> initial,
                           const FaultConfig &fault,
                           const PersistConfig &persist)
    : scheme_(scheme), wlCfg_(wl), pcm_(pcm),
      initial_(std::move(initial)), counters_(pcm)
{
    if (fault.enabled) {
        fault_ = std::make_unique<FaultDomain>(fault);
    }
    if (persist.enabled) {
        persist_ = std::make_unique<PersistDomain>(persist);
    }
    if (wlCfg_.verticalEnabled) {
        if (wlCfg_.engine == WearLevelingConfig::Engine::StartGap) {
            vwl_ = std::make_unique<StartGap>(wlCfg_.numLines,
                                              wlCfg_.gapWriteInterval);
        } else {
            vwl_ = std::make_unique<SecurityRefresh>(
                wlCfg_.numLines, wlCfg_.gapWriteInterval);
        }
    }
    switch (wlCfg_.rotation) {
      case WearLevelingConfig::Rotation::None:
        rotation_ = std::make_unique<NoRotation>();
        break;
      case WearLevelingConfig::Rotation::Hwl:
        if (!vwl_) {
            deuce_fatal("HWL requires vertical wear leveling");
        }
        rotation_ = std::make_unique<HwlRotation>(*vwl_, false);
        break;
      case WearLevelingConfig::Rotation::HwlHashed:
        if (!vwl_) {
            deuce_fatal("HWL requires vertical wear leveling");
        }
        rotation_ = std::make_unique<HwlRotation>(*vwl_, true);
        break;
      case WearLevelingConfig::Rotation::PerLine:
        rotation_ = std::make_unique<PerLineRotation>();
        break;
    }
}

StoredLineState &
MemorySystem::install(uint64_t line_addr)
{
    auto it = lines_.find(line_addr);
    if (it != lines_.end()) {
        return it->second;
    }
    CacheLine contents =
        initial_ ? initial_(line_addr) : CacheLine{};
    StoredLineState state;
    scheme_.install(line_addr, contents, state);
    return lines_.emplace(line_addr, state).first->second;
}

WriteOutcome
MemorySystem::write(uint64_t line_addr, const CacheLine &plaintext)
{
    // A write is a burst of one: the same commit sequence as
    // writeBatch(), without the burst's WriteBatch flight event.
    scratch_.outcomes.clear();
    const WriteRequest request{line_addr, plaintext};
    applyBatchChunk({&request, 1});
    return scratch_.outcomes.front();
}

void
MemorySystem::chargeMlcWrite(const CacheLine &phys_diff,
                             const CacheLine &new_data, unsigned rot,
                             WriteOutcome &outcome)
{
    // Transition levels pair *physical* bit positions (2c, 2c+1):
    // rotate the post-write image like the wear tracker and fault
    // domain do, and recover the old physical image from the diff.
    const CacheLine new_phys = rot ? new_data.rotl(rot) : new_data;
    const CacheLine old_phys = new_phys ^ phys_diff;

    uint64_t counts[16] = {};
    lineKernels().mlcTransitionCounts(old_phys, new_phys, counts);
    counters_.noteMlcTransitions(counts);

    // Iterative program-and-verify paces the whole slot: the write
    // service time stretches to the slowest transition performed.
    double slot_ns = pcm_.writeSlotNs;
    for (unsigned i = 0; i < 16; ++i) {
        unsigned from = i / 4;
        unsigned to = i % 4;
        if (from != to && counts[i] != 0 &&
            pcm_.mlc2.latencyNs[from][to] > slot_ns) {
            slot_ns = pcm_.mlc2.latencyNs[from][to];
        }
    }
    outcome.writeLatencyNs =
        static_cast<double>(outcome.slots) * slot_ns;
}

std::span<const WriteOutcome>
MemorySystem::writeBatch(std::span<const WriteRequest> requests)
{
    BatchScratch &s = scratch_;
    s.outcomes.clear();
    if (requests.empty()) {
        return {};
    }
    s.outcomes.reserve(requests.size());

    // A repeated address must plan its second write against the
    // post-first-write state, so the burst splits into duplicate-free
    // chunks committed in order.
    std::size_t begin = 0;
    s.seen.clear();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!s.seen.insert(requests[i].lineAddr).second) {
            applyBatchChunk(requests.subspan(begin, i - begin));
            begin = i;
            s.seen.clear();
            s.seen.insert(requests[i].lineAddr);
        }
    }
    applyBatchChunk(requests.subspan(begin));
    obs::flightRecorderRecord(obs::FlightEventKind::WriteBatch, 0, 0,
                              requests.size());
    return {s.outcomes.data(), s.outcomes.size()};
}

void
MemorySystem::applyBatchChunk(std::span<const WriteRequest> chunk)
{
    BatchScratch &s = scratch_;
    const std::size_t n = chunk.size();

    // The arenas only grow. Duplicate splits make chunk sizes vary,
    // and resizing down and up again would value-initialize the
    // regrown tail (56 pad requests a line) on every longer chunk.
    auto reserveArena = [](auto &arena, std::size_t size) {
        if (arena.size() < size) {
            arena.resize(size);
        }
    };

    // Phase 1: install every line and collect its pad plan. Installs
    // charge nothing and each line's plan depends only on its own
    // state, so hoisting them ahead of the commits changes no result.
    reserveArena(s.states, n);
    reserveArena(s.padOffsets, n + 1);
    reserveArena(s.padReqs, 4 * kMaxWritePadLines * n);
    unsigned pad_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        StoredLineState &state = install(chunk[i].lineAddr);
        s.states[i] = &state;
        s.padOffsets[i] = pad_total;
        pad_total += scheme_.planWritePads(
            chunk[i].lineAddr, state, s.padReqs.data() + 4 * pad_total);
    }
    s.padOffsets[n] = pad_total;

    // Phase 2: one pad stream for the whole chunk, assembled into
    // 64-byte line pads.
    reserveArena(s.pads, 4 * pad_total);
    scheme_.generatePads(s.padReqs.data(), s.pads.data(), 4 * pad_total);
    reserveArena(s.linePads, pad_total);
    assembleLinePads(s.pads.data(), s.linePads.data(), pad_total);

    // Phase 3: commit in request order, with the wear landing
    // deferred (wear is integer-exact and commutative) to one
    // cross-line batch below.
    reserveArena(s.physDiffs, n);
    reserveArena(s.metaDiffs, n);
    reserveArena(s.cosetDiffs, n);
    for (std::size_t i = 0; i < n; ++i) {
        const uint64_t addr = chunk[i].lineAddr;
        StoredLineState &state = *s.states[i];

        // Vertical wear leveling advances on demand writes. The gap
        // copy itself rewrites one line at its new rotation; its (~1%
        // of traffic) flip cost is the classic Start-Gap overhead and
        // is not charged to the scheme under study, matching the
        // paper.
        if (vwl_) {
            vwl_->onWrite();
        }

        WriteOutcome outcome;
        outcome.result = scheme_.writeWithPads(
            addr, chunk[i].data, state,
            s.linePads.data() + s.padOffsets[i]);

        unsigned rotation = rotation_->rotationFor(addr);
        rotation_->onWrite(addr);

        // The fault domain sees the same physical view as the wear
        // tracker: the HWL rotation decides which cells the flips
        // land on and which cells the image occupies.
        unsigned rot = rotation % CacheLine::kBits;
        const CacheLine phys = rot ? outcome.result.dataDiff.rotl(rot)
                                   : outcome.result.dataDiff;
        if (fault_) {
            FaultDomain::Outcome f = fault_->onWrite(
                addr, phys, rot ? state.data.rotl(rot) : state.data);
            outcome.faultCorrectedCells = f.correctedCells;
            outcome.faultUncorrectable = f.uncorrectable;
        }

        outcome.slots = slotsForWrite(outcome.result.dataDiff,
                                      outcome.result.metaFlips, pcm_);
        outcome.writeLatencyNs =
            static_cast<double>(outcome.slots) * pcm_.writeSlotNs;
        if (pcm_.cellTech == CellTech::MLC2) {
            chargeMlcWrite(phys, state.data, rot, outcome);
        }
        outcome.flipFraction =
            static_cast<double>(outcome.result.totalFlips()) /
            CacheLine::kBits;

        counters_.noteWriteNoWear(addr, outcome.result, outcome.slots,
                                  outcome.flipFraction);
        obs::flightRecorderRecord(obs::FlightEventKind::Write, 0, 0,
                                  addr, outcome.result.totalFlips());
        s.physDiffs[i] = phys;
        s.metaDiffs[i] =
            outcome.result.modifiedDiff | outcome.result.flipDiff;
        s.cosetDiffs[i] = outcome.result.cosetDiff;

        if (persist_) {
            PersistTraffic t = persist_->onWrite(addr, state);
            outcome.persistMetaWrites =
                static_cast<unsigned>(t.criticalMetaWrites);
            counters_.notePersist(t.metaReads, t.metaWrites);
        }
        s.outcomes.push_back(outcome);
    }

    counters_.noteWearBatch(s.physDiffs.data(), s.metaDiffs.data(), n,
                            s.cosetDiffs.data());
}

CacheLine
MemorySystem::read(uint64_t line_addr)
{
    StoredLineState &state = install(line_addr);
    counters_.noteRead(line_addr);
    if (persist_) {
        PersistTraffic t = persist_->onRead(line_addr);
        counters_.notePersist(t.metaReads, t.metaWrites);
    }
    return scheme_.read(line_addr, state);
}

CrashImage
MemorySystem::crash(bool mid_flush)
{
    deuce_assert(persist_);
    CrashImage image = persist_->crash(lines_, mid_flush);
    lines_.clear();
    // Postmortem hook: a crash is exactly the moment the flight
    // recorder exists for, so capture the rings (with the final
    // pre-crash writes) immediately rather than waiting for exit.
    obs::flightRecorderRecord(obs::FlightEventKind::Crash, 0, 0,
                              image.lines.size(), mid_flush ? 1 : 0);
    obs::flightRecorderWriteFile();
    return image;
}

void
MemorySystem::adoptLine(uint64_t line_addr,
                        const StoredLineState &state)
{
    lines_[line_addr] = state;
    if (persist_) {
        persist_->adopt({{line_addr, state}});
    }
}

void
MemorySystem::adoptRecovery(const RecoveryOutcome &outcome)
{
    for (const auto &[line, state] : outcome.lines) {
        lines_[line] = state;
    }
    if (persist_) {
        persist_->adopt(outcome.lines);
    }
    // Repaired lines were physically rewritten by the recovery engine;
    // with faults enabled that traffic must age (and may trip) the
    // worn cells, exactly as an in-service write would. Fault-disabled
    // systems skip this entirely and stay bit-identical.
    if (fault_) {
        for (const auto &[line, repair] : outcome.repairs) {
            unsigned rot = rotation_->rotationFor(line) % CacheLine::kBits;
            const CacheLine phys_diff =
                rot ? repair.dataDiff.rotl(rot) : repair.dataDiff;
            const CacheLine phys_data =
                rot ? repair.newData.rotl(rot) : repair.newData;
            fault_->onWrite(line, phys_diff, phys_data);
        }
    }
    if (persist_) {
        persist_->noteRecoveryRepairs(outcome.report.repairedLines);
    }
}

bool
MemorySystem::contains(uint64_t line_addr) const
{
    return lines_.find(line_addr) != lines_.end();
}

const StoredLineState &
MemorySystem::storedState(uint64_t line_addr) const
{
    auto it = lines_.find(line_addr);
    deuce_assert(it != lines_.end());
    return it->second;
}

void
MemorySystem::registerStats(obs::StatRegistry &reg,
                            const std::string &prefix) const
{
    // Line-for-line the historical hand-written stats_dump output:
    // same names, descriptions, order, and Int/Float formatting.
    const EnergyAccumulator &energy = counters_.energy();
    const WearTracker &wear = counters_.wear();

    reg.addIntValue(prefix + ".writes", "line writebacks serviced",
                    [&energy] { return energy.writes(); });
    reg.addIntValue(prefix + ".reads", "line reads serviced",
                    [&energy] { return energy.reads(); });
    reg.addIntValue(prefix + ".bitFlips",
                    "total cell flips (data + metadata)",
                    [&energy] { return energy.flips(); });
    reg.addFormula(prefix + ".avgFlipPct",
                   "mean bits modified per write (% of 512)",
                   [this] { return counters_.flipStat().mean() * 100.0; });
    reg.addFormula(prefix + ".avgWriteSlots",
                   "mean 128-bit write slots per write",
                   [this] { return counters_.slotStat().mean(); });
    reg.addValue(prefix + ".dynamicEnergyPj",
                 "dynamic memory energy (pJ)",
                 [&energy] { return energy.dynamicEnergyPj(); });

    auto wrote = [&wear] { return wear.writes() > 0; };
    reg.addIntValue(prefix + ".wear.totalDataFlips",
                    "data-cell flips recorded",
                    [&wear] { return wear.totalDataFlips(); })
        .visibleWhen(wrote);
    reg.addIntValue(prefix + ".wear.totalMetaFlips",
                    "metadata-cell flips recorded",
                    [&wear] { return wear.totalMetaFlips(); })
        .visibleWhen(wrote);
    reg.addIntValue(prefix + ".wear.maxPositionFlips",
                    "flips at the hottest bit position",
                    [&wear] { return wear.maxPositionFlips(); })
        .visibleWhen(wrote);
    reg.addFormula(prefix + ".wear.nonUniformity",
                   "hottest/mean position wear ratio",
                   [&wear] { return wear.nonUniformity(); })
        .visibleWhen(wrote);

    scheme_.registerStats(reg, prefix + ".scheme");
}

void
MemorySystem::registerDetailStats(obs::StatRegistry &reg,
                                  const std::string &prefix) const
{
    reg.addHistogram(prefix + ".writeSlotsHist",
                     "write slots per write",
                     counters_.slotHistogram());
    reg.addHistogram(prefix + ".bitFlipsHist",
                     "cell flips per write", counters_.flipHistogram());

    for (unsigned b = 0; b < counters_.numBanks(); ++b) {
        const BankCounters &bank = counters_.bank(b);
        std::string base = prefix + ".bank" + std::to_string(b);
        reg.addIntValue(base + ".writes",
                        "line writebacks landing on the bank",
                        [&bank] { return bank.writes; });
        reg.addIntValue(base + ".reads",
                        "line reads serviced by the bank",
                        [&bank] { return bank.reads; });
        reg.addIntValue(base + ".bitFlips",
                        "cell flips charged to the bank",
                        [&bank] { return bank.flips; });
        reg.addIntValue(base + ".writeSlots",
                        "write slots the bank serviced",
                        [&bank] { return bank.slots; });
    }

    if (fault_) {
        fault_->registerStats(reg, prefix + ".fault");
    }
    if (persist_) {
        persist_->registerStats(reg, prefix + ".persist");
    }
}

} // namespace deuce
