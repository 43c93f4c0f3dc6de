/**
 * @file
 * MemoryCounters implementation.
 */

#include "sim/memory_counters.hh"

#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace deuce
{

MemoryCounters::MemoryCounters(const PcmConfig &pcm)
    : energy_(pcm), wear_(pcm.cellTech), cellTech_(pcm.cellTech),
      banks_(pcm.totalBanks())
{
}

void
MemoryCounters::noteWrite(uint64_t line_addr, const WriteResult &result,
                          unsigned slots, double flip_fraction,
                          unsigned rotation)
{
    wear_.recordWrite(result.dataDiff,
                      result.modifiedDiff | result.flipDiff, rotation,
                      result.cosetDiff);
    noteWriteNoWear(line_addr, result, slots, flip_fraction);
}

void
MemoryCounters::noteWriteNoWear(uint64_t line_addr,
                                const WriteResult &result, unsigned slots,
                                double flip_fraction)
{
    // SLC prices every flipped bit the same; MLC2 prices data cells
    // through the transition matrix (noteMlcTransitions), so only the
    // metadata flips — the arrays stay SLC — are charged per bit here.
    energy_.addWrite(cellTech_ == CellTech::SLC ? result.totalFlips()
                                                : result.metaFlips);
    flipStat_.add(flip_fraction);
    slotStat_.add(static_cast<double>(slots));
    slotHist_.add(slots);
    flipHist_.add(result.totalFlips());

    // Same address interleave the timing model uses (lineAddr % banks).
    BankCounters &bank = banks_[line_addr % banks_.size()];
    ++bank.writes;
    bank.flips += result.totalFlips();
    bank.slots += slots;
}

void
MemoryCounters::noteWearBatch(const CacheLine *phys_diffs,
                              const uint64_t *meta_diffs, std::size_t n,
                              const uint64_t *coset_diffs)
{
    wear_.recordWriteBatch(phys_diffs, meta_diffs, n, coset_diffs);
}

void
MemoryCounters::noteMlcTransitions(const uint64_t *counts)
{
    energy_.addWriteTransitions(counts);
}

void
MemoryCounters::noteRead(uint64_t line_addr)
{
    energy_.addRead();
    ++banks_[line_addr % banks_.size()].reads;
}

void
MemoryCounters::notePersist(uint64_t meta_reads, uint64_t meta_writes)
{
    energy_.addPersist(meta_reads, meta_writes);
}

const BankCounters &
MemoryCounters::bank(unsigned bank) const
{
    deuce_assert(bank < banks_.size());
    return banks_[bank];
}

uint64_t
MemoryCounters::totalWriteSlots() const
{
    uint64_t total = 0;
    for (const BankCounters &b : banks_) {
        total += b.slots;
    }
    return total;
}

uint64_t
MemoryCounters::totalReads() const
{
    uint64_t total = 0;
    for (const BankCounters &b : banks_) {
        total += b.reads;
    }
    return total;
}

void
MemoryCounters::mergeFrom(const MemoryCounters &other)
{
    deuce_assert(banks_.size() == other.banks_.size());
    energy_.mergeFrom(other.energy_);
    wear_.mergeFrom(other.wear_);
    flipStat_.merge(other.flipStat_);
    slotStat_.merge(other.slotStat_);
    slotHist_.mergeFrom(other.slotHist_);
    flipHist_.mergeFrom(other.flipHist_);
    for (size_t b = 0; b < banks_.size(); ++b) {
        banks_[b].writes += other.banks_[b].writes;
        banks_[b].reads += other.banks_[b].reads;
        banks_[b].flips += other.banks_[b].flips;
        banks_[b].slots += other.banks_[b].slots;
    }
}

std::string
MemoryCounters::deterministicSignature() const
{
    std::ostringstream os;
    os << "writes=" << energy_.writes() << " reads=" << energy_.reads()
       << " flips=" << energy_.flips()
       << " slots=" << totalWriteSlots();

    // The energy is a function of the integer flip/read totals, so it
    // is bit-identical whenever they are; print every significant
    // digit so a mismatch cannot hide in rounding.
    char energy[64];
    std::snprintf(energy, sizeof(energy), " energyPj=%.17g",
                  energy_.dynamicEnergyPj());
    os << energy;

    os << " wearData=" << wear_.totalDataFlips()
       << " wearMeta=" << wear_.totalMetaFlips();

    // Persist traffic is appended only when the model generated any,
    // so persist-disabled signatures stay byte-identical to the
    // pre-persist format.
    if (energy_.persistMetaReads() != 0 ||
        energy_.persistMetaWrites() != 0) {
        os << " persist=" << energy_.persistMetaReads() << ","
           << energy_.persistMetaWrites();
    }

    // Likewise the MLC2 transition histogram appears only once any
    // transition has been recorded, so SLC signatures keep the
    // pre-MLC format byte for byte.
    uint64_t mlc_total = 0;
    for (unsigned i = 0; i < 16; ++i) {
        mlc_total += energy_.mlcTransitions(i);
    }
    if (mlc_total != 0) {
        os << " mlcTrans=";
        for (unsigned i = 0; i < 16; ++i) {
            os << energy_.mlcTransitions(i) << ",";
        }
    }
    for (size_t b = 0; b < banks_.size(); ++b) {
        os << " b" << b << "=" << banks_[b].writes << ","
           << banks_[b].reads << "," << banks_[b].flips << ","
           << banks_[b].slots;
    }
    os << " slotHist=";
    for (unsigned i = 0; i < slotHist_.numBuckets(); ++i) {
        os << slotHist_.bucketCount(i) << ",";
    }
    os << " flipHist=";
    for (unsigned i = 0; i < flipHist_.numBuckets(); ++i) {
        os << flipHist_.bucketCount(i) << ",";
    }
    return os.str();
}

} // namespace deuce
