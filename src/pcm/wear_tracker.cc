/**
 * @file
 * WearTracker implementation.
 */

#include "pcm/wear_tracker.hh"

#include <algorithm>
#include <memory>

#include "common/line_kernels.hh"

namespace deuce
{

WearTracker::WearTracker(CellTech tech) : tech_(tech)
{
    clear();
}

namespace
{

/** Scatter one 64-bit meta word into counters at @p base. */
inline void
scatterMetaWord(uint64_t word, uint64_t *counters, unsigned base,
                uint64_t &total)
{
    while (word) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
        ++counters[base + bit];
        ++total;
        word &= word - 1;
    }
}

} // namespace

void
WearTracker::recordWrite(const CacheLine &diff, uint64_t meta_diff,
                         unsigned rotation, uint64_t coset_diff)
{
    ++writes_;

    // Rotating the diff mask by the line's current rotation converts
    // logical flip positions to physical cell positions.
    CacheLine physical =
        rotation ? diff.rotl(rotation % CacheLine::kBits) : diff;

    if (tech_ == CellTech::MLC2) {
        // Both level bits of a programmed cell wear, whichever of
        // them the diff touched.
        lineKernels().mlcCellDiffInto(physical, physical);
    }

    lineKernels().accumulateFlips(physical, dataFlips_.data());
    totalDataFlips_ += physical.popcount();

    scatterMetaWord(meta_diff, metaFlips_.data(), 0, totalMetaFlips_);
    scatterMetaWord(coset_diff, metaFlips_.data(), 64, totalMetaFlips_);
}

void
WearTracker::recordWriteBatch(const CacheLine *phys_diffs,
                              const uint64_t *meta_diffs, std::size_t n,
                              const uint64_t *coset_diffs)
{
    writes_ += n;

    const LineKernelOps &k = lineKernels();
    constexpr std::size_t kChunk = 64;
    uint32_t counts[kChunk];

    if (tech_ == CellTech::SLC) {
        k.accumulateFlipsBatch(phys_diffs, n, dataFlips_.data());
        for (std::size_t i = 0; i < n; i += kChunk) {
            std::size_t c = n - i < kChunk ? n - i : kChunk;
            k.popcountBatch(phys_diffs + i, counts, c);
            for (std::size_t j = 0; j < c; ++j) {
                totalDataFlips_ += counts[j];
            }
        }
    } else {
        // Expand each physical diff to its programmed-cell mask in
        // chunk-sized scratch, then run the same cross-line kernels.
        // The scratch is raw storage: a CacheLine array would zero all
        // kChunk lines per call, and a one-write batch needs one.
        union Scratch
        {
            Scratch() {}
            CacheLine lines[kChunk];
        } expanded;
        for (std::size_t i = 0; i < n; i += kChunk) {
            std::size_t c = n - i < kChunk ? n - i : kChunk;
            for (std::size_t j = 0; j < c; ++j) {
                CacheLine *line =
                    std::construct_at(&expanded.lines[j], phys_diffs[i + j]);
                k.mlcCellDiffInto(*line, *line);
            }
            k.accumulateFlipsBatch(expanded.lines, c, dataFlips_.data());
            k.popcountBatch(expanded.lines, counts, c);
            for (std::size_t j = 0; j < c; ++j) {
                totalDataFlips_ += counts[j];
            }
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        scatterMetaWord(meta_diffs[i], metaFlips_.data(), 0,
                        totalMetaFlips_);
        if (coset_diffs != nullptr) {
            scatterMetaWord(coset_diffs[i], metaFlips_.data(), 64,
                            totalMetaFlips_);
        }
    }
}

double
WearTracker::meanPositionFlips() const
{
    return static_cast<double>(totalDataFlips_) / CacheLine::kBits;
}

uint64_t
WearTracker::maxPositionFlips() const
{
    return *std::max_element(dataFlips_.begin(), dataFlips_.end());
}

double
WearTracker::nonUniformity() const
{
    double mean = meanPositionFlips();
    if (mean <= 0.0) {
        return 1.0;
    }
    return static_cast<double>(maxPositionFlips()) / mean;
}

std::vector<double>
WearTracker::normalizedProfile() const
{
    std::vector<double> profile(CacheLine::kBits, 0.0);
    double mean = meanPositionFlips();
    if (mean <= 0.0) {
        return profile;
    }
    for (unsigned i = 0; i < CacheLine::kBits; ++i) {
        profile[i] = static_cast<double>(dataFlips_[i]) / mean;
    }
    return profile;
}

void
WearTracker::mergeFrom(const WearTracker &other)
{
    for (unsigned i = 0; i < CacheLine::kBits; ++i) {
        dataFlips_[i] += other.dataFlips_[i];
    }
    for (unsigned i = 0; i < kMetaBits; ++i) {
        metaFlips_[i] += other.metaFlips_[i];
    }
    writes_ += other.writes_;
    totalDataFlips_ += other.totalDataFlips_;
    totalMetaFlips_ += other.totalMetaFlips_;
}

void
WearTracker::clear()
{
    dataFlips_.fill(0);
    metaFlips_.fill(0);
    writes_ = 0;
    totalDataFlips_ = 0;
    totalMetaFlips_ = 0;
}

} // namespace deuce
