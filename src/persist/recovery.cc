/**
 * @file
 * RecoveryEngine implementation.
 */

#include "persist/recovery.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "integrity/merkle.hh"
#include "obs/flight_recorder.hh"
#include "persist/persist_domain.hh"

namespace deuce
{

namespace
{

/** Latency of one MAC evaluation (AES pass over the line), ns. */
constexpr double kMacNs = 40.0;

} // namespace

RecoveryEngine::RecoveryEngine(const EncryptionScheme &scheme,
                               const PcmConfig &pcm)
    : scheme_(scheme), pcm_(pcm)
{}

RecoveryOutcome
RecoveryEngine::run(const CrashImage &image) const
{
    RecoveryOutcome out;
    RecoveryReport &rep = out.report;
    const uint64_t window = worstCaseWindow(image.config);

    std::unique_ptr<Aes128> mac;
    if (image.config.integrity) {
        mac = std::make_unique<Aes128>(macKey(image.config.keySeed));
    }

    for (const auto &[line, durable] : image.lines) {
        ++rep.linesExamined;

        auto tracked = image.liveCounters.find(line);
        if (tracked == image.liveCounters.end()) {
            // Installed (paged in encrypted) but never written: the
            // install-time state is durable by construction.
            ++rep.untrackedLines;
            out.lines.emplace(line, durable);
            continue;
        }
        const uint64_t d_eff = PersistDomain::effectiveCounter(durable);

        if (!image.config.integrity) {
            // Nothing to verify: resume from the durable counter. The
            // report reads the image's ground truth — which a real
            // controller does not have — to quantify the silent pad
            // reuse this causes.
            const uint64_t live = tracked->second;
            if (live > d_eff) {
                ++rep.undetectedStaleLines;
                rep.padReuseWindow += live - d_eff;
                rep.maxStaleGap =
                    std::max(rep.maxStaleGap, live - d_eff);
            } else {
                ++rep.cleanLines;
            }
            out.lines.emplace(line, durable);
            continue;
        }

        bool tree_ok = true;
        if (image.tree) {
            rep.metaReads += image.tree->levels();
            tree_ok = image.tree->verify(line);
            if (!tree_ok) {
                ++rep.tornPathLines;
            }
        }

        rep.metaReads += 1; // MAC fetch
        uint64_t stored_mac = image.macs.at(line);
        ++rep.macComputations;
        if (macLine(*mac, line, d_eff, durable.data) == stored_mac) {
            // Durable counter is current. A failed tree path here is
            // a torn flush whose counter did land; rebuild the path.
            if (tree_ok) {
                ++rep.cleanLines;
            } else {
                rep.metaWrites += 2;
            }
            out.lines.emplace(line, durable);
            continue;
        }

        // Counter-atomicity violation: the data (and its MAC) are
        // newer than the durable counter.
        ++rep.staleLines;

        // The controller knows the scheme statically; a rolled-back
        // image cannot reveal block-counter use (a never-flushed BLE
        // line rolls back to an all-zero split whose MAC a plain
        // counter search would "match" into a wrong, undecryptable
        // split).
        const bool block_mode = scheme_.usesBlockCounters();

        // Bounded reconstruction: the live counter is within the
        // policy's window of the durable one. Only the line counter
        // can be searched — with per-block counters the MAC pins the
        // *sum*, not the split, so a match would not reconstruct a
        // decryptable state.
        uint64_t found_gap = 0;
        if (!block_mode) {
            for (uint64_t k = 1; k <= window && found_gap == 0; ++k) {
                ++rep.macComputations;
                if (macLine(*mac, line, d_eff + k, durable.data) ==
                    stored_mac) {
                    found_gap = k;
                }
            }
        }

        StoredLineState st = durable;
        if (found_gap != 0) {
            ++rep.repairedLines;
            rep.padReuseWindow += found_gap;
            rep.maxStaleGap = std::max(rep.maxStaleGap, found_gap);
            // Restore the live counter, decrypt, and rewrite: the
            // scheme advances to a never-used counter, so the pads a
            // naive resume would have replayed are never reused.
            st.counter += found_gap;
            CacheLine plain = scheme_.read(line, st);
            WriteResult wr = scheme_.write(line, plain, st);
            out.repairs.emplace(line,
                                RecoveryRepair{wr.dataDiff, st.data});
            rep.metaWrites += 2;
        } else {
            // Beyond the window (or an unsearchable per-block split):
            // the data cannot be authenticated at any safe counter.
            // Skip the whole window so no future write reuses a pad;
            // the contents are lost.
            ++rep.unrecoverableLines;
            st.counter += window + 1;
            if (block_mode) {
                for (uint64_t &c : st.blockCounters) {
                    c += window + 1;
                }
            }
            rep.metaWrites += 2;
        }
        out.lines.emplace(line, st);
    }

    // Deterministic recovery-time model: scan every line, fetch its
    // metadata, evaluate MACs, rewrite repaired lines (4 slots of 128
    // bits) and flush the rebuilt metadata.
    rep.recoveryNs =
        static_cast<double>(rep.linesExamined) * pcm_.readLatencyNs +
        static_cast<double>(rep.metaReads) * pcm_.readLatencyNs +
        static_cast<double>(rep.macComputations) * kMacNs +
        static_cast<double>(rep.metaWrites) * pcm_.writeSlotNs +
        static_cast<double>(rep.repairedLines) * 4.0 * pcm_.writeSlotNs;
    obs::flightRecorderRecord(obs::FlightEventKind::Recovery, 0, 0,
                              rep.staleLines, rep.repairedLines);
    return out;
}

} // namespace deuce
