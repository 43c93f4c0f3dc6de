/**
 * @file
 * Report/table formatting implementation.
 */

#include "sim/report.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "obs/output.hh"
#include "sim/experiment.hh"

namespace deuce
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    deuce_assert(!headers_.empty());
}

void
Table::addRow(std::vector<std::string> cells)
{
    deuce_assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::addRule()
{
    rows_.emplace_back(); // sentinel
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
        widths[c] = headers_[c].size();
    }
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < cells.size(); ++c) {
            if (c == 0) {
                os << cells[c]
                   << std::string(widths[c] - cells[c].size(), ' ');
            } else {
                os << "  "
                   << std::string(widths[c] - cells[c].size(), ' ')
                   << cells[c];
            }
        }
        os << '\n';
    };

    auto print_rule = [&]() {
        size_t total = 0;
        for (size_t c = 0; c < widths.size(); ++c) {
            total += widths[c] + (c ? 2 : 0);
        }
        os << std::string(total, '-') << '\n';
    };

    print_row(headers_);
    print_rule();
    for (const auto &row : rows_) {
        if (row.empty()) {
            print_rule();
        } else {
            print_row(row);
        }
    }
}

std::string
fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

void
printBanner(std::ostream &os, const std::string &experiment_id,
            const std::string &title)
{
    os << '\n' << "=== " << experiment_id << ": " << title
       << " ===" << '\n';
}

void
printPaperVsMeasured(std::ostream &os, const std::string &label,
                     double paper, double measured, int precision)
{
    os << "  " << label << ": paper " << fmt(paper, precision)
       << "  |  measured " << fmt(measured, precision) << '\n';
}

namespace
{

/** Shortest float form that round-trips (JSON has no NaN/inf). */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
experimentRowJson(const ExperimentRow &row)
{
    std::ostringstream os;
    os << '{' << "\"bench\":\"" << obs::jsonEscape(row.bench) << "\","
       << "\"scheme\":\"" << obs::jsonEscape(row.scheme) << "\","
       << "\"flip_pct\":" << jsonNumber(row.flipPct) << ','
       << "\"avg_slots\":" << jsonNumber(row.avgSlots) << ','
       << "\"tracking_bits\":" << row.trackingBits << ','
       << "\"writebacks\":" << row.writebacks << ','
       << "\"reads\":" << row.reads << ','
       << "\"execution_ns\":" << jsonNumber(row.executionNs) << ','
       << "\"energy_pj\":" << jsonNumber(row.energyPj) << ','
       << "\"power_mw\":" << jsonNumber(row.powerMw) << ','
       << "\"edp\":" << jsonNumber(row.edp) << ','
       << "\"max_flip_rate\":" << jsonNumber(row.maxFlipRate) << ','
       << "\"wear_nonuniformity\":"
       << jsonNumber(row.wearNonUniformity) << ','
       << "\"counter_cache_miss_rate\":"
       << jsonNumber(row.counterCacheMissRate);
    // The backend field is appended only when the runner recorded
    // one, so rows from borrowed-scheme runs keep the old format.
    if (!row.aesBackend.empty()) {
        os << ",\"aes_backend\":\"" << obs::jsonEscape(row.aesBackend)
           << '"';
    }
    if (!row.lineBackend.empty()) {
        os << ",\"line_backend\":\""
           << obs::jsonEscape(row.lineBackend) << '"';
    }
    // The burst size is appended only for batched replays, so
    // one-at-a-time rows keep the historical format. Results are
    // bit-identical across burst sizes; the field only attributes
    // throughput numbers.
    if (row.writeBatch > 1) {
        os << ",\"write_batch\":" << row.writeBatch;
    }
    // Fault counters are appended only when the fault model ran, so
    // fault-disabled rows stay byte-identical to the pre-fault format.
    if (row.faultEnabled) {
        os << ",\"stuck_cells\":" << row.stuckCells << ','
           << "\"corrected_writes\":" << row.correctedWrites << ','
           << "\"uncorrectable_errors\":" << row.uncorrectableErrors
           << ','
           << "\"decommissioned_lines\":" << row.decommissionedLines
           << ','
           << "\"writes_to_first_uncorrectable\":"
           << row.writesToFirstUncorrectable;
    }
    // MLC fields appear only for MLC2 cells, so SLC rows keep the
    // historical format byte for byte.
    if (row.mlcEnabled) {
        os << ",\"cell_tech\":\"mlc2\","
           << "\"mlc_programmed_cells\":" << row.mlcProgrammedCells
           << ','
           << "\"mlc_transition_energy_pj\":"
           << jsonNumber(row.mlcTransitionEnergyPj) << ','
           << "\"avg_write_energy_pj\":"
           << jsonNumber(row.avgWriteEnergyPj);
    }
    // Persist counters likewise append only when the model ran.
    if (row.persistEnabled) {
        os << ",\"persist_policy\":\""
           << obs::jsonEscape(row.persistPolicy) << "\","
           << "\"persist_flush_epoch\":" << row.persistFlushEpoch
           << ','
           << "\"persist_volatile_counters\":"
           << row.persistVolatileCounters << ','
           << "\"persist_counter_flushes\":"
           << row.persistCounterFlushes << ','
           << "\"persist_meta_writes\":" << row.persistMetaWrites
           << ','
           << "\"persist_meta_reads\":" << row.persistMetaReads;
    }
    os << '}';
    return os.str();
}

void
writeJsonRows(std::ostream &os,
              const std::vector<ExperimentRow> &rows)
{
    for (const ExperimentRow &row : rows) {
        os << experimentRowJson(row) << '\n';
    }
}

} // namespace deuce
