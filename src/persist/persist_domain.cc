/**
 * @file
 * PersistDomain implementation.
 */

#include "persist/persist_domain.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/registry.hh"

namespace deuce
{

namespace
{

/** Counters per 64-byte metadata line (28-bit counters, packed). */
constexpr uint64_t kCountersPerMetaLine = 16;

/** Sort @p lines into address order and drop repeats. */
void
sortDistinct(std::vector<uint64_t> &lines)
{
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

} // namespace

PersistDomain::PersistDomain(const PersistConfig &cfg)
    : cfg_(cfg), macCipher_(macKey(cfg.keySeed)), tree_(freshTree())
{
    if (cfg.policy == PersistConfig::Policy::Lazy && cfg.flushEpoch == 0) {
        deuce_fatal("persist: lazy flush epoch must be at least 1");
    }
    if (cfg.policy == PersistConfig::Policy::BatteryBacked &&
        cfg.queueDepth == 0) {
        deuce_fatal("persist: battery queue depth must be at least 1");
    }
}

std::unique_ptr<MerkleCounterTree>
PersistDomain::freshTree() const
{
    if (!cfg_.integrity) {
        return nullptr;
    }
    return std::make_unique<MerkleCounterTree>(
        cfg_.numLines, treeKey(cfg_.keySeed), cfg_.treeArity);
}

uint64_t
PersistDomain::effectiveCounter(const StoredLineState &state)
{
    return effectiveOf(fieldsOf(state));
}

PersistDomain::Fields
PersistDomain::fieldsOf(const StoredLineState &state)
{
    Fields f;
    f.counter = state.counter;
    f.blockCounters = state.blockCounters;
    return f;
}

uint64_t
PersistDomain::effectiveOf(const Fields &f)
{
    uint64_t eff = f.counter;
    for (uint64_t c : f.blockCounters) {
        eff += c;
    }
    return eff;
}

std::vector<uint64_t>
PersistDomain::pendingLines() const
{
    std::vector<uint64_t> lines = pending_;
    sortDistinct(lines);
    return lines;
}

uint64_t
PersistDomain::flushBatch(std::span<const uint64_t> batch)
{
    // One metadata-array write per distinct counter line (16 counters
    // pack into a 64-byte line, the same layout the counter-cache
    // timing model assumes), plus one per distinct tree leaf group.
    // Batches arrive address-ordered, so distinct groups are runs.
    // The tree takes the whole batch at once: each dirtied node and
    // the root are re-hashed once, not once per line.
    uint64_t meta_writes = 0;
    uint64_t last_counter_line = ~uint64_t{0};
    uint64_t last_leaf_group = ~uint64_t{0};
    updates_.clear();
    for (uint64_t line : batch) {
        LineMeta &meta = meta_.at(line);
        meta.durable = meta.live;
        if (tree_) {
            deuce_assert(line < cfg_.numLines);
            updates_.push_back({line, effectiveOf(meta.live)});
            ++stats_.treeUpdates;
            uint64_t leaf_group = line / cfg_.treeArity;
            if (leaf_group != last_leaf_group) {
                last_leaf_group = leaf_group;
                ++meta_writes;
            }
        }
        uint64_t counter_line = line / kCountersPerMetaLine;
        if (counter_line != last_counter_line) {
            last_counter_line = counter_line;
            ++meta_writes;
        }
    }
    if (tree_) {
        tree_->updateBatch(updates_);
    }
    stats_.flushedCounters += batch.size();
    stats_.metaWrites += meta_writes;
    return meta_writes;
}

PersistTraffic
PersistDomain::onWrite(uint64_t line, const StoredLineState &state)
{
    LineMeta &meta = meta_[line];
    meta.live = fieldsOf(state);
    ++stats_.counterWrites;

    if (cfg_.integrity) {
        // The MAC binds (address, effective counter, ciphertext) and
        // lands in the array atomically with the data, so it costs no
        // separate metadata write.
        meta.mac = macLine(macCipher_, line, effectiveCounter(state),
                           state.data);
        ++stats_.macWrites;
    }

    PersistTraffic traffic;
    switch (cfg_.policy) {
      case PersistConfig::Policy::WriteThrough:
        // Synchronous: the flush occupies the store's service slot.
        ++stats_.counterFlushes;
        traffic.metaWrites = flushBatch({&line, 1});
        traffic.criticalMetaWrites = traffic.metaWrites;
        break;
      case PersistConfig::Policy::Lazy:
        // Repeats pile up between flushes; dedupe before the vector
        // would grow, so it stays O(distinct pending lines) however
        // long the epoch.
        if (pending_.size() == pending_.capacity()) {
            sortDistinct(pending_);
        }
        pending_.push_back(line);
        if (++writesSinceFlush_ >= cfg_.flushEpoch) {
            sortDistinct(pending_);
            ++stats_.counterFlushes;
            traffic.metaWrites = flushBatch(pending_);
            pending_.clear();
            writesSinceFlush_ = 0;
        }
        break;
      case PersistConfig::Policy::BatteryBacked:
        // Write combining: a rewrite of a queued line coalesces in
        // place. Overflow evicts the oldest entry to the array.
        if (std::find(pending_.begin(), pending_.end(), line) !=
            pending_.end()) {
            break;
        }
        pending_.push_back(line);
        if (pending_.size() > cfg_.queueDepth) {
            ++stats_.counterFlushes;
            traffic.metaWrites = flushBatch({pending_.data(), 1});
            pending_.erase(pending_.begin());
        }
        break;
    }
    return traffic;
}

PersistTraffic
PersistDomain::onRead(uint64_t line)
{
    (void)line;
    if (!cfg_.integrity) {
        return {};
    }
    ++stats_.metaReads;
    ++stats_.macReads;
    return {1, 0};
}

CrashImage
PersistDomain::crash(const LineTable<StoredLineState> &lines,
                     bool mid_flush)
{
    CrashImage image;
    image.config = cfg_;

    if (cfg_.policy == PersistConfig::Policy::BatteryBacked) {
        // Residual charge persists the pending queue, in address
        // order, before the chip dies; the durable image is fully
        // consistent.
        if (!pending_.empty()) {
            std::sort(pending_.begin(), pending_.end());
            ++stats_.counterFlushes;
            flushBatch(pending_);
        }
    } else if (mid_flush && !pending_.empty()) {
        // Interrupt a flush after the lowest pending counter reaches
        // the array but before its tree path is rewritten: a torn
        // flush. The image's tree fails verification for that leaf
        // group.
        uint64_t torn = *std::min_element(pending_.begin(), pending_.end());
        LineMeta &meta = meta_.at(torn);
        meta.durable = meta.live;
        if (tree_) {
            tree_->tamperCounter(torn, effectiveOf(meta.live));
        }
        image.tornFlush = true;
        image.tornLine = torn;
    }

    // Durable per-line state (the map orders it by address): data and
    // tracking bits are current (atomic with the line write); counter
    // fields roll back to the durable shadow (install-time zeros if
    // the line was never flushed).
    lines.forEach([&](uint64_t line, const StoredLineState &state) {
        StoredLineState &durable =
            image.lines.emplace(line, state).first->second;
        if (const LineMeta *meta = meta_.find(line)) {
            durable.counter = meta->durable.counter;
            durable.blockCounters = meta->durable.blockCounters;
            image.liveCounters.emplace(line, effectiveOf(meta->live));
            if (cfg_.integrity) {
                image.macs.emplace(line, meta->mac);
            }
        }
    });
    image.tree = std::move(tree_);

    // Reboot: the on-chip state is gone. Nothing pending, empty
    // shadow, fresh tree (rebuilt as recovery adopts lines). Stats
    // persist — they are host-side measurement, not device state.
    pending_.clear();
    writesSinceFlush_ = 0;
    tree_ = freshTree();
    meta_.clear();
    return image;
}

void
PersistDomain::adopt(const std::map<uint64_t, StoredLineState> &lines)
{
    updates_.clear();
    for (const auto &[line, state] : lines) {
        LineMeta &meta = meta_[line];
        meta.live = fieldsOf(state);
        meta.durable = meta.live;
        if (cfg_.integrity) {
            uint64_t eff = effectiveOf(meta.live);
            meta.mac = macLine(macCipher_, line, eff, state.data);
            deuce_assert(line < cfg_.numLines);
            updates_.push_back({line, eff});
        }
    }
    if (tree_) {
        tree_->updateBatch(updates_);
    }
}

ReadStatus
PersistDomain::verify(uint64_t line, const StoredLineState &stored) const
{
    deuce_assert(tree_);
    // The on-chip truth is the live counter and the root, never the
    // lagging durable copy: a replay of a line whose newer counter is
    // still dirty leaves a valid tree path but misses the live one.
    const uint64_t eff = effectiveCounter(stored);
    const LineMeta *meta = meta_.find(line);
    const uint64_t live = meta ? effectiveOf(meta->live) : 0;
    if (eff != live || !tree_->verify(line)) {
        return ReadStatus::CounterTampered;
    }
    if (meta && macLine(macCipher_, line, eff, stored.data) != meta->mac) {
        return ReadStatus::DataTampered;
    }
    return ReadStatus::Ok;
}

uint64_t
PersistDomain::mac(uint64_t line) const
{
    const LineMeta *meta = meta_.find(line);
    return meta ? meta->mac : 0;
}

void
PersistDomain::tamperMac(uint64_t line, uint64_t mac)
{
    if (LineMeta *meta = meta_.find(line)) {
        meta->mac = mac;
    }
}

void
PersistDomain::tamperCounter(uint64_t line, uint64_t value)
{
    deuce_assert(tree_);
    tree_->tamperCounter(line, value);
}

void
PersistDomain::registerStats(obs::StatRegistry &reg,
                             const std::string &prefix) const
{
    reg.addIntValue(prefix + ".volatileCounters",
                    "lines with unflushed (volatile) counter state",
                    [this] { return volatileCounters(); });
    reg.addIntValue(prefix + ".counterWrites",
                    "on-chip counter updates observed",
                    [this] { return stats_.counterWrites; });
    reg.addIntValue(prefix + ".counterFlushes",
                    "counter flush events",
                    [this] { return stats_.counterFlushes; });
    reg.addIntValue(prefix + ".flushedCounters",
                    "counters made durable across all flushes",
                    [this] { return stats_.flushedCounters; });
    reg.addIntValue(prefix + ".metaReads",
                    "metadata-array reads charged to the runtime",
                    [this] { return stats_.metaReads; });
    reg.addIntValue(prefix + ".metaWrites",
                    "metadata-array writes charged to the runtime",
                    [this] { return stats_.metaWrites; });
    reg.addIntValue(prefix + ".macWrites",
                    "per-line MACs computed with data writes",
                    [this] { return stats_.macWrites; });
    reg.addIntValue(prefix + ".treeUpdates",
                    "Merkle tree path updates (durable flushes)",
                    [this] { return stats_.treeUpdates; });
    reg.addIntValue(prefix + ".recoveryRepairs",
                    "lines repaired into this system after a crash",
                    [this] { return stats_.recoveryRepairs; });
}

} // namespace deuce
