/**
 * @file
 * PersistDomain implementation.
 */

#include "persist/persist_domain.hh"

#include "common/logging.hh"
#include "obs/registry.hh"

namespace deuce
{

namespace
{

AesKey
keyFromSeed(uint64_t seed)
{
    AesKey key{};
    for (unsigned i = 0; i < 8; ++i) {
        key[i] = static_cast<uint8_t>(seed >> (8 * i));
        key[8 + i] = static_cast<uint8_t>((seed * 0x9e3779b97f4a7c15ull)
                                          >> (8 * i));
    }
    return key;
}

/** Counters per 64-byte metadata line (28-bit counters, packed). */
constexpr uint64_t kCountersPerMetaLine = 16;

} // namespace

PersistDomain::PersistDomain(const PersistConfig &cfg)
    : cfg_(cfg), policy_(makePersistencePolicy(cfg)),
      macCipher_(keyFromSeed(cfg.keySeed))
{
    if (cfg_.integrity) {
        tree_ = std::make_unique<MerkleCounterTree>(
            cfg_.numLines, keyFromSeed(cfg_.keySeed ^ 0x7ee7),
            cfg_.treeArity);
    }
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

uint64_t
PersistDomain::flushBatch(const std::vector<uint64_t> &batch)
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
        auto it = meta_.find(line);
        deuce_assert(it != meta_.end());
        LineMeta &meta = it->second;
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

    std::vector<uint64_t> flushed;
    policy_->onCounterWrite(line, flushed);

    PersistTraffic traffic;
    if (!flushed.empty()) {
        ++stats_.counterFlushes;
        traffic.metaWrites = flushBatch(flushed);
        if (cfg_.policy == PersistConfig::Policy::WriteThrough) {
            traffic.criticalMetaWrites = traffic.metaWrites;
        }
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
PersistDomain::crash(
    const std::unordered_map<uint64_t, StoredLineState> &lines,
    bool mid_flush)
{
    CrashImage image;
    image.config = cfg_;
    image.worstCaseWindow = policy_->worstCaseWindow();

    if (policy_->drainsOnPowerLoss()) {
        // Residual charge persists the pending queue before the chip
        // dies; the durable image is fully consistent.
        std::vector<uint64_t> flushed;
        policy_->drainPending(flushed);
        if (!flushed.empty()) {
            ++stats_.counterFlushes;
            flushBatch(flushed);
        }
        image.drained = true;
    } else if (mid_flush) {
        // Interrupt a flush after the first counter reaches the array
        // but before its tree path is rewritten: a torn flush. The
        // image's tree fails verification for that leaf group.
        std::vector<uint64_t> pending = policy_->pendingLines();
        if (!pending.empty()) {
            uint64_t torn = pending.front();
            LineMeta &meta = meta_.at(torn);
            meta.durable = meta.live;
            if (tree_) {
                tree_->tamperCounter(torn, effectiveOf(meta.live));
            }
            image.tornFlush = true;
            image.tornLine = torn;
        }
    }

    // Durable per-line state, in address order: data and tracking
    // bits are current (atomic with the line write); counter fields
    // roll back to the durable shadow (install-time zeros if the line
    // was never flushed).
    std::map<uint64_t, StoredLineState> sorted(lines.begin(),
                                               lines.end());
    for (auto &[line, state] : sorted) {
        StoredLineState durable = state;
        auto it = meta_.find(line);
        if (it != meta_.end()) {
            const LineMeta &meta = it->second;
            durable.counter = meta.durable.counter;
            durable.blockCounters = meta.durable.blockCounters;
            image.durableCounters[line] = effectiveOf(meta.durable);
            image.liveCounters[line] = effectiveOf(meta.live);
            if (cfg_.integrity) {
                image.macs[line] = meta.mac;
            }
        }
        image.lines.emplace(line, durable);
    }
    image.tree = std::move(tree_);

    // Reboot: the on-chip state is gone. Fresh policy, empty shadow,
    // fresh tree (rebuilt as recovery adopts lines). Stats persist —
    // they are host-side measurement, not device state.
    policy_ = makePersistencePolicy(cfg_);
    if (cfg_.integrity) {
        tree_ = std::make_unique<MerkleCounterTree>(
            cfg_.numLines, keyFromSeed(cfg_.keySeed ^ 0x7ee7),
            cfg_.treeArity);
    }
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
