/**
 * @file
 * Tests for LineTable, the flat per-line record table: a randomized
 * differential against std::unordered_map over insert, find, at,
 * erase, clear and iteration on several key shapes; record references
 * that survive index growth, erases of other keys and
 * move-construction; value-reset reuse of erased records; and
 * CellFaultMap's retire → re-touch path through its table.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/line_table.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fault/cell_fault_map.hh"

namespace deuce
{
namespace
{

/** A record that owns heap memory, so resets and moves are visible. */
struct Payload
{
    uint64_t value = 0;
    std::vector<uint64_t> history;

    bool operator==(const Payload &) const = default;
};

/** The table's contents as an address-ordered map, via forEach(). */
std::map<uint64_t, Payload>
contents(const LineTable<Payload> &table)
{
    std::map<uint64_t, Payload> out;
    table.forEach([&out](uint64_t key, const Payload &rec) {
        EXPECT_TRUE(out.emplace(key, rec).second) << "key " << key;
    });
    return out;
}

/** The reference's contents, address-ordered. */
std::map<uint64_t, Payload>
contents(const std::unordered_map<uint64_t, Payload> &ref)
{
    return {ref.begin(), ref.end()};
}

/** Keys of one shape: dense, strided by a power of two, or random. */
uint64_t
drawKey(Rng &rng, unsigned shape)
{
    switch (shape) {
      case 0:
        return rng.nextBounded(300);
      case 1:
        return rng.nextBounded(300) << 16;
      case 2:
        return (uint64_t{1} << 40) + rng.nextBounded(3000);
      default:
        return rng.next();
    }
}

TEST(LineTable, MatchesUnorderedMap)
{
    for (unsigned shape = 0; shape < 4; ++shape) {
        SCOPED_TRACE(testing::Message() << "key shape " << shape);
        LineTable<Payload> table;
        std::unordered_map<uint64_t, Payload> ref;
        Rng rng(0x7ab1e + shape);
        for (unsigned op = 0; op < 60000; ++op) {
            const uint64_t key = drawKey(rng, shape);
            switch (rng.nextBounded(8)) {
              case 0:
              case 1:
              case 2: {
                auto [rec, fresh] = table.tryEmplace(key);
                auto [it, ref_fresh] = ref.try_emplace(key);
                ASSERT_EQ(fresh, ref_fresh) << "op " << op;
                ASSERT_EQ(*rec, it->second) << "op " << op;
                rec->value += op;
                rec->history.push_back(op);
                it->second.value += op;
                it->second.history.push_back(op);
                break;
              }
              case 3:
                table[key].value ^= key;
                ref[key].value ^= key;
                break;
              case 4:
              case 5: {
                const Payload *rec = table.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(rec != nullptr, it != ref.end()) << "op " << op;
                ASSERT_EQ(table.contains(key), it != ref.end());
                if (rec) {
                    ASSERT_EQ(*rec, it->second) << "op " << op;
                    ASSERT_EQ(&table.at(key), rec);
                }
                break;
              }
              case 6:
                ASSERT_EQ(table.erase(key), ref.erase(key) == 1)
                    << "op " << op;
                break;
              default:
                if (rng.nextBounded(400) == 0) {
                    table.clear();
                    ref.clear();
                }
                break;
            }
            ASSERT_EQ(table.size(), ref.size()) << "op " << op;
            if (op % 5000 == 0) {
                ASSERT_EQ(contents(table), contents(ref)) << "op " << op;
            }
        }
        EXPECT_EQ(contents(table), contents(ref));
        EXPECT_EQ(table.empty(), ref.empty());
    }
}

TEST(LineTable, AtOnAbsentKeyPanics)
{
    LineTable<Payload> table;
    table[3].value = 1;
    EXPECT_EQ(table.at(3).value, 1u);
    EXPECT_THROW(table.at(4), PanicError);
}

TEST(LineTable, ReferencesSurviveGrowthErasesAndMoves)
{
    LineTable<Payload> table;
    std::vector<std::pair<uint64_t, Payload *>> held;
    for (uint64_t key = 0; key < 64; ++key) {
        Payload &rec = table[key * 977];
        rec.value = key;
        rec.history.assign(3, key);
        held.emplace_back(key * 977, &rec);
    }
    // Grow the index many times over, and erase other keys so the
    // backward shift moves index slots around the held ones.
    for (uint64_t i = 0; i < 20000; ++i) {
        table[(uint64_t{1} << 32) + i].value = i;
    }
    for (uint64_t i = 0; i < 20000; i += 3) {
        ASSERT_TRUE(table.erase((uint64_t{1} << 32) + i));
    }
    for (const auto &[key, rec] : held) {
        ASSERT_EQ(table.find(key), rec) << "key " << key;
        ASSERT_EQ(rec->value * 977, key);
        ASSERT_EQ(rec->history, std::vector<uint64_t>(3, rec->value));
    }

    // Moving the table moves chunk pointers, not records.
    LineTable<Payload> moved(std::move(table));
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(held.front().first), nullptr);
    for (const auto &[key, rec] : held) {
        ASSERT_EQ(moved.find(key), rec) << "key " << key;
    }
    LineTable<Payload> assigned;
    assigned[1].value = 5;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.find(1), nullptr);
    for (const auto &[key, rec] : held) {
        ASSERT_EQ(assigned.find(key), rec) << "key " << key;
    }

    // The moved-from tables stay usable.
    table[7].value = 70;
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.at(7).value, 70u);
}

TEST(LineTable, ErasedRecordsComeBackValueInitialized)
{
    LineTable<Payload> table;
    Payload &a = table[10];
    a.value = 99;
    a.history.assign(100, 1);
    ASSERT_TRUE(table.erase(10));
    EXPECT_FALSE(table.erase(10));
    // The freed record is reused for the next insert, reset.
    auto [rec, fresh] = table.tryEmplace(11);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(rec, &a);
    EXPECT_EQ(*rec, Payload{});
    EXPECT_EQ(table.find(10), nullptr);

    table.clear();
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(11), nullptr);
    EXPECT_EQ(table[11], Payload{});
}

TEST(LineTable, CellFaultMapRetireThenRetouchStartsFresh)
{
    // A line whose cells die, retired as a decommission would, then
    // written again: its record is reset, so it starts on the planes
    // with no stuck cells, and the stuck population drops with it.
    FaultConfig cfg;
    cfg.meanEndurance = 3.0;
    cfg.enduranceSigma = 0.0;
    CellFaultMap map(cfg);
    CacheLine flips;
    CacheLine image;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        flips.limb(i) = ~uint64_t{0};
        image.limb(i) = 0x0123456789abcdefull * (i + 1);
    }
    for (unsigned w = 0; w < 3; ++w) {
        map.recordWrite(5, flips, image);
        map.recordWrite(6, flips, image);
    }
    ASSERT_EQ(map.stuckMask(5).popcount(), CacheLine::kBits);
    ASSERT_EQ(map.stuckCells(), 2u * CacheLine::kBits);
    ASSERT_EQ(map.trackedLines(), 2u);

    map.retire(5);
    EXPECT_EQ(map.stuckCells(), uint64_t{CacheLine::kBits});
    EXPECT_EQ(map.trackedLines(), 1u);
    EXPECT_EQ(map.stuckMask(5), CacheLine{});

    // Two more writes stay below the budget of 3 flips per cell.
    for (unsigned w = 0; w < 2; ++w) {
        CellFaultMap::WriteEffect e = map.recordWrite(5, flips, image);
        EXPECT_EQ(e.newlyStuck, CacheLine{}) << "write " << w;
        EXPECT_EQ(e.conflicts, CacheLine{}) << "write " << w;
    }
    EXPECT_EQ(map.recordWrite(5, flips, image).newlyStuck.popcount(),
              CacheLine::kBits);
    EXPECT_EQ(map.trackedLines(), 2u);
    EXPECT_EQ(map.stuckMask(6).popcount(), CacheLine::kBits);
    EXPECT_EQ(map.stuckCells(), 2u * CacheLine::kBits);
}

} // namespace
} // namespace deuce
