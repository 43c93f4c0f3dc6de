/**
 * @file
 * LineTable: a flat per-line record table keyed by line address.
 *
 * The simulator keeps per-line state in several places (the stored
 * line state, the fault model's wear and spare remaps, the persist
 * domain's counter shadow), and a write looks up several of them.
 * LineTable serves all of them with one open-addressing index over a
 * chunked record arena:
 *
 *  - the index is a power-of-two array of 8-byte slots (a 32-bit hash
 *    tag and a record number), linear probing, at most 3/4 full, with
 *    backward-shift erase (no tombstones). The hash is a Fibonacci
 *    multiply of the address; the tag is its top 32 bits, so the home
 *    slot is a shift of the tag and rehashing never reads a record;
 *  - records (address plus value) live in fixed-size chunks and never
 *    move: growth rehashes only the index, and an erased record is
 *    reset and reused through a free list.
 *
 * A lookup is one index probe plus the record, instead of
 * std::unordered_map's bucket → node → node chain and one heap node
 * per line. A reference to a record stays valid until that record is
 * erased or the table cleared — across inserts, index growth and
 * move-construction — which is the guarantee the write pipeline
 * relies on when it holds line states across installs.
 *
 * forEach() walks the index in slot order: a pure function of the
 * operation sequence, so deterministic, but not address order.
 * Callers that emit outputs sort.
 */

#ifndef DEUCE_COMMON_LINE_TABLE_HH
#define DEUCE_COMMON_LINE_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace deuce
{

/** Flat address → record table with stable record references. */
template <typename T>
class LineTable
{
  public:
    LineTable() = default;

    /** Moves the index and the chunk pointers: records keep their
     *  addresses, and @p other is left empty. */
    LineTable(LineTable &&other) noexcept
        : index_(std::move(other.index_)),
          chunks_(std::move(other.chunks_)),
          free_(std::move(other.free_)),
          records_(std::exchange(other.records_, 0)),
          size_(std::exchange(other.size_, 0)),
          shift_(std::exchange(other.shift_, 64))
    {}

    LineTable &
    operator=(LineTable &&other) noexcept
    {
        if (this != &other) {
            index_ = std::move(other.index_);
            chunks_ = std::move(other.chunks_);
            free_ = std::move(other.free_);
            records_ = std::exchange(other.records_, 0);
            size_ = std::exchange(other.size_, 0);
            shift_ = std::exchange(other.shift_, 64);
        }
        return *this;
    }

    LineTable(const LineTable &) = delete;
    LineTable &operator=(const LineTable &) = delete;

    /** Records currently held. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The record of @p key, or null if absent. */
    T *
    find(uint64_t key)
    {
        const Slot *slot = slotOf(key);
        return slot ? &entry(slot->rec).value : nullptr;
    }

    const T *
    find(uint64_t key) const
    {
        const Slot *slot = slotOf(key);
        return slot ? &entry(slot->rec).value : nullptr;
    }

    bool contains(uint64_t key) const { return slotOf(key) != nullptr; }

    /** The record of @p key, which must be present. */
    T &
    at(uint64_t key)
    {
        T *rec = find(key);
        deuce_assert(rec);
        return *rec;
    }

    const T &
    at(uint64_t key) const
    {
        const T *rec = find(key);
        deuce_assert(rec);
        return *rec;
    }

    /**
     * The record of @p key, value-initialized first if absent.
     * @return the record and whether it was inserted
     */
    std::pair<T *, bool>
    tryEmplace(uint64_t key)
    {
        if ((size_ + 1) * 4 > index_.size() * 3) {
            grow();
        }
        const uint32_t tag = tagOf(key);
        const std::size_t mask = index_.size() - 1;
        std::size_t i = home(tag);
        for (; index_[i].rec != 0; i = (i + 1) & mask) {
            if (index_[i].tag == tag) {
                Entry &e = entry(index_[i].rec);
                if (e.key == key) {
                    return {&e.value, false};
                }
            }
        }
        const uint32_t rec = allocate();
        Entry &e = entry(rec);
        e.key = key;
        index_[i] = Slot{tag, rec};
        ++size_;
        return {&e.value, true};
    }

    /** The record of @p key, value-initialized first if absent. */
    T &operator[](uint64_t key) { return *tryEmplace(key).first; }

    /**
     * Remove @p key; its record is reset to T{} (releasing whatever
     * it owns) and reused by a later insert.
     * @return whether the key was present
     */
    bool
    erase(uint64_t key)
    {
        const Slot *found = slotOf(key);
        if (!found) {
            return false;
        }
        entry(found->rec).value = T{};
        free_.push_back(found->rec);
        --size_;

        // Backward-shift deletion: pull each later member of the
        // probe run into the hole unless that would move it before
        // its home slot.
        const std::size_t mask = index_.size() - 1;
        std::size_t hole = static_cast<std::size_t>(found - index_.data());
        for (std::size_t j = (hole + 1) & mask; index_[j].rec != 0;
             j = (j + 1) & mask) {
            const std::size_t h = home(index_[j].tag);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                index_[hole] = index_[j];
                hole = j;
            }
        }
        index_[hole] = Slot{};
        return true;
    }

    /** Drop every record and release the table's memory. */
    void
    clear()
    {
        index_ = std::vector<Slot>();
        chunks_ = std::vector<std::unique_ptr<Entry[]>>();
        free_ = std::vector<uint32_t>();
        records_ = 0;
        size_ = 0;
        shift_ = 64;
    }

    /** Call @p fn(key, record) for every record, in index order. */
    template <typename F>
    void
    forEach(F &&fn)
    {
        for (const Slot &slot : index_) {
            if (slot.rec != 0) {
                Entry &e = entry(slot.rec);
                fn(e.key, e.value);
            }
        }
    }

    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Slot &slot : index_) {
            if (slot.rec != 0) {
                const Entry &e = entry(slot.rec);
                fn(e.key, e.value);
            }
        }
    }

  private:
    /** One record: its address and value. */
    struct Entry
    {
        uint64_t key = 0;
        T value{};
    };

    /** One index entry; rec is the record number + 1 (0 = empty). */
    struct Slot
    {
        uint32_t tag = 0;
        uint32_t rec = 0;
    };

    /** Records per chunk: small, since a chunk is value-initialized
     *  (touched) whole when its first record is handed out. */
    static constexpr unsigned kChunkBits = 6;
    static constexpr uint32_t kChunkRecords = 1u << kChunkBits;
    static constexpr std::size_t kMinSlots = 16;

    /**
     * Fibonacci hashing: the top bits of the product mix every
     * address bit, so strided line addresses spread evenly.
     */
    static uint32_t
    tagOf(uint64_t key)
    {
        return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ull) >> 32);
    }

    /** Home slot of a tag: its top log2(index size) bits. */
    std::size_t
    home(uint32_t tag) const
    {
        return static_cast<std::size_t>(tag >> (shift_ - 32));
    }

    const Slot *
    slotOf(uint64_t key) const
    {
        if (size_ == 0) {
            return nullptr;
        }
        const uint32_t tag = tagOf(key);
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = home(tag); index_[i].rec != 0;
             i = (i + 1) & mask) {
            if (index_[i].tag == tag && entry(index_[i].rec).key == key) {
                return &index_[i];
            }
        }
        return nullptr;
    }

    /** Entry of record number @p rec (1-based, as slots hold it). */
    Entry &
    entry(uint32_t rec) const
    {
        const uint32_t i = rec - 1;
        return chunks_[i >> kChunkBits][i & (kChunkRecords - 1)];
    }

    /** A value-initialized record (1-based number). */
    uint32_t
    allocate()
    {
        if (!free_.empty()) {
            const uint32_t rec = free_.back();
            free_.pop_back();
            return rec;
        }
        if ((records_ & (kChunkRecords - 1)) == 0) {
            chunks_.push_back(std::make_unique<Entry[]>(kChunkRecords));
        }
        return ++records_;
    }

    /** Double the index (records stay where they are). */
    void
    grow()
    {
        std::vector<Slot> old = std::move(index_);
        const std::size_t slots =
            old.empty() ? kMinSlots : old.size() * 2;
        // The home slot is a shift of the 32-bit tag.
        deuce_assert(slots <= (std::size_t{1} << 32));
        index_.assign(slots, Slot{});
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(slots));
        const std::size_t mask = slots - 1;
        for (const Slot &slot : old) {
            if (slot.rec == 0) {
                continue;
            }
            std::size_t i = home(slot.tag);
            while (index_[i].rec != 0) {
                i = (i + 1) & mask;
            }
            index_[i] = slot;
        }
    }

    std::vector<Slot> index_;
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    std::vector<uint32_t> free_;
    uint32_t records_ = 0; ///< arena high-water mark
    std::size_t size_ = 0;
    unsigned shift_ = 64;  ///< 64 - log2(index size)
};

} // namespace deuce

#endif // DEUCE_COMMON_LINE_TABLE_HH
