#ifndef MORPHEUS_CACHE_MSHR_HPP_
#define MORPHEUS_CACHE_MSHR_HPP_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

/**
 * A table of Miss Status Holding Registers.
 *
 * Tracks outstanding line fetches so that concurrent misses to the same
 * line are merged onto one memory request. Each entry carries a FIFO of
 * @p Waiter records (the SM's 32-bit step token at the L1, an
 * `{issued, ReqId}` pair at the LLC) handed back, in arrival order, when
 * the line returns.
 *
 * The miss path runs this table on every L1 and LLC miss, so it neither
 * chases pointers nor allocates per miss:
 *
 *  - the index is an open-addressed slot array (power-of-two size,
 *    mix64 hash, linear probing, backward-shift deletion, at most half
 *    full), each slot holding the line and the head/tail of its waiter
 *    list;
 *  - waiters live in one node pool with a free list; each entry's
 *    waiters form an intrusive singly linked FIFO through the pool.
 *
 * When the last entry drains, the table returns both arrays to the
 * allocator, so a burst's high-water mark is not held for the rest of
 * the run.
 */
template <class Waiter>
class MshrTable
{
  public:
    /**
     * @param max_entries maximum distinct outstanding lines; 0 means
     *        unbounded (used at the LLC where the paper does not model a
     *        specific limit).
     */
    explicit MshrTable(std::size_t max_entries = 0) : max_entries_(max_entries) {}

    /** True when a new (primary) miss cannot currently be accepted. */
    bool
    full() const
    {
        return max_entries_ != 0 && count_ >= max_entries_;
    }

    /** True when @p line already has an outstanding fetch. */
    bool
    has(LineAddr line) const
    {
        return !slots_.empty() && slots_[probe(line)].head != kNone;
    }

    /**
     * Registers a miss on @p line.
     * @return true when this is the primary miss (caller must issue the
     *         fetch); false when merged onto an existing entry.
     * @pre !full() unless has(line).
     */
    bool
    allocate_or_merge(LineAddr line, Waiter waiter)
    {
        if (slots_.empty())
            slots_.assign(kInitialSlots, Slot{});
        const std::uint32_t node = new_node(std::move(waiter));
        std::size_t s = probe(line);
        if (slots_[s].head != kNone) {
            nodes_[slots_[s].tail].next = node;
            slots_[s].tail = node;
            ++merged_;
            return false;
        }
        if (2 * (count_ + 1) > slots_.size()) {
            grow();
            s = probe(line);
        }
        slots_[s] = Slot{line, node, node};
        ++count_;
        ++allocated_;
        peak_ = std::max(peak_, count_);
        return true;
    }

    /**
     * Completes the fetch of @p line: removes the entry, then hands each
     * of its waiters to @p visit in arrival order. Each waiter is moved
     * out of the pool before @p visit runs, so @p visit may allocate,
     * merge or release on this same table (a waiter for @p line then
     * opens a fresh entry). No-op when @p line has no entry.
     */
    template <class Visit>
    void
    release(LineAddr line, Visit &&visit)
    {
        if (slots_.empty())
            return;
        const std::size_t s = probe(line);
        std::uint32_t node = slots_[s].head;
        if (node == kNone)
            return;
        erase_slot(s);
        --count_;
        ++releasing_;
        while (node != kNone) {
            Waiter waiter = std::move(nodes_[node].waiter);
            const std::uint32_t next = nodes_[node].next;
            nodes_[node].next = free_;
            free_ = node;
            visit(waiter);
            node = next;
        }
        --releasing_;
        if (count_ == 0 && releasing_ == 0)
            drop_storage();
    }

    /** Hint: prefetches @p line's home slot. Changes no state; a no-op
     *  while the table holds no storage. */
    void
    prefetch(LineAddr line) const noexcept
    {
        if (!slots_.empty())
            __builtin_prefetch(&slots_[home(line)]);
    }

    std::size_t outstanding() const { return count_; }

    /** @name Statistics */
    ///@{
    std::uint64_t allocated() const { return allocated_; }
    std::uint64_t merged() const { return merged_; }
    std::size_t peak_occupancy() const { return peak_; }
    ///@}

  private:
    static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    static constexpr std::size_t kInitialSlots = 16;

    /** One index slot; empty when head == kNone. */
    struct Slot
    {
        LineAddr line = 0;
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    struct Node
    {
        Waiter waiter;
        std::uint32_t next;
    };

    /** The first slot of @p line's probe chain. @pre the slot array is
     *  allocated. */
    std::size_t home(LineAddr line) const { return mix64(line) & (slots_.size() - 1); }

    /** The slot holding @p line, or the empty slot ending its probe
     *  chain. @pre the slot array is allocated (it is never full). */
    std::size_t
    probe(LineAddr line) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t s = home(line);
        while (slots_[s].head != kNone && slots_[s].line != line)
            s = (s + 1) & mask;
        return s;
    }

    /** Empties slot @p s, shifting later members of its probe chain
     *  back so every chain stays gap-free (no tombstones). */
    void
    erase_slot(std::size_t s)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (s + 1) & mask; slots_[j].head != kNone; j = (j + 1) & mask) {
            // Move j into the hole unless its home lies cyclically in (s, j].
            const std::size_t h = home(slots_[j].line);
            if (((j - h) & mask) >= ((j - s) & mask)) {
                slots_[s] = slots_[j];
                s = j;
            }
        }
        slots_[s] = Slot{};
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(2 * old.size(), Slot{});
        for (const Slot &slot : old) {
            if (slot.head != kNone)
                slots_[probe(slot.line)] = slot;
        }
    }

    std::uint32_t
    new_node(Waiter &&waiter)
    {
        if (free_ == kNone) {
            nodes_.push_back(Node{std::move(waiter), kNone});
            return static_cast<std::uint32_t>(nodes_.size() - 1);
        }
        const std::uint32_t node = free_;
        free_ = nodes_[node].next;
        nodes_[node] = Node{std::move(waiter), kNone};
        return node;
    }

    void
    drop_storage()
    {
        slots_ = std::vector<Slot>();
        nodes_ = std::vector<Node>();
        free_ = kNone;
    }

    std::size_t max_entries_;
    /** Empty until the first miss and again after each drain. */
    std::vector<Slot> slots_;
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNone;
    std::size_t count_ = 0;
    /** Depth of release() calls in progress; storage is only dropped
     *  when no release still walks a detached waiter list. */
    std::uint32_t releasing_ = 0;
    std::uint64_t allocated_ = 0;
    std::uint64_t merged_ = 0;
    std::size_t peak_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_CACHE_MSHR_HPP_
