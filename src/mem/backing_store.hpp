#ifndef MORPHEUS_MEM_BACKING_STORE_HPP_
#define MORPHEUS_MEM_BACKING_STORE_HPP_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

/**
 * The functional contents of simulated GPU global memory, at cache-line
 * granularity.
 *
 * Instead of bytes, every line holds a monotonically increasing *version*
 * (0 = never written). Caches propagate versions on fills and writebacks,
 * so any staleness bug anywhere in the hierarchy — including a false
 * negative in the Morpheus hit/miss predictor that would bypass a dirty
 * extended-LLC block — shows up as a version regression in tests.
 *
 * Every LLC fill reads this table and every writeback writes it, so it
 * is one flat open-addressed array of 16-byte {line, version} slots
 * (power-of-two size, mix64 hash, linear probing, doubled before it is
 * more than 3/4 full). Lines are never erased. A slot whose line is
 * kVacantLine is empty; that one line's version is kept beside the
 * array, so every 64-bit line address is storable.
 */
class BackingStore
{
  public:
    /** The line value that marks an empty slot. */
    static constexpr LineAddr kVacantLine = ~LineAddr{0};

    /** Current version of @p line (0 if never written). */
    std::uint64_t
    read(LineAddr line) const
    {
        if (line == kVacantLine)
            return vacant_line_version_;
        // An empty slot holds version 0.
        return slots_.empty() ? 0 : slots_[probe(line)].version;
    }

    /** Stores @p version for @p line (used by writebacks). */
    void
    write(LineAddr line, std::uint64_t version)
    {
        ++writes_;
        if (line == kVacantLine) {
            vacant_line_version_ = version;
            return;
        }
        if (slots_.empty())
            slots_.assign(kInitialSlots, Slot{});
        std::size_t s = probe(line);
        if (slots_[s].line == kVacantLine) {
            if (4 * (count_ + 1) > 3 * slots_.size()) {
                grow();
                s = probe(line);
            }
            slots_[s].line = line;
            ++count_;
        }
        slots_[s].version = version;
    }

    /** Hint: prefetches @p line's home slot. Changes no state; a no-op
     *  while the store holds no storage. */
    void
    prefetch(LineAddr line) const noexcept
    {
        if (!slots_.empty())
            __builtin_prefetch(&slots_[home(line)]);
    }

    /** Allocates and returns the next globally unique version number. */
    std::uint64_t next_version() { return ++version_clock_; }

    std::uint64_t writes() const { return writes_; }

  private:
    static constexpr std::size_t kInitialSlots = 1024;

    struct Slot
    {
        LineAddr line = kVacantLine;
        std::uint64_t version = 0;
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
        while (slots_[s].line != line && slots_[s].line != kVacantLine)
            s = (s + 1) & mask;
        return s;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(2 * old.size(), Slot{});
        for (const Slot &slot : old) {
            if (slot.line != kVacantLine)
                slots_[probe(slot.line)] = slot;
        }
    }

    std::vector<Slot> slots_;
    std::size_t count_ = 0;
    std::uint64_t vacant_line_version_ = 0;
    std::uint64_t version_clock_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_MEM_BACKING_STORE_HPP_
