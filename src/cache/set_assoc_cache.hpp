#ifndef MORPHEUS_CACHE_SET_ASSOC_CACHE_HPP_
#define MORPHEUS_CACHE_SET_ASSOC_CACHE_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

/**
 * A functional set-associative cache tag/data model.
 *
 * Holds tags, valid/dirty bits, LRU state, and a per-line data *version*
 * instead of actual bytes: versions are the simulator's
 * functional-correctness currency (the DRAM backing store is the root of
 * truth, and property tests assert read-your-writes through the full
 * hierarchy). Timing is the owner's job: this class only answers hit/miss
 * and performs state transitions.
 *
 * Used for the per-SM L1 caches and the conventional LLC banks, all LRU
 * with 1 to 16 ways. Storage is set-major, so a lookup touches one block
 * of 2 + ways words per set: the packed 4-bit LRU rank word, the
 * valid/dirty bitmask word, then the tags. Versions live in their own
 * array, read only on a hit, a fill or an eviction.
 */
class SetAssocCache
{
  public:
    /** Outcome of a lookup. */
    struct LookupResult
    {
        bool hit = false;
        std::uint64_t version = 0;  ///< data version, valid when hit
    };

    /** Description of an eviction caused by a fill. */
    struct Eviction
    {
        LineAddr line = 0;
        bool dirty = false;
        std::uint64_t version = 0;
    };

    /**
     * @param sets number of sets (power of two not required).
     * @param ways associativity, 1 to 16 (else std::invalid_argument).
     * @param hashed_index when true, the set index is computed from a
     *        hashed line address (LLC-style interleaving); when false the
     *        low line-address bits are used (L1-style).
     */
    SetAssocCache(std::uint32_t sets, std::uint32_t ways, bool hashed_index = false);

    /** Capacity in bytes. */
    std::uint64_t capacity_bytes() const
    {
        return static_cast<std::uint64_t>(sets_) * ways_ * kLineBytes;
    }

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

    /** Set index for @p line (exposed for bank interleaving tests). */
    std::uint32_t set_index(LineAddr line) const;

    /** Non-destructive presence check (no replacement-state update). */
    bool probe(LineAddr line) const;

    /**
     * Hint: prefetches the host cache lines a lookup of @p line touches
     * (the first and last word of its set's block, and the set's
     * versions). Changes no state.
     */
    void prefetch(LineAddr line) const noexcept;

    /**
     * Read lookup. On hit, updates replacement state and returns the
     * version. On miss, no state changes (fetch-on-fill).
     */
    LookupResult read(LineAddr line);

    /**
     * Write lookup (write-back caches). On hit, marks the line dirty with
     * @p version. On miss, nothing changes (the owner decides
     * write-allocate policy and calls fill()).
     */
    LookupResult write(LineAddr line, std::uint64_t version);

    /**
     * Inserts @p line with @p version, evicting a victim if the set is
     * full. @p dirty marks the inserted line dirty (write-allocate).
     * @return the eviction, if a valid victim was displaced.
     */
    std::optional<Eviction> fill(LineAddr line, std::uint64_t version, bool dirty);

    /** Drops @p line if present; returns its eviction record. */
    std::optional<Eviction> invalidate(LineAddr line);

    /** Writes every dirty line back via @p sink and clears the cache. */
    template <typename Sink>
    void
    flush(Sink &&sink)
    {
        for (std::uint32_t set = 0; set < sets_; ++set) {
            std::uint64_t *block = block_of(set);
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if ((block[kBits] >> w) & (block[kBits] >> (kDirtyShift + w)) & 1)
                    sink(block[kTags + w], versions_[base(set) + w]);
            }
            block[kBits] = 0;
        }
    }

    /** @name Statistics (monotonic counters). */
    ///@{
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t writebacks() const { return writebacks_; }
    ///@}

  private:
    /** Word offsets within a set's block, and the dirty bits' shift
     *  within its valid/dirty word (valid bits are the low ways bits). */
    static constexpr std::size_t kRanks = 0;
    static constexpr std::size_t kBits = 1;
    static constexpr std::size_t kTags = 2;
    static constexpr std::uint32_t kDirtyShift = 32;

    /** Index of (@p set, way 0) in versions_. */
    std::size_t base(std::uint32_t set) const { return static_cast<std::size_t>(set) * ways_; }

    std::uint64_t *block_of(std::uint32_t set) { return &blocks_[set * (kTags + ways_)]; }
    const std::uint64_t *block_of(std::uint32_t set) const
    {
        return &blocks_[set * (kTags + ways_)];
    }

    /** Finds the way holding @p line in @p block, or -1. */
    int find_way(const std::uint64_t *block, LineAddr line) const;

    /** Makes @p way the MRU way of @p block. */
    void touch(std::uint64_t *block, std::uint32_t way);

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool hashed_index_;
    // One block of kTags + ways words per set (an invalidated line keeps
    // its stale tag, so a match also checks the valid bit), and versions
    // indexed set * ways + way.
    std::vector<std::uint64_t> blocks_;
    std::vector<std::uint64_t> versions_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_CACHE_SET_ASSOC_CACHE_HPP_
