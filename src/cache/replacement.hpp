#ifndef MORPHEUS_CACHE_REPLACEMENT_HPP_
#define MORPHEUS_CACHE_REPLACEMENT_HPP_

#include <cstdint>
#include <vector>

namespace morpheus {

/**
 * Replacement policies available to SetAssocCache and the extended LLC
 * kernel. The paper's extended LLC uses LRU (the predictor's BF2-swap
 * correctness argument depends on it); FIFO and Random exist for ablations
 * and tests.
 */
enum class ReplacementKind : std::uint8_t
{
    kLru,
    kFifo,
    kRandom,
};

/** Human-readable policy name. */
const char *replacement_name(ReplacementKind kind);

/**
 * Tracks replacement state for one cache set of up to @p ways lines.
 *
 * Two representations share one interface:
 *
 *  - **Packed ranks** (LRU, <= 16 ways — every cache in the simulated
 *    machine): one 4-bit recency rank per way, all packed into a single
 *    64-bit word. Rank 0 is the LRU victim, rank ways-1 the MRU way; a
 *    touch promotes one way to MRU and SWAR-decrements every rank above
 *    its old one, so the whole set updates without touching memory
 *    beyond the word. Ranks start equal to the way index, which
 *    reproduces the stamp representation's tie-break (never-touched
 *    ways are victimized in way order).
 *
 *  - **Stamps** (FIFO, Random, and wide LRU sets): a per-way timestamp —
 *    last-touch stamp for LRU, insertion stamp for FIFO, a hashed stamp
 *    for Random. The victim is the way with the smallest stamp, ties
 *    broken by the lowest way.
 *
 * The two are observably identical for LRU: the rank order is exactly
 * the stamp order (untouched ways by index, then touched ways by
 * recency), so victim sequences match access for access.
 */
class ReplacementState
{
  public:
    ReplacementState(std::uint32_t ways, ReplacementKind kind);

    /** Notes that @p way was touched by a hit or a fill. */
    void touch(std::uint32_t way);

    /** Notes that @p way was (re)inserted. */
    void insert(std::uint32_t way);

    /** Picks the victim way among [0, ways). */
    std::uint32_t victim() const;

    ReplacementKind kind() const { return kind_; }

    /** True when this set uses the packed-rank representation. */
    bool packed() const { return packed_; }

  private:
    ReplacementKind kind_;
    bool packed_;
    std::uint32_t ways_;
    /** Packed representation: 4-bit rank of each way (packed_ only). */
    std::uint64_t ranks_ = 0;
    /** Stamp representation (non-packed only). */
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_;
};

} // namespace morpheus

#endif // MORPHEUS_CACHE_REPLACEMENT_HPP_
