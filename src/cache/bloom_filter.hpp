#ifndef MORPHEUS_CACHE_BLOOM_FILTER_HPP_
#define MORPHEUS_CACHE_BLOOM_FILTER_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace morpheus {

/**
 * A standard (non-counting) Bloom filter over 64-bit keys with k hash
 * probes derived from one SplitMix64 mix (double hashing).
 *
 * The paper's hit/miss predictor budget is 32 bytes (256 bits) per filter
 * for 32-way sets; sized_for() scales that by associativity so that
 * larger software-managed sets (e.g. compressed extended-LLC sets holding
 * up to 4x more blocks) keep the same ~2% false-positive rate.
 *
 * Guarantees: no false negatives; false positives possible and tracked by
 * the caller. Element removal is unsupported (the paper explicitly avoids
 * counting Bloom filters); clear() wipes the whole filter.
 */
class BloomFilter
{
  public:
    /** Default filter size in bits (32 bytes, per paper §4.1.2). */
    static constexpr std::uint32_t kDefaultBits = 256;

    /** Default number of hash probes per key. */
    static constexpr std::uint32_t kProbes = 4;

    /** Default bits budgeted per tracked element (256 bits / 32 ways). */
    static constexpr std::uint32_t kDefaultBitsPerEntry = 8;

    explicit BloomFilter(std::uint32_t bits = kDefaultBits, std::uint32_t probes = kProbes)
        : bits_(bits < 64 ? 64 : bits), probes_(probes < 1 ? 1 : probes),
          words_((bits_ + 63) / 64, 0)
    {
    }

    /**
     * A filter sized to keep ~@p bits_per_entry bits per tracked element
     * (default: the paper's 256 bits / 32 ways ratio), rounded up to a
     * power of two. @p probes sets the hash count (the predictor
     * sensitivity sweep varies both; everything else uses the defaults).
     */
    static BloomFilter
    sized_for(std::uint32_t max_elements, std::uint32_t bits_per_entry = kDefaultBitsPerEntry,
              std::uint32_t probes = kProbes)
    {
        // Keep the paper-nominal 256-bit floor so small sets do not get
        // degenerate filters at low bits-per-entry settings.
        std::uint32_t bits = kDefaultBits * std::max(1u, bits_per_entry) / kDefaultBitsPerEntry;
        if (bits < 64)
            bits = 64;
        while (bits < bits_per_entry * max_elements)
            bits *= 2;
        return BloomFilter(bits, probes);
    }

    /** Inserts @p key. */
    void insert(std::uint64_t key);

    /** @return true if @p key may be present (false => definitely absent). */
    bool maybe_contains(std::uint64_t key) const;

    /** Removes all elements. */
    void
    clear()
    {
        for (auto &w : words_)
            w = 0;
    }

    /** Number of set bits (occupancy diagnostic). */
    std::uint32_t popcount() const;

    std::uint32_t bits() const { return bits_; }
    std::uint32_t probes() const { return probes_; }

    /** Storage cost in bytes, as accounted in the paper's overhead analysis. */
    std::uint32_t storage_bytes() const { return bits_ / 8; }

  private:
    /** Computes the bit index of probe @p i for @p key (double hashing). */
    std::uint32_t
    probe_bit(std::uint64_t key, std::uint32_t i) const
    {
        const std::uint64_t h = mix64(key);
        const std::uint32_t h1 = static_cast<std::uint32_t>(h);
        const std::uint32_t h2 = static_cast<std::uint32_t>(h >> 32) | 1u;
        return (h1 + i * h2) % bits_;
    }

    std::uint32_t bits_;
    std::uint32_t probes_;
    std::vector<std::uint64_t> words_;
};

} // namespace morpheus

#endif // MORPHEUS_CACHE_BLOOM_FILTER_HPP_
