#ifndef MORPHEUS_MORPHEUS_HIT_MISS_PREDICTOR_HPP_
#define MORPHEUS_MORPHEUS_HIT_MISS_PREDICTOR_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/bloom_filter.hpp"
#include "sim/types.hpp"

namespace morpheus {

/** Prediction strategy evaluated in Figure 13. */
enum class PredictionMode : std::uint8_t
{
    kNone,    ///< Forward every extended-space request to the cache-mode SM.
    kBloom,   ///< The paper's dual-Bloom-filter design (§4.1.2).
    kPerfect, ///< Oracle: query the extended set's actual contents.
};

/** Human-readable mode name. */
const char *prediction_mode_name(PredictionMode mode);

/**
 * The paper's dual-Bloom-filter hit/miss predictor for one extended LLC
 * set (§4.1.2, Figure 6).
 *
 * Invariants maintained on every access:
 *  (1) BF1 contains at least all blocks currently in the set — queries
 *      against BF1 therefore never produce false negatives;
 *  (2) BF2 contains the n most-recently-used blocks.
 * When n reaches the set's associativity, BF2 provably covers the whole
 * (LRU-managed) set, so BF1 is replaced by BF2 and BF2 is cleared,
 * shedding the stale evicted blocks that cause false positives.
 *
 * Both filters share one probe sequence (they are always probed and
 * inserted with the same key together), so they live fused in a single
 * word array — BF1 in the first half, BF2 in the second. At the paper's
 * nominal 256-bit sizing the pair packs into one 64-byte cache line, and
 * an access mixes the key once instead of once per filter operation.
 * Bit positions and predictions are identical to the former
 * two-BloomFilter layout.
 */
class DualBloomPredictor
{
  public:
    /** @param associativity blocks the set can hold (the swap threshold);
     *  the filters are sized to keep ~@p bits_per_entry bits per block
     *  with @p probes hash probes (defaults: the paper's 8 bits / 4
     *  probes; the bloom_sensitivity scenario sweeps both). */
    explicit DualBloomPredictor(std::uint32_t associativity = 32,
                                std::uint32_t bits_per_entry = BloomFilter::kDefaultBitsPerEntry,
                                std::uint32_t probes = BloomFilter::kProbes)
        : associativity_(associativity)
    {
        // Same geometry as the two separate filters this fuses.
        const BloomFilter shape = BloomFilter::sized_for(associativity, bits_per_entry, probes);
        bits_ = shape.bits();
        probes_ = shape.probes();
        fused_.assign(2 * ((bits_ + 63) / 64), 0);
    }

    /**
     * Queries BF1 (Figure 6a, step 1).
     * @return true = predicted hit; false = predicted miss (never a false
     *         negative w.r.t. blocks inserted through on_access).
     */
    bool
    predict_hit(LineAddr line) const
    {
        const std::uint64_t h = mix64(line);
        const std::uint32_t h1 = static_cast<std::uint32_t>(h);
        const std::uint32_t h2 = static_cast<std::uint32_t>(h >> 32) | 1u;
        for (std::uint32_t i = 0; i < probes_; ++i) {
            const std::uint32_t b = (h1 + i * h2) % bits_;
            if (!(fused_[b >> 6] & (std::uint64_t{1} << (b & 63))))
                return false;
        }
        return true;
    }

    /**
     * Records an access that leaves @p line resident in the set (an
     * insertion or a reuse; Figure 6b): inserts into both filters,
     * advances n, and swaps/clears when n reaches the associativity.
     */
    void on_access(LineAddr line) { (void)access_and_predict(line); }

    /**
     * Fused fast path: predict_hit() + on_access() in one pass — the key
     * is mixed once and each probe position is visited once for both
     * filters. @return the prediction BF1 gave BEFORE @p line was
     * inserted (exactly predict_hit() followed by on_access()).
     */
    bool access_and_predict(LineAddr line);

    /**
     * Updates the swap threshold (compression grows the effective
     * associativity of a set; the predictor must not swap early or BF2
     * might miss resident blocks).
     */
    void set_associativity(std::uint32_t associativity) { associativity_ = associativity; }

    std::uint32_t associativity() const { return associativity_; }
    std::uint32_t mru_count() const { return n_; }
    std::uint64_t swaps() const { return swaps_; }

    /** Storage per set: two filters (paper §4.1.2: 2 x 32 B for 32 ways). */
    std::uint32_t storage_bytes() const { return 2 * (bits_ / 8); }

    /** Paper-nominal storage per set (32-way sizing). */
    static constexpr std::uint32_t
    nominal_storage_bytes()
    {
        return 2 * BloomFilter::kDefaultBits / 8;
    }

  private:
    std::uint32_t bits_;
    std::uint32_t probes_;
    /** BF1 words then BF2 words (each (bits_+63)/64 long). */
    std::vector<std::uint64_t> fused_;
    std::uint32_t n_ = 0;
    std::uint32_t associativity_;
    std::uint64_t swaps_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_MORPHEUS_HIT_MISS_PREDICTOR_HPP_
