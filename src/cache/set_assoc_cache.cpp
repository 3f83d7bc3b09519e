#include "cache/set_assoc_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace morpheus {
namespace {

constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
constexpr std::uint64_t kNibbleHigh = 0x8888888888888888ULL;

/**
 * Per-nibble unsigned comparison: the kNibbleHigh bit of each nibble in
 * the result is set where the corresponding nibble of @p x is >= @p k
 * (k in [1, 16]). Splits each nibble into its high bit and low three
 * bits so the SWAR subtraction below cannot borrow across lanes.
 */
inline std::uint64_t
nibbles_ge(std::uint64_t x, std::uint32_t k)
{
    const std::uint64_t lo = x & ~kNibbleHigh;
    const std::uint64_t hi = x & kNibbleHigh;
    if (k >= 16)
        return 0;
    if (k <= 7) {
        // x >= k  <=>  high bit set, or low three bits >= k.
        const std::uint64_t lo_ge = ((lo | kNibbleHigh) - k * kNibbleOnes) & kNibbleHigh;
        return hi | lo_ge;
    }
    // x >= k (k in [8,15])  <=>  high bit set and low three bits >= k-8.
    const std::uint64_t lo_ge = ((lo | kNibbleHigh) - (k - 8) * kNibbleOnes) & kNibbleHigh;
    return hi & lo_ge;
}

/**
 * The LRU way of a rank word: the lowest nibble holding rank 0. Exactly
 * one way has rank 0 (the ranks are a permutation), and the unused
 * nibbles above the last way are 0 too, so the lowest zero nibble is it.
 */
inline std::uint32_t
lru_way(std::uint64_t ranks)
{
    const std::uint64_t nonzero = (ranks | ranks >> 1 | ranks >> 2 | ranks >> 3) & kNibbleOnes;
    return static_cast<std::uint32_t>(std::countr_zero(~nonzero & kNibbleOnes)) / 4;
}

} // namespace

// LRU is a 4-bit recency rank per way, packed into one word per set. Rank
// 0 is the LRU victim, rank ways-1 the MRU way. Ranks start equal to the
// way index, so never-touched ways are victimized in way order, the same
// order as last-touch stamps with ties broken by the lowest way.
SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways, bool hashed_index)
    : sets_(sets), ways_(ways), hashed_index_(hashed_index),
      versions_(static_cast<std::size_t>(sets) * ways)
{
    if (ways < 1 || ways > 16)
        throw std::invalid_argument("SetAssocCache: ways must be in [1, 16]");
    std::uint64_t ranks = 0;
    for (std::uint32_t w = 0; w < ways; ++w)
        ranks |= static_cast<std::uint64_t>(w) << (4 * w);
    blocks_.assign(static_cast<std::size_t>(sets) * (kTags + ways), 0);
    for (std::uint32_t set = 0; set < sets; ++set)
        block_of(set)[kRanks] = ranks;
}

std::uint32_t
SetAssocCache::set_index(LineAddr line) const
{
    if (hashed_index_)
        return static_cast<std::uint32_t>(mix64(line) % sets_);
    return static_cast<std::uint32_t>(line % sets_);
}

void
SetAssocCache::prefetch(LineAddr line) const noexcept
{
    const std::uint32_t set = set_index(line);
    const std::uint64_t *block = block_of(set);
    __builtin_prefetch(block);
    __builtin_prefetch(block + kTags + ways_ - 1);
    __builtin_prefetch(&versions_[base(set)]);
}

int
SetAssocCache::find_way(const std::uint64_t *block, LineAddr line) const
{
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (block[kTags + w] == line && ((block[kBits] >> w) & 1))
            return static_cast<int>(w);
    }
    return -1;
}

void
SetAssocCache::touch(std::uint64_t *block, std::uint32_t way)
{
    std::uint64_t ranks = block[kRanks];
    const std::uint32_t shift = 4 * way;
    const std::uint32_t mine = static_cast<std::uint32_t>(ranks >> shift) & 15;
    // Every way ranked above this one slides down one slot, then this way
    // becomes MRU. Ranks of unused high nibbles are 0 and never match.
    ranks -= nibbles_ge(ranks, mine + 1) >> 3; // 1 per selected nibble; all >= 1
    ranks &= ~(std::uint64_t{15} << shift);
    block[kRanks] = ranks | static_cast<std::uint64_t>(ways_ - 1) << shift;
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return find_way(block_of(set_index(line)), line) >= 0;
}

SetAssocCache::LookupResult
SetAssocCache::read(LineAddr line)
{
    const std::uint32_t set = set_index(line);
    std::uint64_t *block = block_of(set);
    const int way = find_way(block, line);
    if (way < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    touch(block, static_cast<std::uint32_t>(way));
    return {true, versions_[base(set) + static_cast<std::uint32_t>(way)]};
}

SetAssocCache::LookupResult
SetAssocCache::write(LineAddr line, std::uint64_t version)
{
    const std::uint32_t set = set_index(line);
    std::uint64_t *block = block_of(set);
    const int way = find_way(block, line);
    if (way < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    const auto w = static_cast<std::uint32_t>(way);
    block[kBits] |= std::uint64_t{1} << (kDirtyShift + w);
    versions_[base(set) + w] = version;
    touch(block, w);
    return {true, version};
}

std::optional<SetAssocCache::Eviction>
SetAssocCache::fill(LineAddr line, std::uint64_t version, bool dirty)
{
    const std::uint32_t set = set_index(line);
    std::uint64_t *block = block_of(set);
    const std::uint64_t dirty_bit = dirty ? std::uint64_t{1} << kDirtyShift : 0;
    ++fills_;

    // Refill of a line that raced back in (e.g. two MSHR-merged paths):
    // just refresh it.
    if (int way = find_way(block, line); way >= 0) {
        const auto w = static_cast<std::uint32_t>(way);
        std::uint64_t &v = versions_[base(set) + w];
        v = std::max(v, version);
        block[kBits] |= dirty_bit << w;
        touch(block, w);
        return std::nullopt;
    }

    // Prefer the lowest invalid way; else evict the LRU way.
    const std::uint64_t free = ~block[kBits] & ((std::uint64_t{1} << ways_) - 1);
    std::optional<Eviction> evicted;
    std::uint32_t target;
    if (free != 0) {
        target = static_cast<std::uint32_t>(std::countr_zero(free));
    } else {
        target = lru_way(block[kRanks]);
        const bool victim_dirty = (block[kBits] >> (kDirtyShift + target)) & 1;
        evicted = Eviction{block[kTags + target], victim_dirty, versions_[base(set) + target]};
        ++evictions_;
        if (victim_dirty)
            ++writebacks_;
        block[kBits] &= ~(std::uint64_t{1} << (kDirtyShift + target));
    }

    block[kTags + target] = line;
    block[kBits] |= (std::uint64_t{1} | dirty_bit) << target;
    versions_[base(set) + target] = version;
    touch(block, target);
    return evicted;
}

std::optional<SetAssocCache::Eviction>
SetAssocCache::invalidate(LineAddr line)
{
    const std::uint32_t set = set_index(line);
    std::uint64_t *block = block_of(set);
    const int way = find_way(block, line);
    if (way < 0)
        return std::nullopt;
    const auto w = static_cast<std::uint32_t>(way);
    Eviction ev{line, ((block[kBits] >> (kDirtyShift + w)) & 1) != 0, versions_[base(set) + w]};
    block[kBits] &= ~((std::uint64_t{1} | std::uint64_t{1} << kDirtyShift) << w);
    return ev;
}

} // namespace morpheus
