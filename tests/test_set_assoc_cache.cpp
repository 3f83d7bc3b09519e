#include <gtest/gtest.h>

#include <unordered_map>

#include "cache/set_assoc_cache.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

TEST(SetAssocCache, ColdMissesThenHits)
{
    SetAssocCache cache(4, 2);
    EXPECT_FALSE(cache.read(10).hit);
    cache.fill(10, 7, false);
    const auto r = cache.read(10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.version, 7u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCache, CapacityBytes)
{
    SetAssocCache cache(256, 16);
    EXPECT_EQ(cache.capacity_bytes(), 256u * 16 * kLineBytes);
}

TEST(SetAssocCache, LruEvictionWithinSet)
{
    SetAssocCache cache(1, 2);  // one set, two ways
    cache.fill(1, 1, false);
    cache.fill(2, 2, false);
    cache.read(1);  // line 2 becomes LRU
    const auto ev = cache.fill(3, 3, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 2u);
    EXPECT_TRUE(cache.probe(1));
    EXPECT_TRUE(cache.probe(3));
    EXPECT_FALSE(cache.probe(2));
}

TEST(SetAssocCache, DirtyEvictionReportsWriteback)
{
    SetAssocCache cache(1, 1);
    cache.fill(5, 10, false);
    cache.write(5, 11);
    const auto ev = cache.fill(6, 1, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->version, 11u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(SetAssocCache, CleanEvictionIsSilent)
{
    SetAssocCache cache(1, 1);
    cache.fill(5, 10, false);
    const auto ev = cache.fill(6, 1, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_FALSE(ev->dirty);
}

TEST(SetAssocCache, WriteMissDoesNotAllocate)
{
    SetAssocCache cache(4, 2);
    EXPECT_FALSE(cache.write(9, 1).hit);
    EXPECT_FALSE(cache.probe(9));
}

TEST(SetAssocCache, RefillOfPresentLineMergesState)
{
    SetAssocCache cache(1, 2);
    cache.fill(1, 5, false);
    cache.write(1, 9);
    const auto ev = cache.fill(1, 7, false);  // raced refill with older version
    EXPECT_FALSE(ev.has_value());
    const auto r = cache.read(1);
    EXPECT_EQ(r.version, 9u);  // keeps the newer version and dirtiness
}

TEST(SetAssocCache, InvalidateDropsLine)
{
    SetAssocCache cache(2, 2);
    cache.fill(3, 1, true);
    const auto ev = cache.invalidate(3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_FALSE(cache.probe(3));
    EXPECT_FALSE(cache.invalidate(3).has_value());
}

TEST(SetAssocCache, FlushWritesBackAllDirtyLines)
{
    SetAssocCache cache(4, 4);
    cache.fill(1, 1, true);
    cache.fill(2, 2, false);
    cache.fill(3, 3, true);
    std::unordered_map<LineAddr, std::uint64_t> sink;
    cache.flush([&](LineAddr line, std::uint64_t version) { sink[line] = version; });
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink[1], 1u);
    EXPECT_EQ(sink[3], 3u);
    EXPECT_FALSE(cache.probe(2));
}

TEST(SetAssocCache, HashedIndexSpreadsConflictingLowBits)
{
    // Lines that share low bits collide in a low-bit-indexed cache but
    // spread under hashed indexing.
    SetAssocCache plain(16, 1, ReplacementKind::kLru, false);
    SetAssocCache hashed(16, 1, ReplacementKind::kLru, true);
    int plain_same = 0;
    int hashed_same = 0;
    for (LineAddr l = 0; l < 32; ++l) {
        plain_same += plain.set_index(l * 16) == plain.set_index(0);
        hashed_same += hashed.set_index(l * 16) == hashed.set_index(0);
    }
    EXPECT_EQ(plain_same, 32);
    EXPECT_LT(hashed_same, 8);
}

/** Property: steady-state hit rate tracks capacity/footprint. */
class CacheHitRate : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheHitRate, UniformRandomHitRateTracksCapacityRatio)
{
    const std::uint32_t footprint_lines = GetParam();
    SetAssocCache cache(64, 8, ReplacementKind::kLru, true);  // 512 lines
    Rng rng(footprint_lines);
    std::uint64_t hits = 0;
    constexpr int kWarmup = 20'000;
    constexpr int kMeasure = 60'000;
    for (int i = 0; i < kWarmup + kMeasure; ++i) {
        const LineAddr line = rng.next_below(footprint_lines);
        const auto r = cache.read(line);
        if (!r.hit)
            cache.fill(line, 1, false);
        else if (i >= kWarmup)
            ++hits;
    }
    const double measured = static_cast<double>(hits) / kMeasure;
    const double expected =
        std::min(1.0, 512.0 / static_cast<double>(footprint_lines));
    EXPECT_NEAR(measured, expected, 0.12) << "footprint=" << footprint_lines;
}

INSTANTIATE_TEST_SUITE_P(Footprints, CacheHitRate,
                         ::testing::Values(256u, 1024u, 2048u, 4096u));

namespace {

/**
 * Drives @p cache through a fixed mix of reads, writes, clean and dirty
 * fills, invalidates and one mid-run flush over a footprint three times
 * its capacity, folding every observable outcome into the returned hash.
 */
std::uint64_t
run_fixed_ops(SetAssocCache &cache, std::uint64_t seed)
{
    const std::uint64_t footprint = 3 * static_cast<std::uint64_t>(cache.sets()) * cache.ways();
    Rng rng(seed);
    std::uint64_t outcomes = 0;
    const auto fold = [&](std::uint64_t v) { outcomes = mix64(outcomes ^ v); };
    constexpr int kOps = 40'000;
    for (int i = 0; i < kOps; ++i) {
        const LineAddr line = rng.next_below(footprint);
        const std::uint64_t version = static_cast<std::uint64_t>(i) + 1;
        switch (rng.next_below(8)) {
          case 0:
          case 1:
          case 2: {
            const auto r = cache.read(line);
            fold(r.hit ? r.version : ~0ULL);
            if (!r.hit) {
                const auto ev = cache.fill(line, version, false);
                fold(ev ? (ev->line << 2) | (ev->dirty ? 2 : 0) | 1 : 0);
            }
            break;
          }
          case 3:
          case 4: {
            const auto r = cache.write(line, version);
            fold(r.hit);
            break;
          }
          case 5: {
            const auto ev = cache.fill(line, version, true);
            fold(ev ? ev->version : 0);
            break;
          }
          case 6: {
            const auto ev = cache.invalidate(line);
            fold(ev ? ev->line ^ ev->version : 0);
            break;
          }
          default:
            fold(cache.probe(line));
            break;
        }
        if (i == kOps / 2)
            cache.flush([&](LineAddr l, std::uint64_t v) { fold(l ^ (v << 20)); });
    }
    return outcomes;
}

} // namespace

/**
 * Pins every op outcome of an L1-geometry and an LLC-geometry cache over a
 * fixed op sequence, so a change to the tag-store layout or replacement
 * cannot silently change hit/miss, version or eviction behaviour.
 */
TEST(SetAssocCache, OpOutcomesArePinned)
{
    SetAssocCache l1(128, 8, ReplacementKind::kLru, false);  // 128 KiB, 8-way
    SetAssocCache llc(256, 16, ReplacementKind::kLru, true); // one LLC partition
    EXPECT_EQ(run_fixed_ops(l1, 1), 0xd2604ab48811357cULL);
    EXPECT_EQ(run_fixed_ops(llc, 2), 0xf1e5d05ef1271310ULL);
}
