#include <gtest/gtest.h>

#include "morpheus/extended_llc_kernel.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

namespace {
constexpr std::uint32_t kBudget = 32 * kLineBytes;  // 32 uncompressed slots
}

TEST(ExtSet, MissesWhenEmpty)
{
    ExtSet set(kBudget, false, 10'000);
    std::uint64_t v;
    CompLevel lvl;
    EXPECT_FALSE(set.touch_read(0, 1, v, lvl));
    EXPECT_EQ(set.resident(), 0u);
}

TEST(ExtSet, InsertThenRead)
{
    ExtSet set(kBudget, false, 10'000);
    std::vector<ExtSet::Evicted> ev;
    EXPECT_TRUE(set.insert(0, 7, 5, false, CompLevel::kUncompressed, ev));
    std::uint64_t v;
    CompLevel lvl;
    ASSERT_TRUE(set.touch_read(1, 7, v, lvl));
    EXPECT_EQ(v, 5u);
    EXPECT_TRUE(ev.empty());
}

TEST(ExtSet, WithoutCompressionMaxBlocksIsBudgetOverLine)
{
    ExtSet set(kBudget, false, 10'000);
    EXPECT_EQ(set.max_blocks(), 32u);
    ExtSet cset(kBudget, true, 10'000);
    EXPECT_EQ(cset.max_blocks(), 128u);  // all-high packing
}

TEST(ExtSet, EvictsGlobalLruWhenFull)
{
    ExtSet set(4 * kLineBytes, false, 10'000);
    std::vector<ExtSet::Evicted> ev;
    for (LineAddr l = 0; l < 4; ++l)
        set.insert(l, l, l, false, CompLevel::kUncompressed, ev);
    std::uint64_t v;
    CompLevel lvl;
    set.touch_read(10, 0, v, lvl);  // line 1 is now LRU
    set.insert(11, 99, 1, false, CompLevel::kUncompressed, ev);
    EXPECT_FALSE(set.contains(1));
    EXPECT_TRUE(set.contains(0));
    EXPECT_TRUE(set.contains(99));
}

TEST(ExtSet, DirtyEvictionsAreReported)
{
    ExtSet set(2 * kLineBytes, false, 10'000);
    std::vector<ExtSet::Evicted> ev;
    set.insert(0, 1, 10, true, CompLevel::kUncompressed, ev);
    set.insert(1, 2, 0, false, CompLevel::kUncompressed, ev);
    set.insert(2, 3, 0, false, CompLevel::kUncompressed, ev);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].line, 1u);
    EXPECT_EQ(ev[0].version, 10u);
}

TEST(ExtSet, WriteTouchDirties)
{
    ExtSet set(kBudget, false, 10'000);
    std::vector<ExtSet::Evicted> ev;
    set.insert(0, 4, 1, false, CompLevel::kUncompressed, ev);
    EXPECT_TRUE(set.touch_write(1, 4, 8));
    // Evict it: the writeback must carry version 8.
    for (LineAddr l = 100; l < 164; ++l)
        set.insert(2, l, 0, false, CompLevel::kUncompressed, ev);
    bool found = false;
    for (const auto &e : ev) {
        if (e.line == 4) {
            found = true;
            EXPECT_EQ(e.version, 8u);
        }
    }
    EXPECT_TRUE(found);
}

TEST(ExtSet, CompressionPacksMoreBlocks)
{
    // With compression, high-level blocks occupy 32-byte slots after the
    // first epoch rebalances the allocation toward observed demand.
    ExtSet set(kBudget, true, 100);
    std::vector<ExtSet::Evicted> ev;
    Cycle now = 0;
    for (LineAddr l = 0; l < 200; ++l) {
        set.insert(now, l, 1, false, CompLevel::kHigh, ev);
        now += 10;  // crosses many epochs
    }
    EXPECT_GT(set.resident(), 32u);  // beats the uncompressed capacity
    EXPECT_LE(set.resident(), set.max_blocks());
}

TEST(ExtSet, UncompressedInsertsIgnoreLevelWhenDisabled)
{
    ExtSet set(kBudget, false, 10'000);
    std::vector<ExtSet::Evicted> ev;
    for (LineAddr l = 0; l < 64; ++l)
        set.insert(0, l, 1, false, CompLevel::kHigh, ev);
    EXPECT_EQ(set.resident(), 32u);  // each still occupies a full slot
}

TEST(ExtSet, RacedRefillRefreshesInPlace)
{
    ExtSet set(kBudget, false, 10'000);
    std::vector<ExtSet::Evicted> ev;
    set.insert(0, 5, 3, false, CompLevel::kUncompressed, ev);
    set.insert(1, 5, 9, true, CompLevel::kUncompressed, ev);
    EXPECT_EQ(set.resident(), 1u);
    std::uint64_t v;
    CompLevel lvl;
    set.touch_read(2, 5, v, lvl);
    EXPECT_EQ(v, 9u);
}

TEST(ExtSet, MixedLevelTrafficStaysWithinBudget)
{
    ExtSet set(kBudget, true, 500);
    std::vector<ExtSet::Evicted> ev;
    Rng rng(3);
    Cycle now = 0;
    for (int i = 0; i < 5000; ++i) {
        const auto level = static_cast<CompLevel>(rng.next_below(3));
        set.insert(now, rng.next_below(512), 1, rng.chance(0.3), level, ev);
        now += 7;
    }
    // Invariant: resident blocks can never exceed the all-high packing.
    EXPECT_LE(set.resident(), set.max_blocks());
}

namespace {

/**
 * Drives one set through a fixed seeded mix of inserts (clean and dirty,
 * every level), read touches and write touches, with time advancing
 * across many epochs. Lines share low address bits four ways, so a tag
 * lookup sees both absent and present neighbours. Every return value,
 * version, level and evicted record, and the final statistics, are
 * folded into the returned hash.
 */
std::uint64_t
run_fixed_ops(std::uint32_t budget, bool compression, std::uint64_t seed)
{
    ExtSet set(budget, compression, 500);
    Rng rng(seed);
    std::vector<ExtSet::Evicted> ev;
    std::uint64_t outcomes = 0;
    const auto fold = [&](std::uint64_t v) { outcomes = mix64(outcomes ^ v); };
    Cycle now = 0;
    for (std::uint64_t i = 1; i <= 20'000; ++i) {
        const LineAddr line = rng.next_below(64) | (rng.next_below(4) << 8);
        now += rng.next_below(40);
        switch (rng.next_below(4)) {
          case 0:
          case 1: {
            std::uint64_t v = 0;
            CompLevel lvl = CompLevel::kUncompressed;
            const bool hit = set.touch_read(now, line, v, lvl);
            fold(hit ? v ^ (static_cast<std::uint64_t>(lvl) << 60) : ~0ULL);
            break;
          }
          case 2:
            fold(set.touch_write(now, line, i));
            break;
          default: {
            const bool dirty = rng.chance(0.3);
            // Mostly one level per phase, so repartitions swing the slot
            // mix and an incoming block can find no compatible slot.
            const std::uint64_t phase = (i / 2'500) % 3;
            const auto level = static_cast<CompLevel>(rng.chance(0.98) ? phase : rng.next_below(3));
            fold(set.insert(now, line, i, dirty, level, ev));
            for (const auto &e : ev)
                fold((e.line << 1 | (e.dirty ? 1 : 0)) ^ (e.version << 24));
            ev.clear();
            break;
          }
        }
        fold(set.resident());
    }
    for (CompLevel level : {CompLevel::kHigh, CompLevel::kLow, CompLevel::kUncompressed})
        fold(set.insertions(level));
    fold(set.bypasses());
    return outcomes;
}

} // namespace

/**
 * Pins every op outcome of an uncompressed and a compressed set over a
 * fixed op sequence, so a change to the tag store or the lookup cannot
 * silently change hit/miss, version, level, eviction or bypass behaviour.
 */
TEST(ExtSet, OpOutcomesArePinned)
{
    EXPECT_EQ(run_fixed_ops(kBudget, false, 1), 0x3f2e9876fcf21c0bULL);
    EXPECT_EQ(run_fixed_ops(kBudget, true, 2), 0x8f1a6cfec19d54b9ULL);
    // A compressed set smaller than one uncompressed slot: uncompressed
    // blocks always bypass, and repartitions decide whether the others
    // fit.
    EXPECT_EQ(run_fixed_ops(3 * kLineBytes / 4, true, 3), 0x2de3a24b929c57f3ULL);
}
