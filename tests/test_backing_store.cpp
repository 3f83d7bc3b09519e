#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "mem/backing_store.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

namespace {

/** Lines whose mix64 hash has its low 20 bits all set: at every table
 *  size up to 2^20 slots they share the last slot as their home, so
 *  their probe chain wraps past the end of the array. */
std::vector<LineAddr>
lines_homed_at_last_slot(std::size_t count)
{
    constexpr std::uint64_t kLow = (std::uint64_t{1} << 20) - 1;
    std::vector<LineAddr> lines;
    for (LineAddr line = 1; lines.size() < count; ++line) {
        if ((mix64(line) & kLow) == kLow)
            lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(BackingStore, UnwrittenLinesReadZero)
{
    BackingStore store;
    EXPECT_EQ(store.read(0), 0u);
    EXPECT_EQ(store.read(~0ULL), 0u);
    EXPECT_EQ(store.read(BackingStore::kVacantLine), 0u);
    EXPECT_EQ(store.read(12345), 0u);
    EXPECT_EQ(store.writes(), 0u);
}

TEST(BackingStore, EveryLineValueIsStorable)
{
    BackingStore store;
    store.write(BackingStore::kVacantLine, 7);
    store.write(0, 8);
    store.write(~0ULL - 1, 9);
    EXPECT_EQ(store.read(BackingStore::kVacantLine), 7u);
    EXPECT_EQ(store.read(0), 8u);
    EXPECT_EQ(store.read(~0ULL - 1), 9u);
    store.write(BackingStore::kVacantLine, 0);
    EXPECT_EQ(store.read(BackingStore::kVacantLine), 0u);
    EXPECT_EQ(store.writes(), 4u);
}

TEST(BackingStore, NextVersionIsMonotonic)
{
    BackingStore store;
    EXPECT_EQ(store.next_version(), 1u);
    EXPECT_EQ(store.next_version(), 2u);
    EXPECT_EQ(store.writes(), 0u);
}

/**
 * One million random reads and writes against a std::unordered_map
 * oracle. More than 200k distinct lines are written, so the table (1,024
 * slots at first) doubles at least nine times under load. The mix
 * includes line 0, ~0 (the empty-slot marker), lines near ~0, lines that
 * share the last slot as their home (wrapping probe chains) and writes
 * of version 0.
 */
TEST(BackingStore, MatchesMapOracleAcrossDoublings)
{
    ASSERT_EQ(BackingStore::kVacantLine, ~0ULL);
    const std::vector<LineAddr> colliders = lines_homed_at_last_slot(8);
    std::vector<LineAddr> special = {0, 1, ~0ULL, ~0ULL - 1, ~0ULL - 2};
    special.insert(special.end(), colliders.begin(), colliders.end());

    BackingStore store;
    std::unordered_map<LineAddr, std::uint64_t> oracle;
    std::uint64_t oracle_writes = 0;
    Rng rng(20);
    constexpr int kOps = 1'000'000;
    constexpr std::uint64_t kDense = 400'000;
    for (int i = 0; i < kOps; ++i) {
        LineAddr line;
        switch (rng.next_below(16)) {
          case 0:
            line = special[rng.next_below(special.size())];
            break;
          case 1:
            line = ~0ULL - rng.next_below(kDense); // high addresses
            break;
          default:
            line = rng.next_below(kDense) * 0x10001; // spread over 2^38
            break;
        }
        if (rng.next_below(2) == 0) {
            const auto it = oracle.find(line);
            ASSERT_EQ(store.read(line), it == oracle.end() ? 0 : it->second)
                << "op " << i << " line " << line;
            continue;
        }
        const std::uint64_t version = rng.next_below(64) == 0 ? 0 : store.next_version();
        store.write(line, version);
        oracle[line] = version;
        ++oracle_writes;
    }
    EXPECT_EQ(store.writes(), oracle_writes);
    EXPECT_GT(oracle.size(), 200'000u); // 1024 * 2^8 * 3/4 = 196,608: >= 9 doublings
    for (const auto &[line, version] : oracle)
        ASSERT_EQ(store.read(line), version) << "line " << line;
    for (LineAddr line : special) {
        const auto it = oracle.find(line);
        EXPECT_EQ(store.read(line), it == oracle.end() ? 0 : it->second) << "line " << line;
    }
}

TEST(BackingStore, PrefetchHintsChangeNothing)
{
    // A fresh store holds no storage: every hint is a no-op.
    BackingStore store;
    for (LineAddr line : {LineAddr{0}, LineAddr{1}, BackingStore::kVacantLine})
        store.prefetch(line);
    EXPECT_EQ(store.writes(), 0u);
    EXPECT_EQ(store.read(0), 0u);
    EXPECT_EQ(store.read(BackingStore::kVacantLine), 0u);

    store.write(5, 9);
    for (LineAddr line = 0; line < 4096; ++line)
        store.prefetch(line);
    store.prefetch(BackingStore::kVacantLine);
    EXPECT_EQ(store.writes(), 1u);
    EXPECT_EQ(store.read(5), 9u);
    EXPECT_EQ(store.read(6), 0u);
    EXPECT_EQ(store.next_version(), 1u);
}
