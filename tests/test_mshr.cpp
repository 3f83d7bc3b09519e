#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "cache/mshr.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

namespace {

using Waiter = std::function<void(Cycle, std::uint64_t)>;

void
noop(Cycle, std::uint64_t)
{
}

/** Collects the waiters release() hands out, in order. */
std::vector<int>
release_ints(MshrTable<int> &mshrs, LineAddr line)
{
    std::vector<int> out;
    mshrs.release(line, [&](int &w) { out.push_back(w); });
    return out;
}

} // namespace

TEST(Mshr, FirstMissIsPrimary)
{
    MshrTable<Waiter> mshrs(4);
    bool primary = mshrs.allocate_or_merge(10, noop);
    EXPECT_TRUE(primary);
    EXPECT_TRUE(mshrs.has(10));
    EXPECT_EQ(mshrs.outstanding(), 1u);
}

TEST(Mshr, SecondMissMerges)
{
    MshrTable<Waiter> mshrs(4);
    mshrs.allocate_or_merge(10, noop);
    bool primary = mshrs.allocate_or_merge(10, noop);
    EXPECT_FALSE(primary);
    EXPECT_EQ(mshrs.outstanding(), 1u);
    EXPECT_EQ(mshrs.merged(), 1u);
}

TEST(Mshr, ReleaseVisitsAllWaitersInOrder)
{
    MshrTable<Waiter> mshrs;
    std::vector<int> order;
    mshrs.allocate_or_merge(7, [&](Cycle, std::uint64_t) { order.push_back(1); });
    mshrs.allocate_or_merge(7, [&](Cycle, std::uint64_t) { order.push_back(2); });
    mshrs.allocate_or_merge(7, [&](Cycle, std::uint64_t) { order.push_back(3); });
    int visited = 0;
    mshrs.release(7, [&](Waiter &w) {
        ++visited;
        w(0, 0);
    });
    EXPECT_EQ(visited, 3);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(mshrs.has(7));
}

TEST(Mshr, FullBlocksNewLinesButNotMerges)
{
    MshrTable<Waiter> mshrs(2);
    mshrs.allocate_or_merge(1, noop);
    mshrs.allocate_or_merge(2, noop);
    EXPECT_TRUE(mshrs.full());
    // Existing lines can still merge while full.
    EXPECT_TRUE(mshrs.has(1));
    EXPECT_FALSE(mshrs.allocate_or_merge(1, noop));
}

TEST(Mshr, ReleaseOfUnknownLineVisitsNothing)
{
    MshrTable<Waiter> mshrs;
    int visited = 0;
    mshrs.release(99, [&](Waiter &) { ++visited; });
    mshrs.allocate_or_merge(1, noop);
    mshrs.release(99, [&](Waiter &) { ++visited; });
    EXPECT_EQ(visited, 0);
    EXPECT_TRUE(mshrs.has(1));
}

TEST(Mshr, PeakOccupancyTracked)
{
    MshrTable<Waiter> mshrs;
    mshrs.allocate_or_merge(1, noop);
    mshrs.allocate_or_merge(2, noop);
    mshrs.release(1, [](Waiter &) {});
    mshrs.release(2, [](Waiter &) {});
    EXPECT_EQ(mshrs.peak_occupancy(), 2u);
    EXPECT_EQ(mshrs.outstanding(), 0u);
}

/**
 * Randomized oracle: every allocate/merge/release/has/full outcome must
 * match a std::map of FIFO queues. @p line_space controls collisions;
 * @p max_entries 0 is an unbounded (LLC-style) table.
 */
void
run_oracle(std::uint64_t seed, std::uint64_t line_space, std::size_t max_entries, int ops)
{
    MshrTable<int> mshrs(max_entries);
    std::map<LineAddr, std::deque<int>> model;
    Rng rng(seed);
    int next_waiter = 0;
    std::size_t peak = 0;
    std::uint64_t merged = 0;
    for (int i = 0; i < ops; ++i) {
        const LineAddr line = rng.next_below(line_space) * 0x10001;
        ASSERT_EQ(mshrs.has(line), model.count(line) != 0) << "op " << i;
        ASSERT_EQ(mshrs.full(), max_entries != 0 && model.size() >= max_entries);
        // Bias towards allocation so the table fills, then drains.
        const bool allocate = rng.next_below(100) < (i % 2000 < 1000 ? 65u : 35u);
        if (allocate) {
            if (mshrs.full() && !mshrs.has(line))
                continue;
            const bool primary = mshrs.allocate_or_merge(line, next_waiter);
            ASSERT_EQ(primary, model.count(line) == 0);
            merged += primary ? 0 : 1;
            model[line].push_back(next_waiter++);
            peak = std::max(peak, model.size());
        } else {
            std::vector<int> expect;
            if (auto it = model.find(line); it != model.end()) {
                expect.assign(it->second.begin(), it->second.end());
                model.erase(it);
            }
            ASSERT_EQ(release_ints(mshrs, line), expect) << "op " << i;
        }
        ASSERT_EQ(mshrs.outstanding(), model.size());
    }
    // Drain whatever is left and re-check the counters.
    while (!model.empty()) {
        auto it = model.begin();
        const std::vector<int> expect(it->second.begin(), it->second.end());
        ASSERT_EQ(release_ints(mshrs, it->first), expect);
        model.erase(it);
    }
    EXPECT_EQ(mshrs.outstanding(), 0u);
    EXPECT_EQ(mshrs.merged(), merged);
    EXPECT_EQ(mshrs.peak_occupancy(), peak);
}

TEST(MshrOracle, UnboundedTableGrowsPastInitialSlots)
{
    // Up to ~600 live lines: several doublings of the slot array.
    run_oracle(1, 1200, 0, 60'000);
}

TEST(MshrOracle, BoundedL1StyleTable)
{
    run_oracle(2, 400, 192, 60'000);
}

TEST(MshrOracle, HeavyMergingOnFewLines)
{
    run_oracle(3, 6, 4, 20'000);
}

/**
 * Lines whose hashes share their low bits all start probing at slot 13,
 * so they form one chain that wraps past the end of the 16-slot array;
 * releasing from inside it runs the backward shift, and every survivor
 * must stay reachable.
 */
TEST(MshrOracle, BackwardShiftKeepsOneProbeChainReachable)
{
    std::vector<LineAddr> chain;
    for (LineAddr l = 0; chain.size() < 7; ++l) {
        if ((mix64(l) & 15) == 13)
            chain.push_back(l);
    }
    // A line homed on a slot the chain wraps over.
    LineAddr neighbour = 0;
    while ((mix64(neighbour) & 15) != 1)
        ++neighbour;

    MshrTable<int> mshrs;  // 7 + 1 live lines stay within the first 16 slots
    for (std::size_t i = 0; i < chain.size(); ++i)
        mshrs.allocate_or_merge(chain[i], static_cast<int>(i));
    mshrs.allocate_or_merge(neighbour, 100);
    for (std::size_t victim : {1u, 4u, 0u}) {  // 14, 1, 13
        EXPECT_EQ(release_ints(mshrs, chain[victim]),
                  (std::vector<int>{static_cast<int>(victim)}));
        EXPECT_FALSE(mshrs.has(chain[victim]));
    }
    for (std::size_t i : {2u, 3u, 5u, 6u}) {
        ASSERT_TRUE(mshrs.has(chain[i])) << i;
        mshrs.allocate_or_merge(chain[i], 10 + static_cast<int>(i));
        EXPECT_EQ(release_ints(mshrs, chain[i]),
                  (std::vector<int>{static_cast<int>(i), 10 + static_cast<int>(i)}));
    }
    EXPECT_EQ(release_ints(mshrs, neighbour), (std::vector<int>{100}));
    EXPECT_EQ(mshrs.outstanding(), 0u);
}

/**
 * A waiter that allocates on the same table while release() runs (an L1
 * fill that lets a parked request re-miss): the fresh entry is separate
 * from the one being released, and the remaining waiters still arrive in
 * order.
 */
TEST(MshrOracle, WaiterMayAllocateOnSameTableDuringRelease)
{
    MshrTable<int> mshrs(4);
    for (int w = 0; w < 3; ++w)
        mshrs.allocate_or_merge(5, w);
    std::vector<int> seen;
    mshrs.release(5, [&](int &w) {
        seen.push_back(w);
        if (w == 0) {
            EXPECT_FALSE(mshrs.has(5));  // the released entry is already detached
        }
        // Reuse the freed node and force the pool to grow mid-walk.
        EXPECT_EQ(mshrs.allocate_or_merge(5, 100 + w), w == 0);
        for (int k = 0; k < 8; ++k)
            mshrs.allocate_or_merge(6 + w, 200 + k);
    });
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(mshrs.outstanding(), 4u);  // 5, 6, 7, 8
    EXPECT_EQ(release_ints(mshrs, 5), (std::vector<int>{100, 101, 102}));
    EXPECT_EQ(release_ints(mshrs, 7).size(), 8u);
    EXPECT_EQ(mshrs.outstanding(), 2u);
}
