#include <gtest/gtest.h>

#include "gpu/llc_partition.hpp"
#include "test_util.hpp"

using namespace morpheus;
using namespace morpheus::test;

namespace {

struct LlcHarness
{
    TestFabric fabric;
    FakeRouter router{fabric, 0};
    LlcPartition part{0, fabric.ctx(), 64, 8, 90, 4, 2};

    /** Sends one request and runs to completion. */
    std::pair<Cycle, std::uint64_t>
    access(LineAddr line, AccessType type, std::uint64_t wversion = 0)
    {
        Cycle done = 0;
        std::uint64_t ver = 0;
        const Cycle start = fabric.eq.now();
        MemRequest req{line, type, 0, wversion};
        const ReqId id = router.probe(req, [&](Cycle t, std::uint64_t v) {
            done = t;
            ver = v;
        });
        fabric.eq.schedule(start, [this, id] { part.handle(fabric.eq.now(), id); });
        fabric.eq.run();
        return {done - start, ver};
    }
};

} // namespace

TEST(LlcPartition, MissFetchesFromDramThenHits)
{
    LlcHarness h;
    h.fabric.store.write(11, 3);
    auto [miss_lat, v1] = h.access(11, AccessType::kRead);
    EXPECT_EQ(v1, 3u);
    EXPECT_GT(miss_lat, 400u);  // DRAM device latency dominates
    EXPECT_EQ(h.fabric.dram.reads(), 1u);

    auto [hit_lat, v2] = h.access(11, AccessType::kRead);
    EXPECT_EQ(v2, 3u);
    EXPECT_LT(hit_lat, 200u);  // pipeline + response NoC leg only
    EXPECT_EQ(h.fabric.dram.reads(), 1u);
}

TEST(LlcPartition, WriteAllocatesAndDirties)
{
    LlcHarness h;
    auto [lat, v] = h.access(7, AccessType::kWrite, 55);
    (void)lat;
    EXPECT_EQ(v, 55u);
    // The dirty line lives in the LLC, not DRAM, until evicted.
    EXPECT_EQ(h.fabric.store.read(7), 0u);
    auto [hit_lat, v2] = h.access(7, AccessType::kRead);
    EXPECT_LT(hit_lat, 200u);
    EXPECT_EQ(v2, 55u);
}

TEST(LlcPartition, AtomicReadModifyWrite)
{
    LlcHarness h;
    h.fabric.store.write(9, 10);
    auto [lat1, v1] = h.access(9, AccessType::kAtomic, 20);
    (void)lat1;
    EXPECT_EQ(v1, 20u);  // max(old, new) with globally increasing versions
    auto [lat2, v2] = h.access(9, AccessType::kRead);
    EXPECT_LT(lat2, 200u);
    EXPECT_EQ(v2, 20u);
}

TEST(LlcPartition, ConcurrentMissesMerge)
{
    LlcHarness h;
    int done = 0;
    MemRequest req{42, AccessType::kRead, 0, 0};
    h.fabric.eq.schedule(0, [&] {
        for (int i = 0; i < 5; ++i)
            h.part.handle(0, h.router.probe(req, [&](Cycle, std::uint64_t) { ++done; }));
    });
    h.fabric.eq.run();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(h.fabric.dram.reads(), 1u);
}

TEST(LlcPartition, DirtyEvictionWritesBackToDram)
{
    LlcHarness h;
    // Fill one set (8 ways) with dirty lines, then overflow it. Hashed
    // indexing means we brute-force lines landing in set 0.
    std::vector<LineAddr> same_set;
    for (LineAddr l = 0; same_set.size() < 9; ++l) {
        if (mix64(l) % 64 == 0)
            same_set.push_back(l);
    }
    for (std::size_t i = 0; i < 8; ++i)
        h.access(same_set[i], AccessType::kWrite, 100 + i);
    EXPECT_EQ(h.fabric.dram.writes(), 0u);
    h.access(same_set[8], AccessType::kWrite, 200);
    EXPECT_EQ(h.fabric.dram.writes(), 1u);
    // The victim's version is now in the backing store.
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 8; ++i)
        total += h.fabric.store.read(same_set[i]);
    EXPECT_GE(total, 100u);
}

TEST(LlcPartition, HitLatencyNearPaperAnchor)
{
    LlcHarness h;
    h.access(5, AccessType::kRead);
    auto [hit_lat, v] = h.access(5, AccessType::kRead);
    (void)v;
    // Paper: ~160 ns conventional hit including both NoC legs; this
    // harness only exercises pipeline + response leg (~90 + ~35).
    EXPECT_NEAR(static_cast<double>(hit_lat), 125.0, 25.0);
}

TEST(LlcPartition, StatsCount)
{
    LlcHarness h;
    h.access(1, AccessType::kRead);
    h.access(1, AccessType::kRead);
    EXPECT_EQ(h.part.accesses(), 2u);
    EXPECT_EQ(h.part.hits(), 1u);
    EXPECT_GE(h.part.misses(), 1u);
}
