#include <gtest/gtest.h>

#include "gpu/l1_cache.hpp"
#include "test_util.hpp"

using namespace morpheus;
using namespace morpheus::test;

namespace {

struct L1Harness
{
    TestFabric fabric;
    FakeRouter router{fabric, 200};
    FakeL1Client client;
    L1Cache l1{0, fabric.ctx(), &client, 8 * 1024, 4, 34, 8};

    L1Harness() { router.attach(l1); }

    /** Issues a read and runs to completion; returns (latency, version). */
    std::pair<Cycle, std::uint64_t>
    read(LineAddr line)
    {
        Cycle done = 0;
        std::uint64_t ver = 0;
        const Cycle start = fabric.eq.now();
        l1.access(start, AccessType::kRead, line, 0, client.token([&](Cycle t, std::uint64_t v) {
                      done = t;
                      ver = v;
                  }));
        fabric.eq.run();
        return {done - start, ver};
    }
};

} // namespace

TEST(L1Cache, MissGoesToLlcThenHitsLocally)
{
    L1Harness h;
    h.fabric.store.write(5, 42);
    auto [miss_lat, v1] = h.read(5);
    EXPECT_EQ(v1, 42u);
    EXPECT_GE(miss_lat, 200u);
    EXPECT_EQ(h.router.requests, 1);

    auto [hit_lat, v2] = h.read(5);
    EXPECT_EQ(v2, 42u);
    EXPECT_EQ(hit_lat, 34u);      // L1 latency only
    EXPECT_EQ(h.router.requests, 1);  // no new LLC traffic
}

TEST(L1Cache, ConcurrentMissesMergeInMshr)
{
    L1Harness h;
    int done = 0;
    for (int i = 0; i < 4; ++i)
        h.l1.access(0, AccessType::kRead, 9, 0,
                    h.client.token([&](Cycle, std::uint64_t) { ++done; }));
    h.fabric.eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(h.router.requests, 1);
}

TEST(L1Cache, WriteIsWriteThrough)
{
    L1Harness h;
    int acks = 0;
    h.l1.access(0, AccessType::kWrite, 3, 77,
                h.client.token([&](Cycle, std::uint64_t) { ++acks; }));
    h.fabric.eq.run();
    EXPECT_EQ(acks, 1);
    EXPECT_EQ(h.fabric.store.read(3), 77u);   // reached the LLC side
    EXPECT_EQ(h.router.requests, 1);
    // No write-allocate: a read still misses.
    auto [lat, v] = h.read(3);
    EXPECT_GE(lat, 200u);
    EXPECT_EQ(v, 77u);
}

TEST(L1Cache, WriteUpdatesPresentCopy)
{
    L1Harness h;
    h.fabric.store.write(4, 1);
    h.read(4);  // now resident
    h.l1.access(h.fabric.eq.now(), AccessType::kWrite, 4, 9,
                h.client.token([](Cycle, std::uint64_t) {}));
    h.fabric.eq.run();
    auto [lat, v] = h.read(4);
    EXPECT_EQ(lat, 34u);  // still resident
    EXPECT_EQ(v, 9u);     // sees the new data
}

TEST(L1Cache, AtomicBypassesAndInvalidates)
{
    L1Harness h;
    h.fabric.store.write(6, 5);
    h.read(6);  // resident
    std::uint64_t atomic_v = 0;
    h.l1.access(h.fabric.eq.now(), AccessType::kAtomic, 6, 8,
                h.client.token([&](Cycle, std::uint64_t v) { atomic_v = v; }));
    h.fabric.eq.run();
    EXPECT_EQ(atomic_v, 8u);
    // The local copy was invalidated: next read refetches.
    const int before = h.router.requests;
    h.read(6);
    EXPECT_EQ(h.router.requests, before + 1);
}

TEST(L1Cache, MshrOverflowParksAndReplaysRequests)
{
    L1Harness h;  // 8 MSHRs
    int done = 0;
    for (LineAddr l = 0; l < 20; ++l)
        h.l1.access(0, AccessType::kRead, 100 + l, 0,
                    h.client.token([&](Cycle, std::uint64_t) { ++done; }));
    h.fabric.eq.run();
    EXPECT_EQ(done, 20);
    EXPECT_EQ(h.router.requests, 20);
}

TEST(L1Cache, AddCapacityGrowsCache)
{
    L1Harness h;
    const auto before = h.l1.capacity_bytes();
    h.l1.add_capacity(8 * 1024);
    EXPECT_EQ(h.l1.capacity_bytes(), before + 8 * 1024);
}
