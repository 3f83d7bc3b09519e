#include <gtest/gtest.h>

#include <memory>

#include "gpu/llc_partition.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "test_util.hpp"
#include "workloads/synthetic_workload.hpp"

using namespace morpheus;
using namespace morpheus::test;

namespace {

struct CacheSmHarness
{
    TestFabric fabric;
    FakeExtSink sink;
    std::vector<std::unique_ptr<LlcPartition>> partitions;
    WorkloadParams wl_params;
    std::unique_ptr<SyntheticWorkload> workload;
    std::unique_ptr<CacheModeSm> sm;

    explicit CacheSmHarness(const ExtLlcParams &params = {})
    {
        for (std::uint32_t p = 0; p < fabric.cfg.llc_partitions; ++p) {
            partitions.push_back(std::make_unique<LlcPartition>(
                p, fabric.ctx(), 256, 16, 90, 4, 2));
        }
        wl_params.name = "cache-sm-test";
        workload = std::make_unique<SyntheticWorkload>(wl_params);
        sm = std::make_unique<CacheModeSm>(10, fabric.ctx(), params, fabric.cfg.rf_bytes,
                                           fabric.cfg.l1_bytes, workload.get(), &partitions);
    }

    /** Runs one request to completion. */
    struct Outcome
    {
        Cycle latency;
        std::uint64_t version;
        bool hit;
    };

    Outcome
    request(std::uint32_t set, LineAddr line, AccessType type, std::uint64_t wversion = 0)
    {
        Outcome out{};
        const Cycle start = fabric.eq.now();
        MemRequest req{line, type, 0, wversion};
        sm->enqueue_request(start, set, req, sink.done([&](Cycle t, std::uint64_t v, bool hit) {
                                out.latency = t - start;
                                out.version = v;
                                out.hit = hit;
                            }));
        fabric.eq.run();
        return out;
    }
};

} // namespace

TEST(CacheModeSm, BuildsPaperCombinedConfiguration)
{
    CacheSmHarness h;
    EXPECT_EQ(h.sm->num_sets(), 48u);  // 32 RF + 16 L1
    EXPECT_EQ(h.sm->set_storage(0), ExtStorage::kRegisterFile);
    EXPECT_EQ(h.sm->set_storage(32), ExtStorage::kL1);
    EXPECT_NEAR(static_cast<double>(h.sm->total_capacity_bytes()) / 1024.0, 328.0, 8.0);
}

TEST(CacheModeSm, MissFetchesFromDramInsertsAndResponds)
{
    CacheSmHarness h;
    h.fabric.store.write(77, 4);
    const auto out = h.request(0, 77, AccessType::kRead);
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(out.version, 4u);
    EXPECT_GT(out.latency, 400u);  // DRAM round trip
    EXPECT_TRUE(h.sm->contains(0, 77));
    EXPECT_EQ(h.sm->misses(), 1u);
}

TEST(CacheModeSm, HitServesFromRegisterFileQuickly)
{
    CacheSmHarness h;
    h.request(0, 77, AccessType::kRead);  // fill
    const auto out = h.request(0, 77, AccessType::kRead);
    EXPECT_TRUE(out.hit);
    EXPECT_LT(out.latency, 200u);
    EXPECT_EQ(h.sm->hits(), 1u);
}

TEST(CacheModeSm, WriteMissAllocatesDirtyAndWritebackOnEviction)
{
    CacheSmHarness h;
    const auto out = h.request(0, 5, AccessType::kWrite, 42);
    EXPECT_EQ(out.version, 42u);
    EXPECT_EQ(h.fabric.store.read(5), 0u);  // dirty in the extended LLC
    // Flood the set until line 5 is evicted; its version must land in DRAM.
    const std::uint32_t cap = h.sm->set_max_blocks(0);
    for (LineAddr l = 100; l < 100 + 2 * cap; ++l)
        h.request(0, l, AccessType::kRead);
    EXPECT_EQ(h.fabric.store.read(5), 42u);
}

TEST(CacheModeSm, InsertTaskInstallsBlock)
{
    CacheSmHarness h;
    h.sm->enqueue_insert(0, 3, 123, 9, false);
    h.fabric.eq.run();
    EXPECT_TRUE(h.sm->contains(3, 123));
    EXPECT_EQ(h.sm->insert_tasks(), 1u);
}

TEST(CacheModeSm, AtomicReadModifyWrite)
{
    CacheSmHarness h;
    h.fabric.store.write(8, 3);
    const auto out1 = h.request(1, 8, AccessType::kAtomic, 10);
    EXPECT_EQ(out1.version, 10u);
    const auto out2 = h.request(1, 8, AccessType::kAtomic, 12);
    EXPECT_TRUE(out2.hit);
    EXPECT_EQ(out2.version, 12u);
}

TEST(CacheModeSm, WarpServesOneRequestAtATime)
{
    CacheSmHarness h;
    h.request(0, 1, AccessType::kRead);
    h.request(0, 2, AccessType::kRead);
    // Two back-to-back hits to the SAME set serialize; a hit to another
    // set overlaps.
    Cycle done_same_1 = 0;
    Cycle done_same_2 = 0;
    Cycle start = h.fabric.eq.now();
    MemRequest r1{1, AccessType::kRead, 0, 0};
    MemRequest r2{2, AccessType::kRead, 0, 0};
    h.sm->enqueue_request(start, 0, r1,
                          h.sink.done([&](Cycle t, std::uint64_t, bool) { done_same_1 = t; }));
    h.sm->enqueue_request(start, 0, r2,
                          h.sink.done([&](Cycle t, std::uint64_t, bool) { done_same_2 = t; }));
    h.fabric.eq.run();
    EXPECT_GT(done_same_2 - start, done_same_1 - start);
}

TEST(CacheModeSm, SameLineReadsMergeInQueue)
{
    CacheSmHarness h;
    h.request(0, 9, AccessType::kRead);  // make it resident
    const Cycle start = h.fabric.eq.now();
    int done = 0;
    MemRequest req{9, AccessType::kRead, 0, 0};
    for (int i = 0; i < 4; ++i)
        h.sm->enqueue_request(start, 0, req,
                              h.sink.done([&](Cycle, std::uint64_t, bool) { ++done; }));
    h.fabric.eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(h.sm->merged_requests(), 3u);
}

TEST(CacheModeSm, L1StorageSetsWork)
{
    CacheSmHarness h;
    const auto miss = h.request(32, 55, AccessType::kRead);  // L1-backed set
    EXPECT_FALSE(miss.hit);
    const auto hit = h.request(32, 55, AccessType::kRead);
    EXPECT_TRUE(hit.hit);
    // L1 access latency exceeds the RF path.
    const auto rf_hit = [&] {
        h.request(0, 66, AccessType::kRead);
        return h.request(0, 66, AccessType::kRead);
    }();
    EXPECT_GT(hit.latency, rf_hit.latency);
}

TEST(CacheModeSm, CompressionRaisesEffectiveCapacity)
{
    ExtLlcParams comp;
    comp.compression = true;
    CacheSmHarness plain;
    CacheSmHarness packed(comp);
    // Same footprint of highly compressible lines (the profile defaults
    // produce a mix; capacity must not shrink and typically grows).
    const std::uint32_t plain_cap = plain.sm->set_max_blocks(0);
    const std::uint32_t packed_cap = packed.sm->set_max_blocks(0);
    EXPECT_GT(packed_cap, plain_cap);
}
