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
    FakeExtSink sink{fabric.eq};
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

TEST(CacheModeSm, BurstsCompleteInPerSetFifoOrderAndRepeatAfterDrain)
{
    CacheSmHarness h;
    const std::vector<std::uint32_t> sets{0, 7, 33};
    // Lines 0 and 2 of each set are resident, so every request hits and a
    // repeated burst sees the same set contents.
    const auto line = [](std::uint32_t set, LineAddr k) { return 100 * LineAddr{set} + k; };
    for (std::uint32_t s : sets) {
        h.fabric.store.write(line(s, 0), 7);
        h.request(s, line(s, 0), AccessType::kRead);
        h.request(s, line(s, 2), AccessType::kRead);
    }

    struct Done
    {
        std::uint32_t set;
        int op;
        Cycle latency;
        std::uint64_t version;
        bool hit;
    };
    // Per set, in enqueue order: read 0, insert 1, read 0 (merges onto the
    // first read), write 2, read 2 (behind the write: a task of its own),
    // read 0 and read 2 (each merges onto the last same-line read task).
    // The three sets' ops interleave.
    const auto burst = [&] {
        std::vector<Done> log;
        const Cycle start = h.fabric.eq.now();
        for (int op = 0; op < 7; ++op) {
            for (std::uint32_t s : sets) {
                if (op == 1) {
                    h.sm->enqueue_insert(start, s, line(s, 1), 3, false);
                    continue;
                }
                const LineAddr k = (op == 0 || op == 2 || op == 5) ? 0 : 2;
                const AccessType type = op == 3 ? AccessType::kWrite : AccessType::kRead;
                const MemRequest req{line(s, k), type, 0, op == 3 ? 11u : 0u};
                h.sm->enqueue_request(
                    start, s, req,
                    h.sink.done([&log, s, op, start](Cycle t, std::uint64_t v, bool hit) {
                        log.push_back(Done{s, op, t - start, v, hit});
                    }));
            }
        }
        h.fabric.eq.run();
        return log;
    };

    const std::uint64_t merged_before = h.sm->merged_requests();
    const std::vector<Done> first = burst();
    EXPECT_EQ(h.sm->merged_requests() - merged_before, 3 * sets.size());
    ASSERT_EQ(first.size(), 6 * sets.size());
    for (std::uint32_t s : sets) {
        std::vector<int> order;
        Cycle last = 0;
        for (const Done &d : first) {
            if (d.set != s)
                continue;
            order.push_back(d.op);
            EXPECT_TRUE(d.hit) << "set " << s << " op " << d.op;
            EXPECT_EQ(d.version, (d.op == 0 || d.op == 2 || d.op == 5) ? 7u : 11u);
            EXPECT_GE(d.latency, last);
            last = d.latency;
        }
        // Merged readers complete with their task, in arrival order.
        EXPECT_EQ(order, (std::vector<int>{0, 2, 5, 3, 4, 6})) << "set " << s;
    }

    // The queues have drained; the same burst again completes the same
    // way, on recycled queue storage.
    const std::vector<Done> second = burst();
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].set, first[i].set) << i;
        EXPECT_EQ(second[i].op, first[i].op) << i;
        EXPECT_EQ(second[i].latency, first[i].latency) << i;
        EXPECT_EQ(second[i].version, first[i].version) << i;
        EXPECT_EQ(second[i].hit, first[i].hit) << i;
    }
    EXPECT_EQ(h.sink.calls.pending(), 0u);
}
