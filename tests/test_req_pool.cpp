#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gpu/gpu_system.hpp"
#include "gpu/l1_cache.hpp"
#include "gpu/llc_partition.hpp"
#include "harness/system_config.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "test_util.hpp"
#include "workloads/app_catalog.hpp"
#include "workloads/synthetic_workload.hpp"

using namespace morpheus;
using namespace morpheus::test;

// Every request the miss path carries lives in one ReqPool record from
// departure to delivery. These tests check that each record is released
// exactly once (the pool drains to zero) and that each requester hears
// exactly one completion, including requests merged onto another's fetch
// at the L1 MSHRs, the LLC MSHRs and the cache-mode kernel's queue.

TEST(ReqPool, RecyclesReleasedIds)
{
    ReqPool pool;
    const ReqId a = pool.acquire(MemRequest{1, AccessType::kRead, 0, 0}, 7);
    const ReqId b = pool.acquire(MemRequest{2, AccessType::kWrite, 3, 9}, 8);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.in_flight(), 2u);
    EXPECT_EQ(pool[b].req.line, 2u);
    EXPECT_EQ(pool[b].req.requester_sm, 3u);
    EXPECT_EQ(pool[b].token, 8u);
    pool.release(a);
    EXPECT_EQ(pool.in_flight(), 1u);
    const ReqId c = pool.acquire(MemRequest{5, AccessType::kAtomic, 1, 4}, 11);
    EXPECT_EQ(c, a); // the freed record is reused
    EXPECT_EQ(pool[c].req.line, 5u);
    EXPECT_EQ(pool[c].token, 11u);
    pool.release(b);
    pool.release(c);
    EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(ReqPool, PrefetchHintsChangeNothing)
{
    ReqPool pool;
    pool.prefetch(0); // nothing handed out yet
    EXPECT_EQ(pool.in_flight(), 0u);

    const ReqId a = pool.acquire(MemRequest{1, AccessType::kRead, 0, 0}, 7);
    const ReqId last = pool.acquire(MemRequest{2, AccessType::kWrite, 3, 9}, 8);
    pool.prefetch(last);     // the last id
    pool.prefetch(last + 1); // one past it: ignored
    pool.prefetch(~ReqId{0});
    EXPECT_EQ(pool.in_flight(), 2u);
    EXPECT_EQ(pool[last].req.line, 2u);
    EXPECT_EQ(pool[last].req.write_version, 9u);
    EXPECT_EQ(pool[last].token, 8u);
    pool.release(a);
    pool.prefetch(a); // a free record
    EXPECT_EQ(pool.acquire(MemRequest{4, AccessType::kRead, 1, 0}, 2), a);
}

TEST(ReqPool, RouterAndL1HintsIgnoreOutOfRangeIndices)
{
    AppSpec spec = *find_app("p-bfs");
    spec.params.total_mem_instrs = 2'000;
    SyntheticWorkload wl(spec.params);
    GpuSystem sys(make_system(SystemKind::kBL, spec), wl);
    sys.begin_run();
    sys.prefetch_delivery(0, 42);
    sys.prefetch_delivery(sys.num_compute_sms(), 42);
    sys.prefetch_delivery(~std::uint32_t{0}, 42);
    sys.sm(0).l1().prefetch(~LineAddr{0});
    EXPECT_EQ(sys.requests().in_flight(), 0u);
    sys.advance_to(sys.setup().cfg.max_cycles);
    EXPECT_EQ(sys.requests().in_flight(), 0u);
    EXPECT_TRUE(sys.event_queue().empty());
}

namespace {

/** A catalog app cut down to a few thousand memory instructions. */
AppSpec
small_app()
{
    AppSpec spec = *find_app("p-bfs");
    spec.params.total_mem_instrs = 12'000;
    return spec;
}

/** Runs @p setup to completion, checking the pool both mid-run and after. */
void
expect_pool_drains(const SystemSetup &setup, const WorkloadParams &params)
{
    SyntheticWorkload wl(params);
    GpuSystem sys(setup, wl);
    sys.begin_run();
    sys.advance_to(3000);
    EXPECT_GT(sys.requests().in_flight(), 0u) << "no request in flight mid-run";
    sys.advance_to(setup.cfg.max_cycles);
    const RunResult r = sys.collect_results();
    ASSERT_GT(r.llc_accesses + r.ext_requests, 0u);
    EXPECT_TRUE(sys.event_queue().empty());
    EXPECT_EQ(sys.requests().in_flight(), 0u);
}

} // namespace

TEST(ReqPoolDrain, BaselineRun)
{
    const AppSpec app = small_app();
    expect_pool_drains(make_system(SystemKind::kBL, app), app.params);
}

TEST(ReqPoolDrain, MorpheusAllBloomRun)
{
    const AppSpec app = small_app();
    const SystemSetup setup = make_system(SystemKind::kMorpheusAll, app);
    ASSERT_EQ(setup.morpheus.prediction, PredictionMode::kBloom);
    expect_pool_drains(setup, app.params);
}

TEST(ReqPoolDrain, MorpheusNoPredictionRun)
{
    const AppSpec app = small_app();
    expect_pool_drains(
        make_morpheus_system(app, app.morpheus_all_sms, false, false, PredictionMode::kNone),
        app.params);
}

TEST(ReqPoolDrain, ProbesThroughTheCallbackOverload)
{
    // Figure 5's probe pattern, but with many probes in flight at once,
    // several of them to the same extended and conventional lines.
    WorkloadParams params;
    params.name = "probe";
    params.total_mem_instrs = 0;
    SyntheticWorkload wl(params);
    SystemSetup setup;
    setup.compute_sms = 42;
    setup.morpheus.enabled = true;
    setup.morpheus.cache_sms = 26;
    setup.morpheus.prediction = PredictionMode::kNone;
    GpuSystem sys(setup, wl);

    std::vector<int> completions(64, 0);
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < completions.size(); ++i) {
            const AccessType type = i % 5 == 0 ? AccessType::kWrite : AccessType::kRead;
            const std::uint64_t version = type == AccessType::kRead ? 0 : sys.store().next_version();
            const MemRequest req{static_cast<LineAddr>(i % 8), type, 0, version};
            sys.to_llc(sys.event_queue().now(), req,
                       [&completions, i](Cycle, std::uint64_t) { ++completions[i]; });
        }
        EXPECT_EQ(sys.requests().in_flight(), completions.size());
        sys.event_queue().run();
        EXPECT_EQ(sys.requests().in_flight(), 0u);
    }
    for (std::size_t i = 0; i < completions.size(); ++i)
        EXPECT_EQ(completions[i], 2) << "probe " << i;
}

TEST(ExactlyOnce, L1MshrMergedReaders)
{
    TestFabric fabric;
    FakeRouter router{fabric, 300};
    FakeL1Client client;
    L1Cache l1{0, fabric.ctx(), &client, 8 * 1024, 4, 34, 4};
    router.attach(l1);

    // Six readers of one line merge onto one fetch; ten more distinct
    // lines overflow the 4 MSHRs and replay.
    std::vector<int> seen(16, 0);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const LineAddr line = i < 6 ? 9 : 100 + i;
        l1.access(0, AccessType::kRead, line, 0,
                  client.token([&seen, i](Cycle, std::uint64_t) { ++seen[i]; }));
    }
    fabric.eq.run();
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "reader " << i;
    EXPECT_EQ(l1.mshrs().merged(), 5u);
    EXPECT_EQ(router.requests, 11);
    EXPECT_EQ(client.calls.pending(), 0u);
    EXPECT_EQ(fabric.reqs.in_flight(), 0u);
}

TEST(ExactlyOnce, LlcMshrMergedWriters)
{
    TestFabric fabric;
    FakeRouter router{fabric, 0};
    LlcPartition part{0, fabric.ctx(), 64, 8, 90, 4, 2};

    // Writers, an atomic and readers all miss on one line together: one
    // DRAM fetch, one response each.
    std::vector<int> seen(8, 0);
    std::vector<std::uint64_t> versions(8, 0);
    fabric.eq.schedule(0, [&] {
        for (std::size_t i = 0; i < seen.size(); ++i) {
            const AccessType type = i < 4   ? AccessType::kWrite
                                    : i == 4 ? AccessType::kAtomic
                                             : AccessType::kRead;
            const MemRequest req{42, type, 0, type == AccessType::kRead ? 0 : 10 + i};
            part.handle(0, router.probe(req, [&seen, &versions, i](Cycle, std::uint64_t v) {
                            ++seen[i];
                            versions[i] = v;
                        }));
        }
    });
    fabric.eq.run();
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "requester " << i;
    EXPECT_EQ(fabric.dram.reads(), 1u);
    EXPECT_EQ(versions[3], 13u);
    EXPECT_EQ(versions[4], 14u); // the atomic's RMW result
    EXPECT_EQ(router.probes.pending(), 0u);
    EXPECT_EQ(fabric.reqs.in_flight(), 0u);
}

TEST(ExactlyOnce, KernelMergedReaders)
{
    TestFabric fabric;
    FakeExtSink sink(fabric.eq);
    std::vector<std::unique_ptr<LlcPartition>> partitions;
    for (std::uint32_t p = 0; p < fabric.cfg.llc_partitions; ++p)
        partitions.push_back(std::make_unique<LlcPartition>(p, fabric.ctx(), 256, 16, 90, 4, 2));
    WorkloadParams wp;
    wp.name = "kernel-merge";
    SyntheticWorkload wl(wp);
    CacheModeSm sm(10, fabric.ctx(), ExtLlcParams{}, fabric.cfg.rf_bytes, fabric.cfg.l1_bytes,
                   &wl, &partitions);

    // Reads of a missing line, with a write among them: the write gets a
    // task of its own, and every later reader merges onto the first
    // reader's task, which has not begun service yet.
    std::vector<int> seen(7, 0);
    std::vector<bool> hits(7, false);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const AccessType type = i == 3 ? AccessType::kWrite : AccessType::kRead;
        const MemRequest req{77, type, 0, type == AccessType::kWrite ? 5u : 0u};
        sm.enqueue_request(0, 0, req, sink.done([&seen, &hits, i](Cycle, std::uint64_t, bool hit) {
                               ++seen[i];
                               hits[i] = hit;
                           }));
    }
    fabric.eq.run();
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "requester " << i;
    EXPECT_EQ(sm.merged_requests(), 5u);
    EXPECT_EQ(sm.hits() + sm.misses(), seen.size());
    EXPECT_FALSE(hits[0]);
    EXPECT_EQ(sink.calls.pending(), 0u);
}
