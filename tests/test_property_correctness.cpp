#include <gtest/gtest.h>

#include <unordered_map>

#include "gpu/gpu_system.hpp"
#include "morpheus/morpheus_controller.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "workloads/synthetic_workload.hpp"

using namespace morpheus;

namespace {

/**
 * End-to-end read-your-writes property: drive random read/write/atomic
 * traffic through the FULL hierarchy (L1 -> NoC -> Morpheus controller ->
 * conventional LLC / extended LLC / DRAM) from a single logical client,
 * with each access issued only after the previous completed, and assert
 * that every read returns the version of the latest write to that line.
 *
 * This is exactly the correctness property the paper's predictor design
 * protects: one false negative on a dirty extended-LLC line would surface
 * here as a stale (smaller) version from DRAM.
 */
struct CorrectnessRig
{
    WorkloadParams params;
    SyntheticWorkload workload{[] {
        WorkloadParams p;
        p.name = "correctness";
        p.total_mem_instrs = 0;
        return p;
    }()};
    std::unique_ptr<GpuSystem> sys;

    explicit CorrectnessRig(bool morpheus_on, PredictionMode mode, bool compression)
    {
        SystemSetup setup;
        setup.compute_sms = 4;
        setup.cfg.blocking_writes = true;
        setup.morpheus.enabled = morpheus_on;
        setup.morpheus.cache_sms = morpheus_on ? 6 : 0;
        setup.morpheus.prediction = mode;
        setup.morpheus.kernel.compression = compression;
        sys = std::make_unique<GpuSystem>(setup, workload);
    }

    std::uint64_t
    access(LineAddr line, AccessType type)
    {
        std::uint64_t seen = 0;
        std::uint64_t wv = 0;
        if (type != AccessType::kRead)
            wv = sys->store().next_version();
        MemRequest req{line, type, 0, wv};
        sys->to_llc(sys->event_queue().now(), req,
                    [&](Cycle, std::uint64_t v) { seen = v; });
        sys->event_queue().run();
        return type == AccessType::kRead ? seen : wv;
    }

    void
    run_random_traffic(std::uint64_t seed, int steps, std::uint64_t footprint_lines)
    {
        Rng rng(seed);
        std::unordered_map<LineAddr, std::uint64_t> expected;
        for (int i = 0; i < steps; ++i) {
            const LineAddr line = rng.next_below(footprint_lines);
            const double roll = rng.next_double();
            if (roll < 0.35) {
                const std::uint64_t v = access(line, AccessType::kWrite);
                expected[line] = v;
            } else if (roll < 0.45) {
                const std::uint64_t v = access(line, AccessType::kAtomic);
                expected[line] = v;
            } else {
                const std::uint64_t seen = access(line, AccessType::kRead);
                const auto it = expected.find(line);
                const std::uint64_t want = it == expected.end() ? 0 : it->second;
                ASSERT_EQ(seen, want)
                    << "stale data for line " << line << " at step " << i;
            }
        }
    }
};

struct Config
{
    const char *name;
    bool morpheus;
    PredictionMode mode;
    bool compression;
};

class ReadYourWrites : public ::testing::TestWithParam<Config>
{
};

} // namespace

TEST_P(ReadYourWrites, RandomTrafficNeverReturnsStaleData)
{
    const Config &cfg = GetParam();
    CorrectnessRig rig(cfg.morpheus, cfg.mode, cfg.compression);
    // Footprint sized to force constant eviction/refill churn through
    // every structure, including dirty writebacks from the extended LLC.
    rig.run_random_traffic(0xC0FFEE, 2500, 3000);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReadYourWrites,
    ::testing::Values(Config{"conventional", false, PredictionMode::kBloom, false},
                      Config{"morpheus_bloom", true, PredictionMode::kBloom, false},
                      Config{"morpheus_bloom_comp", true, PredictionMode::kBloom, true},
                      Config{"morpheus_nopred", true, PredictionMode::kNone, false},
                      Config{"morpheus_perfect", true, PredictionMode::kPerfect, true}),
    [](const ::testing::TestParamInfo<Config> &info) { return info.param.name; });

TEST(ReadYourWritesTiny, SmallFootprintStressesExtendedSets)
{
    // A tiny footprint hammers few extended sets, exercising the BF1/BF2
    // swap machinery many times over.
    CorrectnessRig rig(true, PredictionMode::kBloom, true);
    rig.run_random_traffic(0xBEEF, 2000, 64);
}

TEST(ReadYourWritesSeeds, MultipleSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        CorrectnessRig rig(true, PredictionMode::kBloom, false);
        rig.run_random_traffic(seed, 800, 1500);
    }
}

TEST(PredictedMissWritePropagation, SequentialWriteThenReadOnExtendedLines)
{
    // The predicted-miss fast path answers from DRAM and only *queues*
    // the (possibly dirty) block for insertion. A read issued after a
    // write to the same extended line must still observe the written
    // version: the insert task is queued on the same warp-set FIFO as the
    // read, so it installs before the read is served.
    CorrectnessRig rig(true, PredictionMode::kBloom, false);
    ExtendedLlc *ext = rig.sys->extended_llc();

    int covered = 0;
    for (LineAddr line = 0; line < 6000 && covered < 64; ++line) {
        if (!ext->is_extended(line))
            continue;
        ++covered;
        const std::uint64_t written = rig.access(line, AccessType::kWrite);
        const std::uint64_t seen = rig.access(line, AccessType::kRead);
        ASSERT_EQ(seen, written) << "stale read after write to extended line " << line;
    }
    ASSERT_GT(covered, 0);
}

TEST(PredictedMissWritePropagation, DirtyBlockBypassingTheSetReachesMemory)
{
    // Regression: a dirty insertion that finds no compatible slot
    // bypasses the extended set; its version is the only up-to-date copy
    // and must be written back, or the next fetch serves the stale
    // pre-write data. A 32-byte L1-backed set (smaller than one line)
    // bypasses every insertion.
    test::TestFabric fabric;
    std::vector<std::unique_ptr<LlcPartition>> partitions;
    for (std::uint32_t p = 0; p < fabric.cfg.llc_partitions; ++p) {
        partitions.push_back(
            std::make_unique<LlcPartition>(p, fabric.ctx(), 256, 16, 90, 4, 2));
    }
    WorkloadParams wp;
    wp.name = "bypass-test";
    SyntheticWorkload wl(wp);
    ExtLlcParams params;
    params.rf_warps = 0;
    params.l1_warps = 1;
    params.smem_warps = 0;
    CacheModeSm sm(10, fabric.ctx(), params, fabric.cfg.rf_bytes, /*l1_bytes=*/32, &wl,
                   &partitions);
    ASSERT_EQ(sm.set_max_blocks(0), 0u) << "set unexpectedly fits a block";

    // The controller's predicted-miss write path: respond immediately,
    // queue the dirty block for insertion.
    const LineAddr line = 5;
    const std::uint64_t version = 7;
    sm.enqueue_insert(fabric.eq.now(), 0, line, version, /*dirty=*/true);
    fabric.eq.run();

    EXPECT_EQ(fabric.store.read(line), version)
        << "dirty bypassed block never reached the backing store";

    // And a subsequent read (a predictor false positive on the bypassed
    // line) must fetch the written version, not the pre-write one.
    std::uint64_t seen = ~0ull;
    MemRequest req{line, AccessType::kRead, 0, 0};
    test::FakeExtSink sink(fabric.eq);
    sm.enqueue_request(fabric.eq.now(), 0, req,
                       sink.done([&](Cycle, std::uint64_t v, bool) { seen = v; }));
    fabric.eq.run();
    EXPECT_EQ(seen, version);
}
