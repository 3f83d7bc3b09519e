#include <gtest/gtest.h>

#include "gpu/sm.hpp"
#include "test_util.hpp"
#include "workloads/synthetic_workload.hpp"

using namespace morpheus;
using namespace morpheus::test;

namespace {

WorkloadParams
tiny_params(std::uint32_t alu, std::uint32_t warps, std::uint64_t steps)
{
    WorkloadParams p;
    p.name = "sm-test";
    p.alu_per_mem = alu;
    p.lines_per_mem = 1;
    p.shared_ws_bytes = 64 * 1024;
    p.warps_per_sm = warps;
    p.total_mem_instrs = steps;
    return p;
}

} // namespace

TEST(Sm, RunsWorkloadToCompletion)
{
    TestFabric fabric;
    FakeRouter router(fabric, 100);
    SyntheticWorkload wl(tiny_params(4, 4, 200));
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &wl);
    router.attach(sm.l1());
    sm.start();
    fabric.eq.run();
    EXPECT_TRUE(sm.done());
    EXPECT_GT(sm.instructions(), 200u);  // ALU + memory instructions
    EXPECT_EQ(sm.mem_instructions(), 200u);
}

TEST(Sm, IssueWidthBoundsIpc)
{
    TestFabric fabric;
    fabric.cfg.issue_width = 4;
    FakeRouter router(fabric, 10);
    // Pure-ALU heavy: IPC should approach (but never exceed) issue width.
    SyntheticWorkload wl(tiny_params(64, 8, 400));
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &wl);
    router.attach(sm.l1());
    sm.start();
    fabric.eq.run();
    const double ipc =
        static_cast<double>(sm.instructions()) / static_cast<double>(fabric.eq.now());
    EXPECT_LE(ipc, 4.0 + 1e-9);
    EXPECT_GT(ipc, 3.0);
}

TEST(Sm, MemoryLatencyStallsLowOccupancy)
{
    // One warp, no ALU work: execution time ~ steps x memory latency when
    // credits are exhausted.
    TestFabric fabric;
    fabric.cfg.warp_mem_credits = 1;
    FakeRouter router(fabric, 500);
    WorkloadParams p = tiny_params(0, 1, 50);
    p.shared_ws_bytes = 32 << 20;  // far beyond L1: every access misses
    SyntheticWorkload wl(p);
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &wl);
    router.attach(sm.l1());
    sm.start();
    fabric.eq.run();
    EXPECT_GE(fabric.eq.now(), 50u * 500u * 9 / 10);
}

TEST(Sm, MemCreditsOverlapLatency)
{
    // Same workload with 4 credits should be ~4x faster.
    auto run_with_credits = [](std::uint32_t credits) {
        TestFabric fabric;
        fabric.cfg.warp_mem_credits = credits;
        FakeRouter router(fabric, 500);
        SyntheticWorkload wl(tiny_params(0, 1, 64));
        wl.configure(1);
        Sm sm(0, fabric.ctx(), &wl);
        router.attach(sm.l1());
        sm.start();
        fabric.eq.run();
        return fabric.eq.now();
    };
    const Cycle t1 = run_with_credits(1);
    const Cycle t4 = run_with_credits(4);
    EXPECT_LT(static_cast<double>(t4), static_cast<double>(t1) * 0.4);
}

TEST(Sm, MoreWarpsHideLatency)
{
    auto run_with_warps = [](std::uint32_t warps) {
        TestFabric fabric;
        FakeRouter router(fabric, 400);
        SyntheticWorkload wl(tiny_params(2, warps, 256));
        wl.configure(1);
        Sm sm(0, fabric.ctx(), &wl);
        router.attach(sm.l1());
        sm.start();
        fabric.eq.run();
        return fabric.eq.now();
    };
    EXPECT_LT(run_with_warps(16), run_with_warps(2));
}

TEST(Sm, NonBlockingWritesDoNotStall)
{
    TestFabric fabric;
    fabric.cfg.blocking_writes = false;
    FakeRouter router(fabric, 800);
    WorkloadParams p = tiny_params(0, 1, 64);
    p.write_frac = 1.0;  // all stores
    SyntheticWorkload wl(p);
    wl.configure(1);
    Sm sm(0, fabric.ctx(), &wl);
    router.attach(sm.l1());
    sm.start();
    fabric.eq.run();
    // Fire-and-forget stores: far faster than 64 x 800 cycles.
    EXPECT_LT(fabric.eq.now(), 64u * 800u / 4);
}

namespace {

/** Two warps with exactly one single-line read step each. */
class TwoWarpWorkload : public Workload
{
  public:
    const WorkloadInfo &info() const override { return info_; }
    void configure(std::uint32_t) override {}
    std::uint32_t warps_on(std::uint32_t) const override { return 2; }

    bool
    next_step(std::uint32_t, std::uint32_t warp, WarpStep &out) override
    {
        if (done_[warp])
            return false;
        done_[warp] = true;
        out = WarpStep{};
        out.num_lines = 1;
        out.lines[0] = 0x1000 + warp; // distinct lines, distinct sets
        out.type = AccessType::kRead;
        return true;
    }

    Block synthesize_block(LineAddr) const override { return Block{}; }

  private:
    WorkloadInfo info_{"two-warp", true};
    bool done_[2] = {false, false};
};

} // namespace

TEST(Sm, NoDuplicateIssueEventForWarpsLaunchedAtCycleZero)
{
    // Regression: schedule_issue() used `issue_event_at_ != 0` as its
    // "nothing armed" sentinel, but cycle 0 is a valid schedule time — an
    // event armed AT cycle 0 was indistinguishable from none, so a second
    // completion in the same cycle armed a duplicate issue event.
    //
    // Find an SM index whose warps 0 and 1 both get a zero launch stagger
    // (mix64(index * 131 + w) % 512 == 0): with a zero-latency L1 and
    // router, both warps then issue AND complete their memory step at
    // cycle 0.
    std::uint32_t index = 0;
    bool found = false;
    for (std::uint64_t i = 0; i < 2'000'000; ++i) {
        if (mix64(i * 131) % 512 == 0 && mix64(i * 131 + 1) % 512 == 0) {
            index = static_cast<std::uint32_t>(i);
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "no SM index with two zero-stagger warps in range";

    TestFabric fabric;
    fabric.cfg.l1_latency = 0;
    fabric.cfg.warp_mem_credits = 1;
    FakeRouter router(fabric, 0);
    TwoWarpWorkload wl;
    Sm sm(index, fabric.ctx(), &wl);
    router.attach(sm.l1());
    sm.start();
    fabric.eq.run();

    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.mem_instructions(), 2u);
    // Exactly two issue events: the one armed by start() (which issues
    // both warps), and ONE armed by the two same-cycle completions — the
    // second completion must be suppressed by the pending-event guard.
    EXPECT_EQ(sm.issue_events(), 2u);
}
