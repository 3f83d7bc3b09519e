#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "gpu/gpu_system.hpp"
#include "harness/runner.hpp"
#include "morpheus/morpheus_controller.hpp"
#include "sim/state_io.hpp"
#include "workloads/synthetic_workload.hpp"

using namespace morpheus;

namespace {

WorkloadParams
tiny()
{
    WorkloadParams p;
    p.name = "misc";
    p.shared_ws_bytes = 2 << 20;
    p.warps_per_sm = 8;
    p.total_mem_instrs = 4'000;
    return p;
}

/** A run long enough to cross many advance_to() windows. */
WorkloadParams
small_app(const char *name)
{
    WorkloadParams p;
    p.name = name;
    p.pattern = PatternKind::kPrivateLoop;
    p.alu_per_mem = 4;
    p.shared_ws_bytes = 1 << 20;
    p.per_warp_ws_bytes = 4 * 1024;
    p.reuse_frac = 0.3;
    p.hot_frac = 0.4;
    p.warps_per_sm = 16;
    p.write_frac = 0.2;
    p.total_mem_instrs = 30'000;
    return p;
}

SystemSetup
baseline_setup()
{
    SystemSetup s;
    s.compute_sms = 8;
    return s;
}

SystemSetup
morpheus_setup()
{
    SystemSetup s = baseline_setup();
    s.morpheus.enabled = true;
    s.morpheus.cache_sms = 4;
    s.morpheus.prediction = PredictionMode::kBloom;
    return s;
}

std::string
result_bytes(const RunResult &r)
{
    StateWriter w;
    RunResult copy = r;
    copy.state(w);
    return w.bytes();
}

} // namespace

TEST(GpuSystemMisc, FrequencyBoostImprovesMemoryBoundRuntime)
{
    WorkloadParams p = tiny();
    p.shared_ws_bytes = 16 << 20;
    p.total_mem_instrs = 20'000;
    SyntheticWorkload wl1(p);
    SyntheticWorkload wl2(p);
    SystemSetup base;
    base.compute_sms = 32;
    SystemSetup boost = base;
    boost.cfg.mem_frequency_scale = 1.2;
    GpuSystem s1(base, wl1);
    GpuSystem s2(boost, wl2);
    EXPECT_LT(s2.run().cycles, s1.run().cycles);
}

TEST(GpuSystemMisc, UnifiedSmMemBonusRaisesL1HitRate)
{
    WorkloadParams p = tiny();
    p.reuse_frac = 0.6;
    p.hot_frac = 0.1;   // hot region ~200 KiB: fits only the boosted L1
    p.total_mem_instrs = 20'000;
    SyntheticWorkload wl1(p);
    SyntheticWorkload wl2(p);
    SystemSetup base;
    base.compute_sms = 8;
    SystemSetup unified = base;
    unified.l1_bonus_bytes = 140 * 1024;
    GpuSystem s1(base, wl1);
    GpuSystem s2(unified, wl2);
    const RunResult r1 = s1.run();
    const RunResult r2 = s2.run();
    const double hit1 = static_cast<double>(r1.l1_hits) / (r1.l1_hits + r1.l1_misses);
    const double hit2 = static_cast<double>(r2.l1_hits) / (r2.l1_hits + r2.l1_misses);
    EXPECT_GT(hit2, hit1);
}

TEST(GpuSystemMisc, MaxCyclesGuardStopsRunaway)
{
    WorkloadParams p = tiny();
    p.total_mem_instrs = 500'000;
    SyntheticWorkload wl(p);
    SystemSetup setup;
    setup.compute_sms = 2;
    setup.cfg.max_cycles = 5'000;
    GpuSystem sys(setup, wl);
    const RunResult r = sys.run();
    EXPECT_LE(r.cycles, 6'000u);
}

TEST(GpuSystemMisc, ControllerAccessorsExposeState)
{
    SyntheticWorkload wl(tiny());
    SystemSetup setup;
    setup.compute_sms = 4;
    setup.morpheus.enabled = true;
    setup.morpheus.cache_sms = 4;
    GpuSystem sys(setup, wl);
    EXPECT_NE(sys.extended_llc(), nullptr);
    EXPECT_NE(sys.controller(0), nullptr);
    EXPECT_EQ(sys.num_partitions(), 10u);
    EXPECT_EQ(sys.num_compute_sms(), 4u);
    EXPECT_TRUE(sys.extended_llc()->enabled());
}

TEST(GpuSystemMisc, MorpheusDisabledHasNoControllers)
{
    SyntheticWorkload wl(tiny());
    SystemSetup setup;
    setup.compute_sms = 4;
    GpuSystem sys(setup, wl);
    EXPECT_EQ(sys.extended_llc(), nullptr);
    EXPECT_EQ(sys.controller(0), nullptr);
}

TEST(StepwiseRun, ChunkedRunMatchesUnchunked)
{
    // begin_run() + advance_to() in fixed windows + collect_results() must
    // be bit-identical to one run(): perfbench's traced runs sample the
    // event loop between windows and count a differing result as failed.
    for (const SystemSetup &setup : {baseline_setup(), morpheus_setup()}) {
        const WorkloadParams p = small_app("chunked");
        const RunResult plain = run_setup(setup, p);

        SyntheticWorkload workload(p);
        GpuSystem sys(setup, workload);
        sys.begin_run();
        const Cycle target = setup.cfg.max_cycles;
        std::size_t windows = 0;
        for (Cycle boundary = 1'000;; boundary += 1'000) {
            const Cycle stop = std::min(boundary, target);
            sys.advance_to(stop);
            ++windows;
            if (sys.event_queue().empty() || stop == target)
                break;
        }
        EXPECT_GT(windows, 1u);
        EXPECT_EQ(result_bytes(sys.collect_results()), result_bytes(plain));
    }
}
