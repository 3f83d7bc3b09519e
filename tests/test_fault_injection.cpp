#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "harness/fault_plan.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/sweep_engine.hpp"
#include "sim/state_io.hpp"

using namespace morpheus;

namespace {

WorkloadParams
tiny_app(const char *name)
{
    WorkloadParams p;
    p.name = name;
    p.pattern = PatternKind::kPrivateLoop;
    p.alu_per_mem = 4;
    p.shared_ws_bytes = 1 << 20;
    p.per_warp_ws_bytes = 4 * 1024;
    p.warps_per_sm = 8;
    p.total_mem_instrs = 8'000;
    return p;
}

/** Four small jobs with distinct shapes (labels j0..j3). */
void
queue_jobs(SweepEngine &engine)
{
    for (std::uint32_t i = 0; i < 4; ++i) {
        SystemSetup setup;
        setup.compute_sms = 4 + 2 * i;
        std::string label = "j";
        label += std::to_string(i);
        engine.add(setup, tiny_app(label.c_str()), label);
    }
}

FaultPlan
plan(const std::string &spec)
{
    FaultPlan p;
    std::string error;
    EXPECT_TRUE(parse_fault_plan(spec, p, error)) << error;
    return p;
}

/** A run long enough to cross many event-loop windows. */
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
    SystemSetup s;
    s.compute_sms = 8;
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

// ---------------------------------------------------------------------------
// FaultPlan grammar

TEST(FaultPlan, ParsesNoneAndEmpty)
{
    FaultPlan p;
    std::string error;
    ASSERT_TRUE(parse_fault_plan("none", p, error));
    EXPECT_FALSE(p.active());
    ASSERT_TRUE(parse_fault_plan("", p, error));
    EXPECT_FALSE(p.active());
}

TEST(FaultPlan, ParsesThrowAtRun)
{
    const FaultPlan p = plan("throw@run=2,cycle=5000,times=3");
    EXPECT_EQ(p.action, RunFault::kThrow);
    EXPECT_FALSE(p.by_seed);
    EXPECT_EQ(p.run_index, 2u);
    EXPECT_EQ(p.cycle, 5'000u);
    EXPECT_EQ(p.times, 3u);
    EXPECT_EQ(p.resolve_index(10), 2u);
    EXPECT_EQ(p.resolve_index(2), 0u); // modulo the job count
}

TEST(FaultPlan, ParsesHangAndAbort)
{
    EXPECT_EQ(plan("hang@run=0").action, RunFault::kHang);
    EXPECT_EQ(plan("abort@run=1").action, RunFault::kAbort);
    EXPECT_EQ(plan("hang@run=0").times, 1u);
    EXPECT_EQ(plan("hang@run=0").cycle, 0u);
}

TEST(FaultPlan, SeedVariantIsDeterministic)
{
    const FaultPlan p = plan("throw@seed=42");
    EXPECT_TRUE(p.by_seed);
    const std::size_t idx = p.resolve_index(7);
    EXPECT_LT(idx, 7u);
    EXPECT_EQ(idx, plan("throw@seed=42").resolve_index(7));
    // Different seeds spread over different indices (not a proof, a smoke
    // check over enough seeds to make collision-on-all astronomically
    // unlikely).
    bool differs = false;
    for (std::uint64_t s = 0; s < 32 && !differs; ++s)
        differs = plan("throw@seed=" + std::to_string(s)).resolve_index(7) != idx;
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    FaultPlan p;
    std::string error;
    EXPECT_FALSE(parse_fault_plan("explode@run=1", p, error));
    EXPECT_FALSE(parse_fault_plan("throw", p, error));
    EXPECT_FALSE(parse_fault_plan("throw@", p, error));
    EXPECT_FALSE(parse_fault_plan("throw@cycle=5", p, error)); // no target
    EXPECT_FALSE(parse_fault_plan("throw@run=1,seed=2", p, error));
    EXPECT_FALSE(parse_fault_plan("throw@run=x", p, error));
    EXPECT_FALSE(parse_fault_plan("throw@run=1,times=0", p, error));
    EXPECT_FALSE(parse_fault_plan("throw@run=1,bogus=2", p, error));
}

// ---------------------------------------------------------------------------
// Fault-tolerant SweepEngine

TEST(FaultInjection, TolerantSweepDegradesFailedJob)
{
    SweepEngine engine(2);
    RunReport report("drill");
    engine.set_report(&report);
    SweepConfig cfg;
    cfg.fault = plan("throw@run=2,times=99"); // exceeds any retry budget
    cfg.retries = 1;
    cfg.tolerant = true;
    engine.set_config(cfg);
    queue_jobs(engine);

    const auto results = engine.run_all(); // must not throw
    ASSERT_EQ(results.size(), 4u);
    ASSERT_EQ(report.entries().size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(results[i].label, "j" + std::to_string(i));
        EXPECT_EQ(report.entries()[i].label, results[i].label);
    }
    EXPECT_TRUE(report.has_failures());
    EXPECT_FALSE(report.entries()[2].ok());
    EXPECT_NE(report.entries()[2].error.find("injected"), std::string::npos);
    EXPECT_EQ(results[2].value.cycles, 0u); // positional slot holds a default
    for (std::size_t i : {0u, 1u, 3u}) {
        EXPECT_TRUE(report.entries()[i].ok());
        EXPECT_GT(results[i].value.cycles, 0u);
    }
}

TEST(FaultInjection, NonTolerantSweepRethrows)
{
    SweepEngine engine(2);
    SweepConfig cfg;
    cfg.fault = plan("throw@run=1,times=99");
    cfg.retries = 0;
    engine.set_config(cfg);
    queue_jobs(engine);
    EXPECT_THROW(engine.run_all(), InjectedFault);
}

TEST(FaultInjection, RetryRecoveryIsByteIdentical)
{
    SweepEngine clean(2);
    queue_jobs(clean);
    const auto expect = clean.run_all();

    SweepEngine faulty(2);
    SweepConfig cfg;
    cfg.fault = plan("throw@run=1,times=1"); // one failed attempt, then fine
    cfg.retries = 1;
    faulty.set_config(cfg);
    queue_jobs(faulty);
    const auto got = faulty.run_all();

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(run_results_identical(got[i].value, expect[i].value)) << "job " << i;
}

TEST(FaultInjection, InRunFaultRecoveryIsByteIdentical)
{
    SweepEngine clean(2);
    queue_jobs(clean);
    const auto expect = clean.run_all();

    SweepEngine faulty(2);
    SweepConfig cfg;
    cfg.fault = plan("throw@run=3,cycle=2000,times=1"); // dies mid-simulation
    cfg.retries = 1;
    faulty.set_config(cfg);
    queue_jobs(faulty);
    const auto got = faulty.run_all();

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(run_results_identical(got[i].value, expect[i].value)) << "job " << i;
}

TEST(FaultInjection, WatchdogRecoversHangingJob)
{
    SweepEngine clean(2);
    queue_jobs(clean);
    const auto expect = clean.run_all();

    SweepEngine faulty(2);
    SweepConfig cfg;
    cfg.fault = plan("hang@run=0,times=1");
    cfg.timeout_ms = 200;
    cfg.retries = 1;
    faulty.set_config(cfg);
    queue_jobs(faulty);
    const auto got = faulty.run_all(); // watchdog cancels the hang; retry succeeds

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(run_results_identical(got[i].value, expect[i].value)) << "job " << i;
}

TEST(FaultInjection, WatchdogTimesOutPermanentHang)
{
    SweepEngine engine(2);
    RunReport report("drill");
    engine.set_report(&report);
    SweepConfig cfg;
    cfg.fault = plan("hang@run=0,times=99");
    cfg.timeout_ms = 150;
    cfg.retries = 0;
    cfg.tolerant = true;
    engine.set_config(cfg);
    queue_jobs(engine);

    const auto results = engine.run_all();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(report.entries()[0].ok());
    EXPECT_NE(report.entries()[0].error.find("timed out"), std::string::npos)
        << report.entries()[0].error;
    for (std::size_t i : {1u, 2u, 3u})
        EXPECT_TRUE(report.entries()[i].ok());
}

TEST(FaultInjection, JobsOneVsManyIdenticalUnderFaults)
{
    auto run_with_jobs = [](unsigned jobs) {
        SweepEngine engine(jobs);
        RunReport report("drill");
        engine.set_report(&report);
        SweepConfig cfg;
        cfg.fault = plan("throw@run=2,times=99");
        cfg.retries = 1;
        cfg.tolerant = true;
        engine.set_config(cfg);
        queue_jobs(engine);
        engine.run_all();
        return report;
    };
    const RunReport serial = run_with_jobs(1);
    const RunReport parallel = run_with_jobs(4);
    EXPECT_TRUE(reports_identical(serial, parallel));
}

// ---------------------------------------------------------------------------
// RunControls and stepwise execution

TEST(RunControls, DefaultControlsMatchPlainRun)
{
    const SystemSetup setup = morpheus_setup();
    const WorkloadParams p = small_app("controls");
    const RunResult plain = run_setup(setup, p);
    const RunResult controlled = run_setup_controlled(setup, p, RunControls{});
    EXPECT_EQ(result_bytes(plain), result_bytes(controlled));
}

TEST(RunControls, CancellationThrows)
{
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("cancel");
    std::atomic<bool> cancel{true};
    RunControls rc;
    rc.cancel = &cancel;
    EXPECT_THROW(run_setup_controlled(setup, p, rc), SimulationCancelled);
}

TEST(RunControls, InjectedThrowFaultFires)
{
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("fault");
    RunControls rc;
    rc.fault = RunFault::kThrow;
    rc.fault_cycle = 1'000;
    EXPECT_THROW(run_setup_controlled(setup, p, rc), InjectedFault);
}

TEST(RunControls, DisarmedFaultPlanIsHarmless)
{
    // fault == kNone must not schedule anything, whatever fault_cycle says.
    const SystemSetup setup = baseline_setup();
    const WorkloadParams p = small_app("fault-none");
    const RunResult plain = run_setup(setup, p);
    RunControls rc;
    rc.fault = RunFault::kNone;
    rc.fault_cycle = 1'000;
    EXPECT_EQ(result_bytes(run_setup_controlled(setup, p, rc)), result_bytes(plain));
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

// ---------------------------------------------------------------------------
// ParallelRunner exception safety (the pool the engine is built on)

TEST(ParallelRunnerFaults, OutcomesCaptureErrorsWithoutDeadlock)
{
    ParallelRunner<int> pool(4);
    for (int i = 0; i < 8; ++i) {
        pool.submit(std::string("t") += std::to_string(i), [i]() -> int {
            if (i % 3 == 1)
                throw std::runtime_error("boom " + std::to_string(i));
            return i * 10;
        });
    }
    const auto outcomes = pool.run_all_outcomes(); // must return, not hang
    ASSERT_EQ(outcomes.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(outcomes[i].label, std::string("t") += std::to_string(i));
        if (i % 3 == 1) {
            EXPECT_FALSE(outcomes[i].ok());
            ASSERT_TRUE(outcomes[i].error != nullptr);
        } else {
            ASSERT_TRUE(outcomes[i].ok());
            EXPECT_EQ(*outcomes[i].value, i * 10);
        }
    }
}

TEST(ParallelRunnerFaults, RunAllRethrowsLowestIndexAndPoolSurvives)
{
    ParallelRunner<int> pool(4);
    for (int i = 0; i < 6; ++i) {
        pool.submit(std::string("t") += std::to_string(i), [i]() -> int {
            if (i == 2)
                throw std::runtime_error("first");
            if (i == 4)
                throw std::logic_error("second");
            return i;
        });
    }
    EXPECT_THROW(pool.run_all(), std::runtime_error); // index 2 beats index 4

    // The pool is reusable after a failed batch.
    pool.submit("again", [] { return 7; });
    const auto results = pool.run_all();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].value, 7);
}
