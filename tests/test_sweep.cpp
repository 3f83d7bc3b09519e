#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep_engine.hpp"
#include "harness/system_config.hpp"

using namespace morpheus;

namespace {

/** A small but non-trivial job mix spanning baseline and Morpheus runs. */
std::vector<SweepJob>
job_mix()
{
    std::vector<SweepJob> jobs;
    WorkloadParams params;
    params.name = "sweep-test";
    params.total_mem_instrs = 4000;
    params.per_warp_ws_bytes = 64 * 1024;
    params.write_frac = 0.2;

    for (std::uint32_t sms : {8u, 16u}) {
        SystemSetup setup;
        setup.compute_sms = sms;
        jobs.push_back(SweepJob{setup, params, "bl-" + std::to_string(sms)});
    }
    for (std::uint32_t cache : {4u, 8u}) {
        SystemSetup setup;
        setup.compute_sms = 8;
        setup.morpheus.enabled = true;
        setup.morpheus.cache_sms = cache;
        setup.morpheus.prediction = PredictionMode::kBloom;
        jobs.push_back(SweepJob{setup, params, "morpheus-" + std::to_string(cache)});
    }
    return jobs;
}

std::vector<Labeled<RunResult>>
run_with_workers(unsigned workers)
{
    SweepEngine engine(workers);
    for (auto &job : job_mix())
        engine.add(job);
    return engine.run_all();
}

struct ScenarioRun
{
    int rc = 0;
    std::string text;
    RunReport report{""};
};

ScenarioRun
run_scenario_at(const Scenario &s, unsigned jobs)
{
    ScenarioRun out;
    out.report = RunReport(s.name);
    ScenarioOptions opts;
    opts.jobs = jobs;
    opts.report = &out.report;
    std::ostringstream os;
    opts.out = &os;
    out.rc = s.run(opts);
    out.text = os.str();
    return out;
}

} // namespace

TEST(SweepEngine, ParallelOutputIdenticalToSerial)
{
    // The acceptance property: N worker threads produce results that are
    // bit-identical, job for job, to a serial run — the simulator shares
    // no mutable state between runs and results collect in submission
    // order.
    const auto serial = run_with_workers(1);
    for (unsigned workers : {2u, 4u, 8u}) {
        const auto parallel = run_with_workers(workers);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].label, parallel[i].label);
            EXPECT_TRUE(run_results_identical(serial[i].value, parallel[i].value))
                << "job " << i << " (" << serial[i].label << ") diverged with " << workers
                << " workers";
        }
    }
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    ParallelRunner<int> pool(4);
    // Tasks complete intentionally out of order (later submissions finish
    // first); collection must still follow submission order.
    for (int i = 0; i < 12; ++i) {
        pool.submit(std::to_string(i), [i] {
            std::this_thread::sleep_for(std::chrono::milliseconds((12 - i) % 4));
            return i;
        });
    }
    const auto results = pool.run_all();
    ASSERT_EQ(results.size(), 12u);
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(results[i].label, std::to_string(i));
        EXPECT_EQ(results[i].value, i);
    }
}

TEST(SweepEngine, UsesMultipleWorkerThreads)
{
    ParallelRunner<int> pool(4);
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit("t", [&] {
            const int now = ++in_flight;
            int expected = peak.load();
            while (now > expected && !peak.compare_exchange_weak(expected, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --in_flight;
            return 0;
        });
    }
    pool.run_all();
    EXPECT_GT(peak.load(), 1) << "tasks never overlapped on a multi-worker pool";
}

TEST(SweepEngine, TaskExceptionsPropagateDeterministically)
{
    ParallelRunner<int> pool(4);
    pool.submit("ok", [] { return 1; });
    pool.submit("boom-a", []() -> int { throw std::runtime_error("a"); });
    pool.submit("boom-b", []() -> int { throw std::runtime_error("b"); });
    // The lowest-submission-index failure wins, regardless of which
    // worker hit its exception first.
    try {
        pool.run_all();
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "a");
    }
}

TEST(SweepEngine, EmptySweepIsFine)
{
    SweepEngine engine(4);
    EXPECT_TRUE(engine.run_all().empty());
}

TEST(SweepEngine, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(default_sweep_jobs(), 1u);
}

TEST(SweepEngine, RunResultsIdenticalComparesDoubleBits)
{
    RunResult a;
    a.workload = "bits";
    RunResult b = a;
    EXPECT_TRUE(run_results_identical(a, b));
    b.energy.noc_j = -0.0; // == 0.0, but a different bit pattern
    EXPECT_FALSE(run_results_identical(a, b));
    a.ipc = b.ipc = std::nan("");
    b.energy.noc_j = 0.0;
    EXPECT_TRUE(run_results_identical(a, b));
}

TEST(SweepEngine, LabelsSurviveTheRoundTrip)
{
    SweepEngine engine(2);
    WorkloadParams params;
    params.name = "labels";
    params.total_mem_instrs = 100;
    SystemSetup setup;
    setup.compute_sms = 2;
    engine.add(setup, params, "first");
    engine.add(setup, params, "second");
    const auto results = engine.run_all();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "first");
    EXPECT_EQ(results[1].label, "second");
}

TEST(SweepEngine, EveryScenarioByteIdenticalAcrossJobCounts)
{
    // Report bytes never depend on --jobs: every registered scenario
    // prints the same text and records the same report at one worker
    // and at four.
    ASSERT_EQ(setenv("MORPHEUS_WORK_SCALE", "0.01", 1), 0);
    // The trace scenarios find bench/traces/ from any working directory;
    // directories the caller already set win.
    ASSERT_EQ(setenv("MORPHEUS_TRACE_DIR", MORPHEUS_SOURCE_DIR "/bench/traces", 0), 0);
    ASSERT_EQ(setenv("MORPHEUS_TRACE_CORPUS_DIR", MORPHEUS_SOURCE_DIR "/bench/traces/corpus", 0),
              0);

    for (const Scenario &s : scenario_registry()) {
        const ScenarioRun serial = run_scenario_at(s, 1);
        ASSERT_EQ(serial.rc, 0) << s.name;
        const ScenarioRun parallel = run_scenario_at(s, 4);
        EXPECT_EQ(parallel.rc, serial.rc) << s.name;
        EXPECT_EQ(parallel.text, serial.text) << s.name << " output differs at jobs=4";
        EXPECT_TRUE(reports_identical(serial.report, parallel.report))
            << s.name << " report differs at jobs=4";
    }
}
