#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
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

/** A store that simulates every job except `j2`, which throws. */
class FailJ2Store : public ResultStore
{
  public:
    RunResult
    get_or_run(const SystemSetup &, const WorkloadParams &params,
               const std::function<RunResult()> &run, bool *hit) override
    {
        if (hit)
            *hit = false;
        if (params.name == "j2")
            throw std::runtime_error("j2 is broken");
        return run();
    }
};

RunReport
tolerant_report_with_failed_j2(unsigned jobs)
{
    FailJ2Store store;
    SweepEngine engine(jobs);
    RunReport report("drill");
    engine.set_report(&report);
    SweepConfig cfg;
    cfg.tolerant = true;
    cfg.store = &store;
    engine.set_config(cfg);
    queue_jobs(engine);
    engine.run_all();
    return report;
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

// ---------------------------------------------------------------------------
// Failed jobs: a job is simulated once, and what it threw is reported

TEST(SweepFailures, TolerantSweepDegradesFailedJob)
{
    FailJ2Store store;
    SweepEngine engine(2);
    RunReport report("drill");
    engine.set_report(&report);
    SweepConfig cfg;
    cfg.tolerant = true;
    cfg.store = &store;
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
    EXPECT_EQ(report.entries()[2].error, "j2 is broken");
    EXPECT_EQ(results[2].value.cycles, 0u); // positional slot holds a default
    for (std::size_t i : {0u, 1u, 3u}) {
        EXPECT_TRUE(report.entries()[i].ok());
        EXPECT_GT(results[i].value.cycles, 0u);
    }
}

TEST(SweepFailures, NonTolerantSweepRethrows)
{
    FailJ2Store store;
    SweepEngine engine(2);
    SweepConfig cfg;
    cfg.store = &store;
    engine.set_config(cfg);
    queue_jobs(engine);
    EXPECT_THROW(engine.run_all(), std::runtime_error);
}

TEST(SweepFailures, JobsOneVsManyIdenticalWithAFailedJob)
{
    EXPECT_TRUE(reports_identical(tolerant_report_with_failed_j2(1),
                                  tolerant_report_with_failed_j2(4)));
}

TEST(SweepFailures, ScenarioWithAFailedJobExitsDegradedAndWritesTheReport)
{
    // The exit-3 path end to end: run_scenario_with_report sees the
    // failed entry, returns kExitDegraded, and still persists the report.
    const Scenario drill{"failure_drill", "four jobs, j2 throws", [](const ScenarioOptions &o) {
                             SweepEngine engine(o.jobs);
                             engine.configure(o);
                             queue_jobs(engine);
                             engine.run_all();
                             return 0;
                         }};
    FailJ2Store store;
    ScenarioOptions opts;
    opts.jobs = 2;
    opts.result_store = &store;
    const std::string path = ::testing::TempDir() + "BENCH_failure_drill.json";
    std::remove(path.c_str());

    EXPECT_EQ(run_scenario_with_report(drill, opts, path), kExitDegraded);

    RunReport saved("");
    std::string error;
    ASSERT_TRUE(RunReport::load_file(path, saved, error)) << error;
    ASSERT_EQ(saved.entries().size(), 4u);
    EXPECT_FALSE(saved.entries()[2].ok());
    EXPECT_EQ(saved.entries()[2].label, "j2");
    EXPECT_EQ(saved.entries()[2].error, "j2 is broken");
    for (std::size_t i : {0u, 1u, 3u})
        EXPECT_TRUE(saved.entries()[i].ok());
    std::remove(path.c_str());
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
