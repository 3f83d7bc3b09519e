/**
 * @file
 * End-to-end trace-replay guarantees:
 *  - record→replay of a synthetic workload reproduces the live run's
 *    RunResult (every counter and latency) bit-identically, on both a
 *    conventional and a Morpheus system;
 *  - record→replay→re-record produces a byte-identical trace;
 *  - replay from a memory-mapped file matches the live run with and
 *    without the embedded block profile, and empty streams replay as
 *    warps that retire without issuing;
 *  - the trace_replay scenario's report is identical under --jobs 1 and
 *    --jobs N (replay determinism through the whole harness);
 *  - downsampled traces still replay end-to-end.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "cache/bdi.hpp"
#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "scenarios/scenarios.hpp"
#include "trace_test_util.hpp"
#include "workloads/synthetic_workload.hpp"
#include "workloads/trace/trace_recorder.hpp"
#include "workloads/trace/trace_workload.hpp"

using namespace morpheus;

namespace {

constexpr std::uint32_t kSms = 3;

WorkloadParams
small_params()
{
    WorkloadParams params;
    params.name = "replay-test";
    params.pattern = PatternKind::kStreamShared;
    params.warps_per_sm = 6;
    params.total_mem_instrs = 5000;
    params.shared_ws_bytes = 1 << 20;
    params.per_warp_ws_bytes = 32 * 1024;
    params.private_frac = 0.3;
    params.reuse_frac = 0.25;
    params.write_frac = 0.2;
    params.atomic_frac = 0.05;
    params.lines_per_mem = 3;
    return params;
}

SystemSetup
conventional_setup()
{
    SystemSetup setup;
    setup.compute_sms = kSms;
    return setup;
}

SystemSetup
morpheus_test_setup()
{
    SystemSetup setup;
    setup.compute_sms = kSms;
    setup.morpheus.enabled = true;
    setup.morpheus.cache_sms = 4;
    setup.morpheus.kernel.compression = true;
    setup.morpheus.prediction = PredictionMode::kBloom;
    return setup;
}

trace::Trace
recorded_trace()
{
    const WorkloadParams params = small_params();
    SyntheticWorkload workload(params);
    return trace::record_trace(workload, kSms, &params.data);
}

} // namespace

TEST(TraceReplay, ReproducesSyntheticRunExactly)
{
    const WorkloadParams params = small_params();
    const trace::Trace trace = recorded_trace();
    EXPECT_GT(trace.total_records(), 0u);

    const test::EncodedTrace encoded(trace);
    for (const SystemSetup &setup : {conventional_setup(), morpheus_test_setup()}) {
        const RunResult live = run_setup(setup, params);
        TraceWorkload replay(encoded.reader);
        const RunResult replayed = run_workload(setup, replay);

        // The acceptance criterion: identical timing and identical
        // hit/miss accounting, not merely "close".
        EXPECT_TRUE(run_results_identical(live, replayed))
            << "cycles " << live.cycles << " vs " << replayed.cycles << ", l1 "
            << live.l1_hits << "/" << live.l1_misses << " vs " << replayed.l1_hits << "/"
            << replayed.l1_misses << ", ext " << live.ext_hits << "/" << live.ext_misses
            << " vs " << replayed.ext_hits << "/" << replayed.ext_misses;
        EXPECT_EQ(live.workload, replayed.workload);
    }
}

TEST(TraceReplay, RecordReplayRerecordIsByteIdentical)
{
    const trace::Trace first = recorded_trace();
    const test::EncodedTrace encoded(first);
    const auto &first_bytes = encoded.bytes;

    TraceWorkload replay(encoded.reader);
    trace::Trace second = trace::record_trace(replay, kSms, &first.profile);
    EXPECT_EQ(second.encode(), first_bytes);

    // And once more through a file, to cover save/load in the loop.
    const std::string path = ::testing::TempDir() + "/rerecord.mtrc";
    std::string error;
    ASSERT_TRUE(second.save_file(path, error)) << error;
    trace::Trace loaded;
    ASSERT_TRUE(trace::Trace::load_file(path, loaded, error)) << error;
    EXPECT_EQ(loaded.encode(), first_bytes);
    std::remove(path.c_str());
}

TEST(TraceReplay, WorkloadRerunsAfterReconfigure)
{
    // GpuSystem::run() calls configure() on every run; a TraceWorkload
    // instance must replay identically when reused.
    const test::EncodedTrace encoded(recorded_trace());
    TraceWorkload replay(encoded.reader);
    const RunResult a = run_workload(conventional_setup(), replay);
    const RunResult b = run_workload(conventional_setup(), replay);
    EXPECT_TRUE(run_results_identical(a, b));
}

TEST(TraceReplay, RedistributesAcrossDifferentSmCounts)
{
    const test::EncodedTrace encoded(recorded_trace());
    TraceWorkload recorded_layout(encoded.reader);
    const std::uint64_t recorded =
        run_workload(conventional_setup(), recorded_layout).instructions;
    EXPECT_GT(recorded, 0u);

    for (std::uint32_t sms : {1u, 2u, 5u}) {
        TraceWorkload replay(encoded.reader);
        SystemSetup setup;
        setup.compute_sms = sms;
        const RunResult r = run_workload(setup, replay);
        // Strong scaling: all recorded work replays regardless of the SM
        // count it lands on.
        EXPECT_EQ(r.instructions, recorded) << sms << " SMs";
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(TraceReplay, ScenarioReportIdenticalAcrossJobCounts)
{
    const trace::Trace trace = recorded_trace();
    const std::string path = ::testing::TempDir() + "/scenario.mtrc";
    std::string error;
    ASSERT_TRUE(trace.save_file(path, error)) << error;

    auto run_with_jobs = [&](unsigned jobs, RunReport &report, std::string &text) {
        std::ostringstream os;
        ScenarioOptions opts;
        opts.jobs = jobs;
        opts.out = &os;
        opts.trace_path = path;
        opts.report = &report;
        EXPECT_EQ(scenarios::run_trace_replay(opts), 0);
        text = os.str();
    };

    RunReport serial("trace_replay");
    std::string serial_text;
    run_with_jobs(1, serial, serial_text);
    EXPECT_FALSE(serial.empty());

    for (unsigned jobs : {2u, 4u, 8u}) {
        RunReport parallel("trace_replay");
        std::string parallel_text;
        run_with_jobs(jobs, parallel, parallel_text);
        EXPECT_TRUE(reports_identical(serial, parallel)) << jobs << " jobs";
        EXPECT_EQ(serial_text, parallel_text) << jobs << " jobs";
    }
    std::remove(path.c_str());
}

TEST(TraceReplay, DownsampledTraceReplaysEndToEnd)
{
    trace::Trace trace = recorded_trace();
    const std::uint64_t before = trace.total_records();
    trace::downsample_trace(trace, 0.25);
    EXPECT_LT(trace.total_records(), before);
    EXPECT_GT(trace.total_records(), 0u);

    const test::EncodedTrace encoded(trace);
    TraceWorkload replay(encoded.reader);
    const RunResult r = run_workload(conventional_setup(), replay);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
}

TEST(TraceReplay, ProfilelessTraceSynthesizesRecordedClasses)
{
    // Strip the profile: replay must fall back to the per-line footprint
    // classes, and blocks must BDI-compress to the recorded level — for
    // EVERY line of a multi-line step, not just the first (the v1 gap).
    trace::Trace trace = recorded_trace();
    trace.has_profile = false;
    const test::EncodedTrace encoded(trace);
    TraceWorkload replay(encoded.reader);

    std::uint64_t checked = 0;
    std::uint64_t beyond_first = 0;
    for (const auto &stream : trace.streams) {
        for (const auto &step : stream.steps) {
            for (std::uint32_t i = 0; i < step.num_lines; ++i) {
                if (step.cls[i] == trace::kClassUnknown)
                    continue;
                const Block block = replay.synthesize_block(step.lines[i]);
                const BdiResult bdi = bdi_compress(block);
                EXPECT_EQ(static_cast<std::uint8_t>(bdi.level), step.cls[i])
                    << "line " << step.lines[i] << " (index " << i << ")";
                beyond_first += i > 0;
                if (++checked == 400 && beyond_first > 0)
                    return;  // a representative sample is plenty
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(TraceReplay, ClassCollisionsResolveToHighestCompression)
{
    // Two records disagree on a line's class: the replay must pick the
    // highest-compression (numerically smallest) class, regardless of
    // record order. Before the fix, whichever record happened to come
    // first silently won.
    for (bool low_first : {false, true}) {
        trace::Trace t;
        t.name = "collide";
        t.num_sms = 1;
        t.warps_per_sm = 1;
        t.has_profile = false;
        trace::TraceStream stream;
        auto push = [&stream](std::uint8_t cls) {
            trace::TraceStep step;
            step.num_lines = 1;
            step.lines[0] = 42;
            step.cls[0] = cls;
            stream.steps.push_back(step);
        };
        push(low_first ? trace::kClassLow : trace::kClassHigh);
        push(low_first ? trace::kClassHigh : trace::kClassLow);
        t.streams.push_back(std::move(stream));

        const test::EncodedTrace encoded(t);
        EXPECT_EQ(encoded.stats().class_collisions, 1u);
        TraceWorkload replay(encoded.reader);
        const BdiResult bdi = bdi_compress(replay.synthesize_block(42));
        EXPECT_EQ(bdi.level, CompLevel::kHigh)
            << (low_first ? "low recorded first" : "high recorded first");
    }
}

TEST(TraceReplay, FileReplayMatchesLiveRun)
{
    // Through a file and the memory-mapped reader, both with the embedded
    // profile and profile-less (the per-line class fallback): the two
    // synthesize_block code paths. Class-faithful blocks compress to the
    // recorded level, so even the Morpheus system's extended-LLC slot
    // sizing, and with it every counter, matches the live run.
    const WorkloadParams params = small_params();
    trace::Trace t = recorded_trace();
    const std::string path = ::testing::TempDir() + "/replay_live.mtrc";
    std::string error;

    for (bool with_profile : {true, false}) {
        t.has_profile = with_profile;
        ASSERT_TRUE(t.save_file(path, error)) << error;
        trace::TraceReader reader;
        ASSERT_TRUE(reader.open(path, error)) << error;

        for (const SystemSetup &setup : {conventional_setup(), morpheus_test_setup()}) {
            TraceWorkload replay(reader);
            const RunResult live = run_setup(setup, params);
            const RunResult replayed = run_workload(setup, replay);
            EXPECT_TRUE(run_results_identical(live, replayed))
                << "profile=" << with_profile << " morpheus=" << setup.morpheus.enabled
                << ": cycles " << live.cycles << " vs " << replayed.cycles;
        }
    }
    std::remove(path.c_str());
}

TEST(TraceReplay, EmptyStreamsReplayAsRetiredWarps)
{
    // A --keep 0 downsample leaves every stream present but empty; replay
    // must treat each as a warp that retires without issuing (well
    // defined, no asserts) — the live run of the same workload with no
    // work at all.
    trace::Trace t = recorded_trace();
    trace::downsample_trace(t, 0.0);
    ASSERT_EQ(t.total_records(), 0u);
    const std::string path = ::testing::TempDir() + "/empty_streams.mtrc";
    std::string error;
    ASSERT_TRUE(t.save_file(path, error)) << error;

    trace::TraceReader reader;
    ASSERT_TRUE(reader.open(path, error)) << error;
    trace::TraceStats st;
    ASSERT_TRUE(reader.stats(st, error)) << error;
    EXPECT_EQ(st.records, 0u);
    EXPECT_EQ(st.empty_streams, reader.stream_count());
    ASSERT_GT(reader.stream_count(), 0u);

    WorkloadParams idle = small_params();
    idle.total_mem_instrs = 0;
    TraceWorkload replay(reader);
    const RunResult replayed = run_workload(morpheus_test_setup(), replay);
    const RunResult live = run_setup(morpheus_test_setup(), idle);
    EXPECT_TRUE(run_results_identical(live, replayed))
        << "cycles " << live.cycles << " vs " << replayed.cycles;
    EXPECT_EQ(replayed.instructions, 0u);
    std::remove(path.c_str());
}
