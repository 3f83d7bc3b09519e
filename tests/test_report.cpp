#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "gpu/gpu_system.hpp"
#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "harness/system_config.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

namespace {

RunReport
sample_report()
{
    RunReport report("unit_test");
    report.set_work_scale(0.5);
    report.set_jobs(4);
    report.set_wall_ms(123.25);

    ReportEntry &a = report.add_entry("kmeans/BL");
    a.set("cycles", 123456789.0);
    a.set("ipc", 1.2345678901234567);
    a.set("tiny", 1e-17);
    a.set("negative", -42.5);

    ReportEntry &b = report.add_entry("label \"quoted\"\nand newlined");
    b.set("zero", 0.0);
    return report;
}

} // namespace

TEST(RunReport, JsonRoundTripIsExact)
{
    const RunReport original = sample_report();
    RunReport parsed;
    std::string error;
    ASSERT_TRUE(RunReport::parse_json(original.to_json(), parsed, error)) << error;

    EXPECT_TRUE(reports_identical(original, parsed));
    // Environment survives the round trip too (it is just never compared).
    EXPECT_EQ(parsed.jobs(), 4u);
    EXPECT_DOUBLE_EQ(parsed.wall_ms(), 123.25);
    // Doubles are exact, not approximate.
    ASSERT_NE(parsed.find_entry("kmeans/BL"), nullptr);
    EXPECT_EQ(*parsed.find_entry("kmeans/BL")->find("ipc"), 1.2345678901234567);
    EXPECT_EQ(*parsed.find_entry("kmeans/BL")->find("tiny"), 1e-17);
}

TEST(RunReport, SecondRoundTripIsByteIdentical)
{
    // Stability matters: committed baselines must not churn when re-saved.
    const RunReport original = sample_report();
    RunReport parsed;
    std::string error;
    ASSERT_TRUE(RunReport::parse_json(original.to_json(), parsed, error)) << error;
    EXPECT_EQ(original.to_json(), parsed.to_json());
}

TEST(RunReport, DefaultFilename)
{
    EXPECT_EQ(RunReport::default_filename("fig12_performance"), "BENCH_fig12_performance.json");
}

TEST(RunReport, EnvironmentDoesNotAffectIdentity)
{
    RunReport a = sample_report();
    RunReport b = sample_report();
    b.set_jobs(1);
    b.set_wall_ms(9999.0);
    EXPECT_TRUE(reports_identical(a, b));
}

TEST(RunReport, ContextAffectsIdentity)
{
    RunReport a = sample_report();
    RunReport b = sample_report();
    b.set_work_scale(1.0);
    EXPECT_FALSE(reports_identical(a, b));

    RunReport c = sample_report();
    c.set_deterministic(false);
    EXPECT_FALSE(reports_identical(a, c));
}

TEST(RunReport, ParseRejectsMalformedInput)
{
    RunReport out;
    std::string error;
    EXPECT_FALSE(RunReport::parse_json("", out, error));
    EXPECT_FALSE(RunReport::parse_json("not json", out, error));
    EXPECT_FALSE(RunReport::parse_json("[1, 2]", out, error));
    EXPECT_FALSE(RunReport::parse_json("{\"scenario\": \"x\"}", out, error)); // no version
    EXPECT_FALSE(RunReport::parse_json("{\"schema_version\": 1}", out, error)); // no scenario
    EXPECT_FALSE(RunReport::parse_json(
        "{\"schema_version\": 1, \"scenario\": \"x\", \"entries\": [{\"label\": \"a\"}]}", out,
        error)); // entry without metrics
    EXPECT_FALSE(error.empty());
}

TEST(RunReport, ParseIgnoresUnknownKeys)
{
    RunReport out;
    std::string error;
    const char *text =
        "{\"schema_version\": 1, \"scenario\": \"x\", \"future_field\": {\"a\": [1, 2]},"
        " \"entries\": [{\"label\": \"j\", \"metrics\": {\"m\": 3.5}, \"notes\": \"hi\"}]}";
    ASSERT_TRUE(RunReport::parse_json(text, out, error)) << error;
    ASSERT_EQ(out.entries().size(), 1u);
    EXPECT_EQ(*out.entries()[0].find("m"), 3.5);
}

TEST(RunReport, AddRunExtractsTheStandardMetricSet)
{
    RunResult r;
    r.cycles = 1000;
    r.instructions = 4000;
    r.ipc = 4.0;
    r.l1_hits = 75;
    r.l1_misses = 25;
    r.ext_requests = 10;
    r.ext_hits = 7;
    r.avg_watts = 123.5;

    RunReport report("x");
    report.add_run("job", r);
    ASSERT_EQ(report.entries().size(), 1u);
    const ReportEntry &e = report.entries()[0];
    EXPECT_EQ(*e.find("cycles"), 1000.0);
    EXPECT_EQ(*e.find("ipc"), 4.0);
    EXPECT_EQ(*e.find("l1_hit_rate"), 0.75);
    EXPECT_EQ(*e.find("ext_hit_rate"), 0.7);
    EXPECT_EQ(*e.find("avg_watts"), 123.5);
    EXPECT_EQ(e.find("no_such_metric"), nullptr);
}

TEST(RunReport, SaveAndLoadFile)
{
    const RunReport original = sample_report();
    const std::string path = testing::TempDir() + "morpheus_report_test.json";
    std::string error;
    ASSERT_TRUE(original.save_file(path, error)) << error;

    RunReport loaded;
    ASSERT_TRUE(RunReport::load_file(path, loaded, error)) << error;
    EXPECT_TRUE(reports_identical(original, loaded));
    std::remove(path.c_str());

    EXPECT_FALSE(RunReport::load_file("/nonexistent/dir/nope.json", loaded, error));
}

TEST(RunReport, SweepEngineRecordsEveryJobInSubmissionOrder)
{
    WorkloadParams params;
    params.name = "report-test";
    params.total_mem_instrs = 500;
    SystemSetup setup;
    setup.compute_sms = 2;

    RunReport report("sweep");
    SweepEngine engine(2);
    engine.set_report(&report);
    engine.add(setup, params, "first");
    engine.add(setup, params, "second");
    const auto results = engine.run_all();

    ASSERT_EQ(report.entries().size(), 2u);
    EXPECT_EQ(report.entries()[0].label, "first");
    EXPECT_EQ(report.entries()[1].label, "second");
    EXPECT_EQ(*report.entries()[0].find("cycles"),
              static_cast<double>(results[0].value.cycles));
}

TEST(RunReport, ReportContentIdenticalForAnyWorkerCount)
{
    // The determinism contract behind committed baselines: --jobs 1 and
    // --jobs N runs of the same sweep must produce identical reports.
    WorkloadParams params;
    params.name = "determinism";
    params.total_mem_instrs = 2000;
    params.per_warp_ws_bytes = 64 * 1024;
    params.write_frac = 0.25;

    auto run_with = [&](unsigned jobs) {
        RunReport report("determinism");
        SweepEngine engine(jobs);
        engine.set_report(&report);
        for (std::uint32_t sms : {4u, 8u}) {
            SystemSetup setup;
            setup.compute_sms = sms;
            engine.add(setup, params, "bl-" + std::to_string(sms));
        }
        for (std::uint32_t cache : {2u, 4u}) {
            SystemSetup setup;
            setup.compute_sms = 4;
            setup.morpheus.enabled = true;
            setup.morpheus.cache_sms = cache;
            engine.add(setup, params, "morpheus-" + std::to_string(cache));
        }
        engine.run_all();
        return report;
    };

    const RunReport serial = run_with(1);
    for (unsigned jobs : {2u, 4u, 8u}) {
        const RunReport parallel = run_with(jobs);
        EXPECT_TRUE(reports_identical(serial, parallel)) << jobs << " workers diverged";
    }
}

// ---------------------------------------------------------------------------
// Schema v2: per-entry status/error (failed grid points)

TEST(RunReportV2, FailedEntriesRoundTrip)
{
    RunReport report("drill");
    ReportEntry &ok = report.add_entry("good");
    ok.set("cycles", 100.0);
    report.add_failed("bad", "injected harness fault: \"quoted\"\nline two");

    ASSERT_EQ(report.entries().size(), 2u);
    EXPECT_TRUE(report.entries()[0].ok());
    EXPECT_FALSE(report.entries()[1].ok());
    EXPECT_TRUE(report.has_failures());

    RunReport parsed;
    std::string error;
    ASSERT_TRUE(RunReport::parse_json(report.to_json(), parsed, error)) << error;
    ASSERT_EQ(parsed.entries().size(), 2u);
    EXPECT_EQ(parsed.entries()[1].status, "failed");
    EXPECT_EQ(parsed.entries()[1].error, "injected harness fault: \"quoted\"\nline two");
    EXPECT_TRUE(reports_identical(report, parsed));
    EXPECT_EQ(report.to_json(), parsed.to_json()); // stable on re-save
}

TEST(RunReportV2, V1ReportsParseWithOkStatus)
{
    // Pre-v2 baselines carry no "status" key; they must keep loading with
    // every entry treated as ok.
    RunReport out;
    std::string error;
    const char *text = "{\"schema_version\": 1, \"scenario\": \"x\","
                       " \"entries\": [{\"label\": \"j\", \"metrics\": {\"m\": 1.0}}]}";
    ASSERT_TRUE(RunReport::parse_json(text, out, error)) << error;
    ASSERT_EQ(out.entries().size(), 1u);
    EXPECT_TRUE(out.entries()[0].ok());
    EXPECT_FALSE(out.has_failures());
}

TEST(RunReportV2, StatusAffectsIdentityAndDiff)
{
    RunReport a("drill");
    a.add_entry("j").set("m", 1.0);
    RunReport b("drill");
    b.add_failed("j", "boom");

    EXPECT_FALSE(reports_identical(a, b));
    const DiffResult diff = diff_reports(a, b, DiffOptions{});
    EXPECT_FALSE(diff.ok());
}

// ---------------------------------------------------------------------------
// Parser hardening

TEST(RunReportParser, RejectsNonFiniteNumbers)
{
    RunReport out;
    std::string error;
    auto with_metric = [](const char *token) {
        return std::string("{\"schema_version\": 2, \"scenario\": \"x\", \"entries\":"
                           " [{\"label\": \"j\", \"metrics\": {\"m\": ") +
               token + "}}]}";
    };
    EXPECT_FALSE(RunReport::parse_json(with_metric("nan"), out, error));
    EXPECT_FALSE(RunReport::parse_json(with_metric("NaN"), out, error));
    EXPECT_FALSE(RunReport::parse_json(with_metric("inf"), out, error));
    EXPECT_FALSE(RunReport::parse_json(with_metric("-inf"), out, error));
    EXPECT_FALSE(RunReport::parse_json(with_metric("Infinity"), out, error));
    EXPECT_FALSE(RunReport::parse_json(with_metric("1e999"), out, error));  // overflows to inf
    EXPECT_FALSE(RunReport::parse_json(with_metric("-1e999"), out, error));
    EXPECT_TRUE(RunReport::parse_json(with_metric("1e308"), out, error)) << error;
    EXPECT_TRUE(RunReport::parse_json(with_metric("-0.5"), out, error)) << error;
}

TEST(RunReportParser, DuplicateKeysLastWins)
{
    RunReport out;
    std::string error;
    const char *text = "{\"schema_version\": 2, \"scenario\": \"first\","
                       " \"scenario\": \"second\", \"entries\":"
                       " [{\"label\": \"j\", \"metrics\": {\"m\": 1.0, \"m\": 2.0}}]}";
    ASSERT_TRUE(RunReport::parse_json(text, out, error)) << error;
    EXPECT_EQ(out.scenario(), "second");
    ASSERT_EQ(out.entries().size(), 1u);
    ASSERT_EQ(out.entries()[0].metrics.size(), 1u); // deduped, last value kept
    EXPECT_EQ(*out.entries()[0].find("m"), 2.0);
}

TEST(RunReportParser, DeeplyNestedInputIsRejectedNotOverflowed)
{
    // 4096 nested arrays inside an ignored key: a recursive-descent parser
    // without a depth gate would exhaust the stack here.
    std::string text = "{\"schema_version\": 2, \"scenario\": \"x\", \"deep\": ";
    for (int i = 0; i < 4096; ++i)
        text += '[';
    for (int i = 0; i < 4096; ++i)
        text += ']';
    text += ", \"entries\": []}";

    RunReport out;
    std::string error;
    EXPECT_FALSE(RunReport::parse_json(text, out, error));
    EXPECT_NE(error.find("nest"), std::string::npos) << error;

    // Mixed object/array nesting hits the same gate.
    std::string objs = "{\"schema_version\": 2, \"scenario\": \"x\", \"deep\": ";
    for (int i = 0; i < 200; ++i)
        objs += "{\"k\": [";
    objs += "1";
    for (int i = 0; i < 200; ++i)
        objs += "]}";
    objs += ", \"entries\": []}";
    EXPECT_FALSE(RunReport::parse_json(objs, out, error));

    // 256 levels as the whole document, not tucked under a key.
    const std::string arrays = std::string(256, '[') + std::string(256, ']');
    std::string bare_objs;
    for (int i = 0; i < 256; ++i)
        bare_objs += "{\"a\":";
    bare_objs += "1" + std::string(256, '}');
    for (const std::string &bare : {arrays, bare_objs}) {
        error.clear();
        EXPECT_FALSE(RunReport::parse_json(bare, out, error));
        EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
    }
}

TEST(RunReportParser, FuzzedMutationsNeverCrash)
{
    // Deterministic byte-level fuzzing of a valid report: the parser must
    // accept or reject every mutant without crashing or hanging; accepted
    // mutants must re-serialize (no poisoned internal state).
    const std::string seed_text = sample_report().to_json();
    Rng rng(0xF00DF00Du);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text = seed_text;
        const int edits = 1 + static_cast<int>(rng.next_below(8));
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = static_cast<std::size_t>(rng.next_below(text.size()));
            switch (rng.next_below(3)) {
            case 0: // flip to an arbitrary byte
                text[pos] = static_cast<char>(rng.next_below(256));
                break;
            case 1: // delete a byte
                text.erase(pos, 1);
                break;
            default: // truncate (torn write)
                text.resize(pos);
                break;
            }
            if (text.empty())
                break;
        }
        RunReport out;
        std::string error;
        if (RunReport::parse_json(text, out, error))
            (void)out.to_json();
    }
}

TEST(RunReportParser, NestingCapIsExactlySixtyFourLevels)
{
    // morpheus_bench_diff loads BENCH files through this parser; its
    // 64-level cap is what keeps a hostile file off the stack. The root
    // object is level 1, so 63 arrays under a key reach the cap exactly.
    auto nested = [](int levels) {
        std::string text = "{\"schema_version\": 2, \"scenario\": \"x\", \"deep\": ";
        text += std::string(static_cast<std::size_t>(levels), '[');
        text += std::string(static_cast<std::size_t>(levels), ']');
        return text + ", \"entries\": []}";
    };
    RunReport out;
    std::string error;
    EXPECT_TRUE(RunReport::parse_json(nested(63), out, error)) << error;
    EXPECT_FALSE(RunReport::parse_json(nested(64), out, error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(RunReportParser, TruncatedReportsAreRejected)
{
    // A torn write: every prefix that stops before the closing brace is
    // malformed and must say so; the prefixes that only drop trailing
    // whitespace are still the whole report.
    const std::string text = sample_report().to_json();
    const std::size_t complete = text.find_last_of('}') + 1;
    for (std::size_t len = 0; len < text.size(); ++len) {
        RunReport out;
        std::string error;
        const bool ok = RunReport::parse_json(text.substr(0, len), out, error);
        EXPECT_EQ(ok, len >= complete) << "prefix length " << len;
        if (!ok) {
            EXPECT_FALSE(error.empty()) << "prefix length " << len;
        }
    }
}

TEST(RunReportParser, SeededSmallMutationsEndInAVerdict)
{
    // 1-4 byte edits (overwrite a byte, or cut the tail): every mutant is
    // either accepted and re-serializable or rejected with an error.
    const std::string seed_text = sample_report().to_json();
    Rng rng(0x9e3779b97f4a7c15ULL);
    for (int round = 0; round < 2000; ++round) {
        std::string text = seed_text;
        const int edits = 1 + static_cast<int>(rng.next_below(4));
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = static_cast<std::size_t>(rng.next_below(text.size()));
            if (rng.next_below(8) == 0)
                text.resize(pos + 1);
            else
                text[pos] = static_cast<char>(rng.next_below(256));
        }
        RunReport out;
        std::string error;
        if (RunReport::parse_json(text, out, error)) {
            EXPECT_FALSE(out.to_json().empty());
        } else {
            EXPECT_FALSE(error.empty()) << "round " << round;
        }
    }
}
