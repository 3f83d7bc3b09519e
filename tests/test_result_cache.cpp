/**
 * @file
 * The content-addressed result cache (serve/result_cache.hpp,
 * docs/CACHE_FORMAT.md): key stability and sensitivity, bit-exact
 * round-trips, in-process single-flight (N concurrent requests for one
 * uncached configuration cost one simulation; the CI TSan job runs this
 * binary), sweep integration across worker counts, crash safety — a
 * writer killed mid-sweep leaves only valid-or-absent entries, and a
 * restart refills the gap with identical results — stale-tmp reaping at
 * open, and moving a cache by copying its `*.mrce` files: copies are
 * byte-identical hits, and a torn or misnamed copy is never served.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "serve/result_cache.hpp"

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

/** A fresh, empty cache directory under the test temp root. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const char *tag)
        : path_(std::string(::testing::TempDir()) + "morpheus_cache_" + tag)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
write_file(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A pid guaranteed dead: fork a child that exits immediately and reap
 *  it. No other process can hold this pid until the id space wraps. */
pid_t
dead_pid()
{
    const pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(child, &status, 0);
    return child;
}

/** Stores entries for compute_sms = 4, 6, 8, ... and returns their keys
 *  in store order. */
std::vector<std::uint64_t>
fill_cache(ResultCache &cache, int count)
{
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < count; ++i) {
        SystemSetup setup;
        setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(i);
        const WorkloadParams p = tiny_app("copy");
        cache.get_or_run(setup, p, [&] { return run_setup(setup, p); });
        keys.push_back(result_cache_key(setup, p));
    }
    return keys;
}

/** Copies every `*.mrce` file of @p from into @p to (created fresh). */
void
copy_entries(const std::string &from, const std::string &to)
{
    std::filesystem::create_directories(to);
    for (const auto &de : std::filesystem::directory_iterator(from)) {
        if (de.path().extension() == ".mrce")
            std::filesystem::copy_file(de.path(), to / de.path().filename());
    }
}

/** A runner for get_or_run() that must not be reached: the copy hits. */
RunResult
must_not_simulate()
{
    ADD_FAILURE() << "copied entry missed and re-simulated";
    return {};
}

/** The fixed configuration whose content key is pinned below. */
void
golden_config(SystemSetup &setup, WorkloadParams &params)
{
    setup = SystemSetup{};
    setup.compute_sms = 6;
    params = tiny_app("golden");
}

/** Simulates every job except `j2`, where it dies: a writer killed
 *  mid-sweep with the single-flight slot for j2 held. */
class AbortAtJ2Store : public ResultStore
{
  public:
    explicit AbortAtJ2Store(ResultCache &cache) : cache_(cache) {}

    RunResult
    get_or_run(const SystemSetup &setup, const WorkloadParams &params,
               const std::function<RunResult()> &run, bool *hit) override
    {
        return cache_.get_or_run(
            setup, params,
            [&] {
                if (params.name == "j2")
                    std::abort();
                return run();
            },
            hit);
    }

  private:
    ResultCache &cache_;
};

} // namespace

// ---------------------------------------------------------------------------
// Content keys

TEST(ResultCacheKey, GoldenKeyIsPinned)
{
    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    const std::uint64_t key = result_cache_key(setup, params);
    // The content key of this fixed configuration is part of the on-disk
    // format: it must be identical on every platform and across commits.
    // If this fails you changed the canonical config encoding
    // (harness/config_codec.hpp) or a default parameter value — that is
    // a FORMAT CHANGE; bump kResultCacheVersion, then repin
    // (docs/CACHE_FORMAT.md).
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(key));
    EXPECT_EQ(std::string(hex), "b6f012deaf79a65f");
}

TEST(ResultCacheKey, SensitiveToEveryConfigAxis)
{
    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    const std::uint64_t base = result_cache_key(setup, params);

    {
        SystemSetup s = setup;
        s.compute_sms += 1;
        EXPECT_NE(result_cache_key(s, params), base);
    }
    {
        SystemSetup s = setup;
        s.cfg.llc_bytes += 4096;
        EXPECT_NE(result_cache_key(s, params), base);
    }
    {
        SystemSetup s = setup;
        s.morpheus.enabled = !s.morpheus.enabled;
        EXPECT_NE(result_cache_key(s, params), base);
    }
    {
        WorkloadParams p = params;
        p.name = "goldem";
        EXPECT_NE(result_cache_key(setup, p), base);
    }
    {
        WorkloadParams p = params;
        p.total_mem_instrs += 1;
        EXPECT_NE(result_cache_key(setup, p), base);
    }
    {
        WorkloadParams p = params;
        p.zipf_alpha += 0.001;
        EXPECT_NE(result_cache_key(setup, p), base);
    }
}

// ---------------------------------------------------------------------------
// Store / lookup round-trips

TEST(ResultCache, StoreLookupRoundTripIsBitExact)
{
    TempCacheDir dir("roundtrip");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    const RunResult fresh = run_setup(setup, params);
    const std::uint64_t key = result_cache_key(setup, params);

    RunResult out;
    EXPECT_FALSE(cache.lookup(key, out)); // absent
    ASSERT_TRUE(cache.store(key, fresh));
    ASSERT_TRUE(cache.lookup(key, out));
    EXPECT_TRUE(run_results_identical(out, fresh));
    EXPECT_EQ(cache.stats().evictions.load(), 0u);
}

TEST(ResultCache, GetOrRunMissesThenHits)
{
    TempCacheDir dir("getorrun");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);

    int simulations = 0;
    const auto simulate = [&] {
        ++simulations;
        return run_setup(setup, params);
    };
    bool hit = true;
    const RunResult first = cache.get_or_run(setup, params, simulate, &hit);
    EXPECT_FALSE(hit);
    const RunResult second = cache.get_or_run(setup, params, simulate, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(simulations, 1);
    EXPECT_TRUE(run_results_identical(first, second));
    EXPECT_EQ(cache.stats().hits.load(), 1u);
    EXPECT_EQ(cache.stats().misses.load(), 1u);
    EXPECT_EQ(cache.stats().stores.load(), 1u);
}

TEST(ResultCache, FailedRunStoresNothing)
{
    TempCacheDir dir("failed");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    EXPECT_THROW(cache.get_or_run(
                     setup, params, []() -> RunResult { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    EXPECT_EQ(cache.stats().stores.load(), 0u);
    RunResult out;
    EXPECT_FALSE(cache.lookup(result_cache_key(setup, params), out));

    // The single-flight slot was released: a later request simulates.
    bool hit = true;
    const RunResult r = cache.get_or_run(
        setup, params, [&] { return run_setup(setup, params); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_GT(r.cycles, 0u);
}

TEST(ResultCache, UnopenableDirectoryDegradesGracefully)
{
    // A file where the directory should be: creation fails, ok() is
    // false, and get_or_run still produces correct (uncached) results.
    const std::string path = std::string(::testing::TempDir()) + "morpheus_cache_blocked";
    std::remove(path.c_str());
    { std::ofstream f(path); f << "not a directory"; }
    ResultCache cache(path);
    EXPECT_FALSE(cache.ok());
    EXPECT_FALSE(cache.error().empty());

    SystemSetup setup;
    WorkloadParams params;
    golden_config(setup, params);
    bool hit = true;
    const RunResult r =
        cache.get_or_run(setup, params, [&] { return run_setup(setup, params); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_GT(r.cycles, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrent get_or_run

TEST(ResultCacheConcurrency, SingleFlightRunsOneSimulationForNThreads)
{
    TempCacheDir dir("singleflight");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    setup.compute_sms = 6;
    const WorkloadParams params = tiny_app("flight");

    // The runner sleeps past the thread-start window, so every thread is
    // in get_or_run() before the first fill completes — the worst case
    // for duplicate simulation.
    std::atomic<int> simulations{0};
    const auto simulate = [&] {
        simulations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return run_setup(setup, params);
    };

    constexpr int kThreads = 8;
    std::vector<RunResult> results(kThreads);
    // One byte per thread: std::vector<bool> packs the flags into shared
    // words, and concurrent writes to them race.
    std::vector<char> hits(kThreads, 0);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                bool hit = false;
                results[t] = cache.get_or_run(setup, params, simulate, &hit);
                hits[t] = hit;
            });
        }
        for (auto &th : threads)
            th.join();
    }

    EXPECT_EQ(simulations.load(), 1);
    EXPECT_EQ(cache.stats().misses.load(), 1u);
    EXPECT_EQ(cache.stats().hits.load(), static_cast<std::uint64_t>(kThreads - 1));
    int hit_count = 0;
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(run_results_identical(results[t], results[0])) << "thread " << t;
        hit_count += hits[t] ? 1 : 0;
    }
    EXPECT_EQ(hit_count, kThreads - 1);
}

TEST(ResultCacheConcurrency, DistinctKeysRunConcurrentlyWithoutCrossTalk)
{
    TempCacheDir dir("distinct");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    // Several threads per key, all in flight together: each distinct
    // configuration simulates exactly once, and no key's slot blocks or
    // answers for another's.
    constexpr int kConfigs = 4, kThreadsPerKey = 4, kThreads = kConfigs * kThreadsPerKey;
    const auto config = [](int c, SystemSetup &setup, WorkloadParams &p) {
        setup = SystemSetup{};
        setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(c);
        std::string name = "d";
        name += std::to_string(c);
        p = tiny_app(name.c_str());
    };
    std::array<std::atomic<int>, kConfigs> simulations{};
    std::vector<RunResult> results(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                const int c = t % kConfigs;
                SystemSetup setup;
                WorkloadParams p;
                config(c, setup, p);
                results[t] = cache.get_or_run(setup, p, [&] {
                    simulations[c].fetch_add(1);
                    std::this_thread::sleep_for(std::chrono::milliseconds(50));
                    return run_setup(setup, p);
                });
            });
        }
        for (auto &th : threads)
            th.join();
    }

    for (int c = 0; c < kConfigs; ++c)
        EXPECT_EQ(simulations[c].load(), 1) << "config " << c;
    EXPECT_EQ(cache.stats().misses.load(), static_cast<std::uint64_t>(kConfigs));
    EXPECT_EQ(cache.stats().hits.load(), static_cast<std::uint64_t>(kThreads - kConfigs));
    for (int t = 0; t < kThreads; ++t) {
        SystemSetup setup;
        WorkloadParams p;
        config(t % kConfigs, setup, p);
        RunResult out;
        ASSERT_TRUE(cache.lookup(result_cache_key(setup, p), out));
        EXPECT_TRUE(run_results_identical(out, results[t])) << "thread " << t;
    }
}

// ---------------------------------------------------------------------------
// SweepEngine integration

TEST(ResultCacheSweep, SecondSweepIsAllHitsAndIdentical)
{
    TempCacheDir dir("sweep");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SweepEngine reference(2);
    queue_jobs(reference);
    const auto expect = reference.run_all();

    auto cached_sweep = [&](unsigned jobs) {
        SweepEngine engine(jobs);
        SweepConfig cfg;
        cfg.store = &cache;
        engine.set_config(cfg);
        queue_jobs(engine);
        return engine.run_all();
    };

    const auto first = cached_sweep(2);
    EXPECT_EQ(cache.stats().misses.load(), 4u);
    EXPECT_EQ(cache.stats().hits.load(), 0u);

    const auto second = cached_sweep(4);
    EXPECT_EQ(cache.stats().misses.load(), 4u); // nothing re-simulated
    EXPECT_EQ(cache.stats().hits.load(), 4u);

    ASSERT_EQ(first.size(), expect.size());
    ASSERT_EQ(second.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_TRUE(run_results_identical(first[i].value, expect[i].value)) << "job " << i;
        EXPECT_TRUE(run_results_identical(second[i].value, expect[i].value)) << "job " << i;
    }
}

TEST(ResultCacheSweep, MixedHitMissReportIdenticalAcrossJobCounts)
{
    TempCacheDir dir("mixed");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    // Pre-fill half the grid, then compare a cached mixed-hit/miss sweep
    // against an uncached serial one at several worker counts.
    {
        SystemSetup setup;
        setup.compute_sms = 4;
        const WorkloadParams p = tiny_app("j0");
        cache.store(result_cache_key(setup, p), run_setup(setup, p));
        setup.compute_sms = 8;
        const WorkloadParams p2 = tiny_app("j2");
        cache.store(result_cache_key(setup, p2), run_setup(setup, p2));
    }

    RunReport uncached("drill");
    {
        SweepEngine engine(1);
        engine.set_report(&uncached);
        queue_jobs(engine);
        engine.run_all();
    }
    for (unsigned jobs : {1u, 2u, 4u}) {
        RunReport report("drill");
        SweepEngine engine(jobs);
        engine.set_report(&report);
        SweepConfig cfg;
        cfg.store = &cache;
        engine.set_config(cfg);
        queue_jobs(engine);
        engine.run_all();
        EXPECT_TRUE(reports_identical(uncached, report)) << "jobs=" << jobs;
    }
}

// ---------------------------------------------------------------------------
// Crash safety

TEST(ResultCacheCrashDeathTest, KilledSweepLeavesOnlyValidEntries)
{
    TempCacheDir dir("crash");

    // Reference results from a clean, uncached sweep.
    SweepEngine reference(2);
    queue_jobs(reference);
    const auto expect = reference.run_all();

    // Child process: serial cached sweep that aborts at job 2 — after
    // filling entries for jobs 0 and 1, before 2 and 3 exist. The abort
    // fires inside the simulate path (the cache's single-flight slot is
    // held), which is exactly the "writer dies mid-fill" scenario.
    const std::string cache_dir = dir.path();
    EXPECT_DEATH(
        {
            ResultCache cache(cache_dir);
            AbortAtJ2Store store(cache);
            SweepEngine engine(1);
            SweepConfig cfg;
            cfg.store = &store;
            engine.set_config(cfg);
            queue_jobs(engine);
            engine.run_all();
        },
        "");

    // Add the torn debris a real crash can leave: an orphaned temp file
    // and a truncated entry.
    {
        std::ofstream tmp(cache_dir + "/deadbeefdeadbeef.mrce.tmp." +
                          std::to_string(dead_pid()) + ".0");
        tmp << "partial write";
        SystemSetup setup;
        setup.compute_sms = 8;
        const std::string torn = cache_dir + "/" +
                                 [&] {
                                     char hex[17];
                                     std::snprintf(
                                         hex, sizeof hex, "%016llx",
                                         static_cast<unsigned long long>(result_cache_key(
                                             setup, tiny_app("j2"))));
                                     return std::string(hex);
                                 }() +
                                 ".mrce";
        std::ofstream f(torn, std::ios::binary);
        f << "MRCE torn header";
    }

    // Restart: temp orphans are swept, the torn entry is evicted on
    // lookup, survivors hit, and the refilled sweep matches the clean
    // reference bit for bit.
    ResultCache cache(cache_dir);
    ASSERT_TRUE(cache.ok()) << cache.error();
    SweepEngine engine(2);
    SweepConfig cfg;
    cfg.store = &cache;
    engine.set_config(cfg);
    queue_jobs(engine);
    const auto got = engine.run_all();

    EXPECT_EQ(cache.stats().hits.load(), 2u);      // jobs 0 and 1 survived
    EXPECT_EQ(cache.stats().misses.load(), 2u);    // 2 (torn) and 3 (absent)
    EXPECT_GE(cache.stats().evictions.load(), 1u); // the torn entry
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(run_results_identical(got[i].value, expect[i].value)) << "job " << i;

    // No temp debris left behind, and the refilled entry now round-trips.
    for (const auto &e : std::filesystem::directory_iterator(cache_dir))
        EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
            << e.path();
    RunResult out;
    SystemSetup setup;
    setup.compute_sms = 8;
    ASSERT_TRUE(cache.lookup(result_cache_key(setup, tiny_app("j2")), out));
    EXPECT_TRUE(run_results_identical(out, expect[2].value));
}

TEST(ResultCache, OpenReapsStaleTmpsButSparesLiveOnes)
{
    TempCacheDir dir("tmps");
    std::filesystem::create_directories(dir.path());

    // Stale: the writer pid is dead, or the name carries no pid. Live:
    // pid 1 always exists (kill(1, 0) succeeds, or answers EPERM, which
    // also means alive).
    const std::string stale = dir.path() + "/00000000aaaaaaaa.mrce.tmp." +
                              std::to_string(dead_pid()) + ".0";
    const std::string unparsable = dir.path() + "/00000000cccccccc.mrce.tmp.x.0";
    const std::string live = dir.path() + "/00000000bbbbbbbb.mrce.tmp.1.0";
    write_file(stale, std::string(500, 's'));
    write_file(unparsable, std::string(200, 'u'));
    write_file(live, std::string(300, 'l'));

    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_FALSE(std::filesystem::exists(unparsable));
    EXPECT_TRUE(std::filesystem::exists(live));
    EXPECT_EQ(read_file(live), std::string(300, 'l'));
}

// ---------------------------------------------------------------------------
// Moving a cache: copy the `*.mrce` files

TEST(ResultCacheCopy, CopiedEntriesAreByteIdenticalHitsInAFreshDirectory)
{
    TempCacheDir src("copy_src"), dst("copy_dst");
    ResultCache cache(src.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 3);
    copy_entries(src.path(), dst.path());

    ResultCache copy(dst.path());
    ASSERT_TRUE(copy.ok()) << copy.error();
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t key = keys[static_cast<std::size_t>(i)];
        EXPECT_EQ(read_file(copy.entry_path(key)), read_file(cache.entry_path(key)))
            << "entry " << std::hex << key;
        RunResult original, copied;
        ASSERT_TRUE(cache.lookup(key, original));
        ASSERT_TRUE(copy.lookup(key, copied));
        EXPECT_TRUE(run_results_identical(original, copied));

        SystemSetup setup;
        setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(i);
        bool hit = false;
        copy.get_or_run(setup, tiny_app("copy"), must_not_simulate, &hit);
        EXPECT_TRUE(hit);
    }
    EXPECT_EQ(copy.stats().hits.load(), 3u);
    EXPECT_EQ(copy.stats().evictions.load(), 0u);
}

TEST(ResultCacheCopy, CopiedEntryWithAFlippedByteIsNeverServed)
{
    TempCacheDir src("flip_src"), dst("flip_dst");
    ResultCache cache(src.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 3);
    copy_entries(src.path(), dst.path());
    ResultCache copy(dst.path());
    ASSERT_TRUE(copy.ok()) << copy.error();
    for (const std::uint64_t key : {keys[0], keys[1]}) {
        std::string bytes = read_file(copy.entry_path(key));
        bytes[bytes.size() - 5] ^= 0x40; // a payload byte
        write_file(copy.entry_path(key), bytes);
    }

    // The intact copy is served; lookup() evicts a torn one and misses.
    RunResult out;
    ASSERT_TRUE(copy.lookup(keys[2], out));
    EXPECT_TRUE(std::filesystem::exists(copy.entry_path(keys[1])));
    EXPECT_FALSE(copy.lookup(keys[1], out));
    EXPECT_FALSE(std::filesystem::exists(copy.entry_path(keys[1])));
    EXPECT_EQ(copy.stats().evictions.load(), 1u);

    // get_or_run() evicts the other torn copy too, and both re-simulate
    // to the original bytes.
    for (int i = 0; i < 2; ++i) {
        const std::uint64_t key = keys[static_cast<std::size_t>(i)];
        SystemSetup setup;
        setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(i);
        const WorkloadParams p = tiny_app("copy");
        bool hit = true;
        const RunResult fresh =
            copy.get_or_run(setup, p, [&] { return run_setup(setup, p); }, &hit);
        EXPECT_FALSE(hit) << "entry " << i;
        RunResult original;
        ASSERT_TRUE(cache.lookup(key, original));
        EXPECT_TRUE(run_results_identical(fresh, original));
        EXPECT_EQ(read_file(copy.entry_path(key)), read_file(cache.entry_path(key)));
    }
    EXPECT_EQ(copy.stats().evictions.load(), 2u);
    EXPECT_EQ(copy.stats().misses.load(), 2u);
}

TEST(ResultCacheCopy, CopiedEntryUnderAnotherKeysNameIsNeverServed)
{
    TempCacheDir src("rename_src"), dst("rename_dst");
    ResultCache cache(src.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 3);

    // Two valid entries copied under each other's names, one in place.
    ResultCache copy(dst.path());
    ASSERT_TRUE(copy.ok()) << copy.error();
    std::filesystem::copy_file(cache.entry_path(keys[0]), copy.entry_path(keys[1]));
    std::filesystem::copy_file(cache.entry_path(keys[1]), copy.entry_path(keys[0]));
    std::filesystem::copy_file(cache.entry_path(keys[2]), copy.entry_path(keys[2]));

    RunResult out;
    for (const std::uint64_t key : {keys[1], keys[0]}) {
        EXPECT_FALSE(copy.lookup(key, out)) << std::hex << key;
        EXPECT_FALSE(std::filesystem::exists(copy.entry_path(key))) << std::hex << key;
    }
    EXPECT_EQ(copy.stats().evictions.load(), 2u);
    EXPECT_TRUE(copy.lookup(keys[2], out));
}
