/**
 * @file
 * Size accounting and garbage collection of the result cache
 * (serve/result_cache.hpp, docs/CACHE_FORMAT.md "Size accounting and
 * garbage collection", "Moving a cache"):
 *
 *  - usage() matches an independent directory walk, byte for byte, and
 *    counts `.tmp.` leftovers — a budget that ignored them would not be
 *    a bound (the stale-tmp accounting bug this suite pins down);
 *  - gc() evicts complete entries in access-time order down to the
 *    byte budget, reaps stale tmp files (dead writer), spares live ones,
 *    and never touches an entry whose key has a fill in flight;
 *  - a cache moves by copying its `*.mrce` files: copies are
 *    byte-identical hits in a fresh directory, and a copy with a flipped
 *    byte or another key's filename is evicted (by verify() and by
 *    lookup()) and never served;
 *  - verify() writes nothing into the directory and leaves the gc
 *    eviction order alone.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

class TempCacheDir
{
  public:
    explicit TempCacheDir(const char *tag)
        : path_(std::string(::testing::TempDir()) + "morpheus_gc_" + tag)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Stores entries for compute_sms = 4, 6, 8, ... and returns their keys
 *  in store order. */
std::vector<std::uint64_t>
fill_cache(ResultCache &cache, int count)
{
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < count; ++i) {
        SystemSetup setup;
        setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(i);
        const WorkloadParams p = tiny_app("gc");
        cache.get_or_run(setup, p, [&] { return run_setup(setup, p); });
        keys.push_back(result_cache_key(setup, p));
    }
    return keys;
}

/** Pins an entry's access time to @p sec (mtime untouched), bypassing
 *  the cache so eviction order is fully under test control. */
void
set_atime(const std::string &path, std::int64_t sec)
{
    timespec times[2];
    times[0].tv_sec = static_cast<time_t>(sec);
    times[0].tv_nsec = 0;
    times[1].tv_nsec = UTIME_OMIT;
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0) << path;
}

std::int64_t
atime_of(const std::string &path)
{
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return static_cast<std::int64_t>(st.st_atim.tv_sec);
}

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

/** Independent directory walk: (entry_bytes, tmp_bytes) by suffix. */
std::pair<std::uint64_t, std::uint64_t>
du_by_kind(const std::string &dir)
{
    std::uint64_t entries = 0, tmps = 0;
    for (const auto &de : std::filesystem::directory_iterator(dir)) {
        const std::string name = de.path().filename().string();
        const auto size = static_cast<std::uint64_t>(de.file_size());
        if (name.find(".mrce.tmp.") != std::string::npos)
            tmps += size;
        else if (name.size() > 5 && name.rfind(".mrce") == name.size() - 5)
            entries += size;
    }
    return {entries, tmps};
}

} // namespace

// ---------------------------------------------------------------------------
// Size accounting

TEST(CacheGc, UsageMatchesIndependentDirectoryWalk)
{
    TempCacheDir dir("usage");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    fill_cache(cache, 3);

    const CacheUsage u = cache.usage();
    const auto [entry_bytes, tmp_bytes] = du_by_kind(dir.path());
    EXPECT_EQ(u.entry_count, 3u);
    EXPECT_EQ(u.entry_bytes, entry_bytes);
    EXPECT_EQ(u.tmp_count, 0u);
    EXPECT_EQ(u.tmp_bytes, tmp_bytes);
    EXPECT_EQ(u.total_bytes(), entry_bytes + tmp_bytes);
}

TEST(CacheGc, TmpLeftoversCountTowardTotalBytes)
{
    // The accounting bug this PR fixes: a crashed writer's `.tmp.` file
    // is real disk usage. If usage() skipped it, `--cache-max-bytes`
    // would not bound the directory.
    TempCacheDir dir("tmpacct");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    fill_cache(cache, 1);

    const std::string orphan = dir.path() + "/00000000deadbeef.mrce.tmp." +
                               std::to_string(dead_pid()) + ".7";
    write_file(orphan, std::string(1000, 'x'));

    const CacheUsage u = cache.usage();
    EXPECT_EQ(u.tmp_count, 1u);
    EXPECT_EQ(u.tmp_bytes, 1000u);
    const auto [entry_bytes, tmp_bytes] = du_by_kind(dir.path());
    EXPECT_EQ(u.total_bytes(), entry_bytes + tmp_bytes);
}

// ---------------------------------------------------------------------------
// Garbage collection

TEST(CacheGc, EvictsInAccessTimeOrderDownToBudget)
{
    TempCacheDir dir("order");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 4);

    // Access order oldest→newest: keys[0], keys[1], keys[2], keys[3].
    for (int i = 0; i < 4; ++i)
        set_atime(cache.entry_path(keys[static_cast<std::size_t>(i)]), 1000 + i);

    // Budget = exactly the two most recently used entries.
    const std::uint64_t budget =
        static_cast<std::uint64_t>(
            std::filesystem::file_size(cache.entry_path(keys[2]))) +
        static_cast<std::uint64_t>(
            std::filesystem::file_size(cache.entry_path(keys[3])));

    GcResult gc;
    std::string error;
    ASSERT_TRUE(cache.gc(budget, gc, error)) << error;
    EXPECT_EQ(gc.evicted_entries, 2u);
    EXPECT_EQ(gc.kept_entries, 2u);
    EXPECT_LE(gc.kept_bytes, budget);
    EXPECT_FALSE(std::filesystem::exists(cache.entry_path(keys[0])));
    EXPECT_FALSE(std::filesystem::exists(cache.entry_path(keys[1])));
    EXPECT_TRUE(std::filesystem::exists(cache.entry_path(keys[2])));
    EXPECT_TRUE(std::filesystem::exists(cache.entry_path(keys[3])));
    EXPECT_EQ(cache.stats().gc_evictions.load(), 2u);
    EXPECT_LE(cache.usage().total_bytes(), budget);
}

TEST(CacheGc, LookupHitRefreshesEvictionOrder)
{
    TempCacheDir dir("refresh");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 2);

    // keys[0] is ancient — then a hit must move it to the front.
    set_atime(cache.entry_path(keys[0]), 1000);
    set_atime(cache.entry_path(keys[1]), 2000);
    RunResult out;
    ASSERT_TRUE(cache.lookup(keys[0], out));
    EXPECT_GT(atime_of(cache.entry_path(keys[0])), 2000);

    // Now keys[1] is the eviction victim.
    GcResult gc;
    std::string error;
    const auto keep = static_cast<std::uint64_t>(
        std::filesystem::file_size(cache.entry_path(keys[0])));
    ASSERT_TRUE(cache.gc(keep, gc, error)) << error;
    EXPECT_TRUE(std::filesystem::exists(cache.entry_path(keys[0])));
    EXPECT_FALSE(std::filesystem::exists(cache.entry_path(keys[1])));
}

TEST(CacheGc, ReapsStaleTmpsButSparesLiveOnes)
{
    TempCacheDir dir("tmps");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    fill_cache(cache, 1);

    // Stale: the writer pid is dead. Live: pid 1 exists (kill(1, 0)
    // answers EPERM, which means "alive, not ours").
    const std::string stale = dir.path() + "/00000000aaaaaaaa.mrce.tmp." +
                              std::to_string(dead_pid()) + ".0";
    const std::string live = dir.path() + "/00000000bbbbbbbb.mrce.tmp.1.0";
    write_file(stale, std::string(500, 's'));
    write_file(live, std::string(300, 'l'));

    GcResult gc;
    std::string error;
    ASSERT_TRUE(cache.gc(1 << 20, gc, error)) << error; // generous budget
    EXPECT_EQ(gc.reaped_tmp, 1u);
    EXPECT_EQ(gc.reaped_tmp_bytes, 500u);
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(std::filesystem::exists(live));
    EXPECT_EQ(gc.evicted_entries, 0u); // under budget, entries untouched

    std::filesystem::remove(live); // don't leak into the next scan
}

TEST(CacheGc, NeverEvictsAnEntryWhoseKeyIsInFlight)
{
    TempCacheDir dir("inflight");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    SystemSetup setup;
    setup.compute_sms = 6;
    const WorkloadParams p = tiny_app("pin");
    const std::uint64_t key = result_cache_key(setup, p);

    // A filler thread holds `key` in flight, blocked mid-simulation.
    std::mutex mu;
    std::condition_variable cv;
    bool started = false, release = false;
    std::thread filler([&] {
        cache.get_or_run(setup, p, [&] {
            {
                std::unique_lock<std::mutex> lock(mu);
                started = true;
                cv.notify_all();
                cv.wait(lock, [&] { return release; });
            }
            return run_setup(setup, p);
        });
    });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return started; });
    }

    // An entry for that key appears on disk (say, another process
    // finished first). gc-to-zero must pin it: the in-flight fill will
    // re-publish it anyway, so evicting it would only waste the bytes.
    ASSERT_TRUE(cache.store(key, run_setup(setup, p)));
    GcResult gc;
    std::string error;
    ASSERT_TRUE(cache.gc(0, gc, error)) << error;
    EXPECT_TRUE(std::filesystem::exists(cache.entry_path(key)));
    EXPECT_EQ(gc.evicted_entries, 0u);
    EXPECT_EQ(gc.kept_entries, 1u);

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    filler.join();

    // Once the fill retires, the same budget evicts it.
    ASSERT_TRUE(cache.gc(0, gc, error)) << error;
    EXPECT_FALSE(std::filesystem::exists(cache.entry_path(key)));
    EXPECT_EQ(gc.evicted_entries, 1u);
}

TEST(CacheGc, GcRacingConcurrentFillsLosesNoResults)
{
    // Hammer gc(0) while four threads fill distinct keys: every
    // get_or_run must still return a result, and the directory must end
    // validly loadable (gc never tears an entry or a tmp mid-write).
    TempCacheDir dir("race");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();

    std::atomic<bool> stop{false};
    std::thread collector([&] {
        while (!stop.load()) {
            GcResult gc;
            std::string error;
            ASSERT_TRUE(cache.gc(0, gc, error)) << error;
        }
    });

    constexpr int kThreads = 4, kRounds = 8;
    std::vector<std::thread> fillers;
    for (int t = 0; t < kThreads; ++t) {
        fillers.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                SystemSetup setup;
                setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(t);
                const WorkloadParams p = tiny_app("race");
                cache.get_or_run(setup, p, [&] { return run_setup(setup, p); });
            }
        });
    }
    for (auto &th : fillers)
        th.join();
    stop.store(true);
    collector.join();

    // Whatever survived the crossfire must be individually valid.
    ResultCache reader(dir.path());
    for (int t = 0; t < kThreads; ++t) {
        SystemSetup setup;
        setup.compute_sms = 4 + 2 * static_cast<std::uint32_t>(t);
        const std::uint64_t key = result_cache_key(setup, tiny_app("race"));
        if (std::filesystem::exists(reader.entry_path(key))) {
            RunResult out;
            EXPECT_TRUE(reader.lookup(key, out)) << "torn entry for thread " << t;
        }
    }
}

// ---------------------------------------------------------------------------
// Moving a cache: copy the `*.mrce` files, then verify

namespace {

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

} // namespace

TEST(CacheGc, CopiedEntriesAreByteIdenticalHitsInAFreshDirectory)
{
    TempCacheDir src("copy_src"), dst("copy_dst");
    ResultCache cache(src.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 3);
    copy_entries(src.path(), dst.path());

    ResultCache copy(dst.path());
    ASSERT_TRUE(copy.ok()) << copy.error();
    VerifyResult verify;
    std::string error;
    ASSERT_TRUE(copy.verify(verify, error)) << error;
    EXPECT_EQ(verify.verified, 3u);
    EXPECT_EQ(verify.evicted, 0u);

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
        copy.get_or_run(setup, tiny_app("gc"), must_not_simulate, &hit);
        EXPECT_TRUE(hit);
    }
    EXPECT_EQ(copy.stats().evictions.load(), 0u);
}

TEST(CacheGc, CopiedEntryWithAFlippedByteIsNeverServed)
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

    VerifyResult verify;
    std::string error;
    ASSERT_TRUE(copy.verify(verify, error)) << error;
    EXPECT_EQ(verify.verified, 1u); // keys[2]
    EXPECT_EQ(verify.evicted, 1u);  // keys[0]
    EXPECT_FALSE(std::filesystem::exists(copy.entry_path(keys[0])));

    // The evicted key re-simulates to the original bytes.
    SystemSetup setup;
    setup.compute_sms = 6; // keys[1]
    bool hit = true;
    const RunResult fresh =
        copy.get_or_run(setup, tiny_app("gc"), [&] { return run_setup(setup, tiny_app("gc")); },
                        &hit);
    EXPECT_FALSE(hit);
    RunResult original;
    ASSERT_TRUE(cache.lookup(keys[1], original));
    EXPECT_TRUE(run_results_identical(fresh, original));
    EXPECT_EQ(read_file(copy.entry_path(keys[1])), read_file(cache.entry_path(keys[1])));
}

TEST(CacheGc, CopiedEntryUnderAnotherKeysNameIsNeverServed)
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
    EXPECT_FALSE(copy.lookup(keys[1], out));
    EXPECT_FALSE(std::filesystem::exists(copy.entry_path(keys[1])));

    VerifyResult verify;
    std::string error;
    ASSERT_TRUE(copy.verify(verify, error)) << error;
    EXPECT_EQ(verify.verified, 1u);
    EXPECT_EQ(verify.evicted, 1u);
    EXPECT_FALSE(std::filesystem::exists(copy.entry_path(keys[0])));
    EXPECT_FALSE(copy.lookup(keys[0], out));
    EXPECT_EQ(copy.stats().evictions.load(), 2u);
    EXPECT_TRUE(copy.lookup(keys[2], out));
}

TEST(CacheGc, VerifyWritesNothingAndKeepsTheEvictionOrder)
{
    TempCacheDir dir("verify");
    ResultCache cache(dir.path());
    ASSERT_TRUE(cache.ok()) << cache.error();
    const std::vector<std::uint64_t> keys = fill_cache(cache, 3);
    // Snapshot the bytes before pinning atimes: reads may move them.
    std::map<std::string, std::string> before;
    for (const auto &de : std::filesystem::directory_iterator(dir.path()))
        before[de.path().filename().string()] = read_file(de.path().string());

    // Oldest access first: keys[2], keys[0], keys[1] — not the key or
    // store order, so a verify that touched atimes would reorder it.
    set_atime(cache.entry_path(keys[2]), 1000);
    set_atime(cache.entry_path(keys[0]), 2000);
    set_atime(cache.entry_path(keys[1]), 3000);
    // A file created (and even removed again) in the directory moves
    // its mtime off this pinned value.
    timespec dir_times[2] = {{5000, 0}, {5000, 0}};
    ASSERT_EQ(::utimensat(AT_FDCWD, dir.path().c_str(), dir_times, 0), 0);

    VerifyResult verify;
    std::string error;
    ASSERT_TRUE(cache.verify(verify, error)) << error;
    EXPECT_EQ(verify.verified, 3u);
    EXPECT_EQ(verify.evicted, 0u);

    struct stat st{};
    ASSERT_EQ(::stat(dir.path().c_str(), &st), 0);
    EXPECT_EQ(st.st_mtim.tv_sec, 5000) << "verify created or removed a file";
    EXPECT_EQ(atime_of(cache.entry_path(keys[2])), 1000);
    EXPECT_EQ(atime_of(cache.entry_path(keys[0])), 2000);
    EXPECT_EQ(atime_of(cache.entry_path(keys[1])), 3000);

    // Budget = one entry: gc keeps the most recently used, keys[1].
    GcResult gc;
    const auto keep = static_cast<std::uint64_t>(
        std::filesystem::file_size(cache.entry_path(keys[1])));
    ASSERT_TRUE(cache.gc(keep, gc, error)) << error;
    EXPECT_EQ(gc.evicted_entries, 2u);
    std::map<std::string, std::string> after;
    for (const auto &de : std::filesystem::directory_iterator(dir.path()))
        after[de.path().filename().string()] = read_file(de.path().string());
    const std::string kept = std::filesystem::path(cache.entry_path(keys[1])).filename();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[kept], before[kept]);
}
