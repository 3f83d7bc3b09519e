#include "harness/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <system_error>

#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "serve/result_cache.hpp"
#include "workloads/app_catalog.hpp"

namespace morpheus {

const Scenario *
find_scenario(const std::string &name)
{
    for (const auto &s : scenario_registry()) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

void
list_scenarios(std::ostream &os)
{
    for (const auto &s : scenario_registry())
        os << "  " << s.name << "\n      " << s.description << "\n";
}

int
run_scenario_with_report(const Scenario &s, ScenarioOptions opts, const std::string &output_path)
{
    RunReport report(s.name);
    report.set_work_scale(work_scale());
    report.set_jobs(opts.jobs ? opts.jobs : default_sweep_jobs());
    opts.report = &report;

    // --cache-dir: memoize grid points in an on-disk content-addressed
    // store (docs/CACHE_FORMAT.md). The cache outlives each SweepEngine
    // the scenario builds, not the process.
    std::optional<ResultCache> cache;
    if (!opts.cache_dir.empty()) {
        cache.emplace(opts.cache_dir);
        if (!cache->ok()) {
            std::fprintf(stderr, "cannot open result cache '%s': %s\n",
                         opts.cache_dir.c_str(), cache->error().c_str());
            return 1;
        }
        opts.result_store = &*cache;
    }

    const auto begin = std::chrono::steady_clock::now();
    int rc = s.run(opts);
    const auto end = std::chrono::steady_clock::now();
    report.set_wall_ms(
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(end - begin)
            .count());

    // Graceful degradation: failed sweep jobs surface as kExitDegraded,
    // and the report (which records WHAT failed) is still persisted.
    if (rc == 0 && report.has_failures()) {
        for (const auto &e : report.entries()) {
            if (!e.ok())
                std::fprintf(stderr, "job '%s' failed: %s\n", e.label.c_str(),
                             e.error.c_str());
        }
        rc = kExitDegraded;
    }

    // Which grid points were served from the cache: every miss is one
    // get_or_run() that simulated.
    if (cache)
        std::fprintf(stderr, "cache %s: %llu hits, %llu simulated\n", opts.cache_dir.c_str(),
                     static_cast<unsigned long long>(cache->stats().hits.load()),
                     static_cast<unsigned long long>(cache->stats().misses.load()));

    if ((rc != 0 && rc != kExitDegraded) || output_path.empty())
        return rc;

    std::string error;
    if (!report.save_file(output_path, error)) {
        std::fprintf(stderr, "failed to write report: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu entries)\n", output_path.c_str(),
                 report.entries().size());
    return rc;
}

int
run_all_scenarios(const ScenarioOptions &opts, const std::string &output_dir)
{
    if (!output_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(output_dir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create output dir '%s': %s\n", output_dir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }
    std::ostream &os = opts.out ? *opts.out : std::cout;
    int rc = 0;
    for (const auto &s : scenario_registry()) {
        os << "===== " << s.name << " =====\n";
        std::string path;
        if (!output_dir.empty())
            path = output_dir + "/" + RunReport::default_filename(s.name);
        const int one = run_scenario_with_report(s, opts, path);
        // Hard failures dominate degraded, degraded dominates success.
        if (one != 0 && (rc == 0 || (rc == kExitDegraded && one != kExitDegraded)))
            rc = one;
        os << '\n';
    }
    return rc;
}

namespace {

bool
parse_jobs_value(const char *arg, unsigned &out)
{
    // Digits only: no sign, space, or value that does not fit `unsigned`.
    const char *end = arg + std::strlen(arg);
    const auto [ptr, ec] = std::from_chars(arg, end, out);
    if (ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "invalid --jobs value '%s' (expected N >= 0; 0 = auto)\n", arg);
        return false;
    }
    return true;
}

/** Levenshtein distance (for near-miss flag suggestions). */
std::size_t
flag_edit_distance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t cur = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               prev + (a[i - 1] == b[j - 1] ? 0 : 1)});
            prev = cur;
        }
    }
    return row[b.size()];
}

/** Prints "did you mean ...?" when @p arg is close to a known flag. */
void
suggest_flag(const char *arg, const char *const *known, std::size_t n_known)
{
    const char *best = nullptr;
    std::size_t best_d = 4; // suggestions only within edit distance 3
    for (std::size_t i = 0; i < n_known; ++i) {
        const std::size_t d = flag_edit_distance(arg, known[i]);
        if (d < best_d) {
            best_d = d;
            best = known[i];
        }
    }
    if (best)
        std::fprintf(stderr, "unknown flag '%s' (did you mean '%s'?)\n", arg, best);
}

/**
 * Parses the shared scenario flags into @p opts / @p path. @p path_flag
 * names the output flag ("--output" or "--output-dir"). @return false
 * (after printing a usage line) on any invalid flag.
 */
bool
parse_scenario_flags(int argc, char **argv, const char *path_flag, ScenarioOptions &opts,
                     std::string &path)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            if (!parse_jobs_value(argv[++i], opts.jobs))
                return false;
        } else if (std::strcmp(argv[i], "--cache-dir") == 0 && i + 1 < argc) {
            opts.cache_dir = argv[++i];
        } else if (std::strcmp(argv[i], path_flag) == 0 && i + 1 < argc) {
            path = argv[++i];
        } else {
            const char *known[] = {"--jobs", "--cache-dir", path_flag};
            suggest_flag(argv[i], known, sizeof(known) / sizeof(known[0]));
            std::fprintf(stderr, "usage: %s [--jobs N] [--cache-dir DIR] [%s PATH]\n", argv[0],
                         path_flag);
            return false;
        }
    }
    return true;
}

} // namespace

int
scenario_main(const char *name, int argc, char **argv)
{
    ScenarioOptions opts;
    std::string output_path;
    if (!parse_scenario_flags(argc, argv, "--output", opts, output_path))
        return 2;
    const Scenario *s = find_scenario(name);
    if (!s) {
        std::fprintf(stderr, "scenario '%s' is not registered\n", name);
        return 2;
    }
    return run_scenario_with_report(*s, opts, output_path);
}

int
scenario_all_main(int argc, char **argv)
{
    ScenarioOptions opts;
    std::string output_dir;
    if (!parse_scenario_flags(argc, argv, "--output-dir", opts, output_dir))
        return 2;
    return run_all_scenarios(opts, output_dir);
}

ScenarioEmitter::ScenarioEmitter(const ScenarioOptions &opts)
    : os_(opts.out ? *opts.out : std::cout)
{
}

void
ScenarioEmitter::table(const std::string &title, const Table &t)
{
    if (tables_)
        os_ << '\n';
    os_ << "== " << title << " ==\n";
    t.print(os_);
    ++tables_;
}

void
ScenarioEmitter::note(const char *fmt, ...)
{
    char buf[2048];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    os_ << buf;
}

} // namespace morpheus
