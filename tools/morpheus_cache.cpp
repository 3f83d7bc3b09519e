/**
 * morpheus_cache — offline result-cache management
 * (docs/CACHE_FORMAT.md "Size accounting and garbage collection",
 * "Export/import").
 *
 * Operates directly on a cache directory with the same ResultCache code
 * `--cache-dir` sweeps use, so validation, gc pinning, and the tmp-file
 * liveness rules are identical. Safe to run against a directory that
 * live sweeps are filling: eviction is atomic unlink, import is
 * temp+rename, and a foreign process's in-progress writes are never
 * touched.
 *
 *   morpheus_cache --cache-dir DIR --stats
 *       Prints `key=value` size accounting (shell-parseable; CI greps
 *       these lines). `.tmp.` leftovers count toward total_bytes.
 *   morpheus_cache --cache-dir DIR --gc --max-bytes N
 *       Reaps stale tmp files, then evicts entries oldest-access-first
 *       until the directory holds at most N bytes. --max-bytes 0 wipes.
 *   morpheus_cache --cache-dir DIR --export FILE
 *       Writes every valid entry into one `.mrcx` container.
 *   morpheus_cache --cache-dir DIR --import FILE
 *       Installs every record of a container, re-validating each.
 *   morpheus_cache --cache-dir DIR --verify
 *       Loads and fully validates every entry (invalid ones are
 *       evicted, as any reader would); exit 1 if any were.
 */

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/result_cache.hpp"

namespace {

using morpheus::CacheUsage;
using morpheus::GcResult;
using morpheus::ImportResult;
using morpheus::ResultCache;

int
usage()
{
    std::fprintf(stderr,
                 "usage: morpheus_cache --cache-dir DIR\n"
                 "           (--stats | --gc --max-bytes N | --export FILE |\n"
                 "            --import FILE | --verify)\n");
    return 2;
}

void
print_usage_fields(const CacheUsage &u)
{
    std::printf("entry_count=%llu\n", static_cast<unsigned long long>(u.entry_count));
    std::printf("entry_bytes=%llu\n", static_cast<unsigned long long>(u.entry_bytes));
    std::printf("tmp_count=%llu\n", static_cast<unsigned long long>(u.tmp_count));
    std::printf("tmp_bytes=%llu\n", static_cast<unsigned long long>(u.tmp_bytes));
    std::printf("total_bytes=%llu\n",
                static_cast<unsigned long long>(u.total_bytes()));
}

} // namespace

int
main(int argc, char **argv)
{
    bool want_stats = false, want_gc = false, want_verify = false;
    bool have_max_bytes = false;
    std::string cache_dir, export_path, import_path;
    std::uint64_t max_bytes = 0;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--cache-dir") == 0 && i + 1 < argc) {
            cache_dir = argv[++i];
        } else if (std::strcmp(a, "--stats") == 0) {
            want_stats = true;
        } else if (std::strcmp(a, "--gc") == 0) {
            want_gc = true;
        } else if (std::strcmp(a, "--max-bytes") == 0 && i + 1 < argc) {
            max_bytes = std::strtoull(argv[++i], nullptr, 10);
            have_max_bytes = true;
        } else if (std::strcmp(a, "--export") == 0 && i + 1 < argc) {
            export_path = argv[++i];
        } else if (std::strcmp(a, "--import") == 0 && i + 1 < argc) {
            import_path = argv[++i];
        } else if (std::strcmp(a, "--verify") == 0) {
            want_verify = true;
        } else {
            return usage();
        }
    }
    const int ops = static_cast<int>(want_stats) + static_cast<int>(want_gc) +
                    static_cast<int>(want_verify) +
                    static_cast<int>(!export_path.empty()) +
                    static_cast<int>(!import_path.empty());
    if (cache_dir.empty() || ops != 1 || (want_gc && !have_max_bytes))
        return usage();

    ResultCache cache(cache_dir);
    if (!cache.ok()) {
        std::fprintf(stderr, "morpheus_cache: %s\n", cache.error().c_str());
        return 1;
    }

    std::string error;
    if (want_stats) {
        print_usage_fields(cache.usage());
        return 0;
    }
    if (want_gc) {
        GcResult gc;
        if (!cache.gc(max_bytes, gc, error)) {
            std::fprintf(stderr, "morpheus_cache: %s\n", error.c_str());
            return 1;
        }
        std::printf("evicted_entries=%llu\n",
                    static_cast<unsigned long long>(gc.evicted_entries));
        std::printf("evicted_bytes=%llu\n",
                    static_cast<unsigned long long>(gc.evicted_bytes));
        std::printf("reaped_tmp=%llu\n",
                    static_cast<unsigned long long>(gc.reaped_tmp));
        std::printf("reaped_tmp_bytes=%llu\n",
                    static_cast<unsigned long long>(gc.reaped_tmp_bytes));
        std::printf("kept_entries=%llu\n",
                    static_cast<unsigned long long>(gc.kept_entries));
        std::printf("kept_bytes=%llu\n",
                    static_cast<unsigned long long>(gc.kept_bytes));
        return 0;
    }
    if (!export_path.empty()) {
        std::uint64_t count = 0;
        if (!cache.export_entries(export_path, count, error)) {
            std::fprintf(stderr, "morpheus_cache: %s\n", error.c_str());
            return 1;
        }
        std::printf("exported=%llu\n", static_cast<unsigned long long>(count));
        return 0;
    }
    if (!import_path.empty()) {
        ImportResult result;
        if (!cache.import_entries(import_path, result, error)) {
            std::fprintf(stderr, "morpheus_cache: %s\n", error.c_str());
            return 1;
        }
        std::printf("imported=%llu\n",
                    static_cast<unsigned long long>(result.imported));
        std::printf("replaced=%llu\n",
                    static_cast<unsigned long long>(result.replaced));
        return 0;
    }

    // --verify: exporting loads and fully validates every entry, evicting
    // the invalid ones exactly as a reader would; the container itself is
    // a byproduct we discard.
    const std::string scratch =
        cache_dir + "/.verify." + std::to_string(::getpid()) + ".mrcx";
    std::uint64_t count = 0;
    const bool ok = cache.export_entries(scratch, count, error);
    ::unlink(scratch.c_str());
    if (!ok) {
        std::fprintf(stderr, "morpheus_cache: %s\n", error.c_str());
        return 1;
    }
    const std::uint64_t evicted = cache.stats().evictions.load();
    std::printf("verified=%llu\n", static_cast<unsigned long long>(count));
    std::printf("evicted=%llu\n", static_cast<unsigned long long>(evicted));
    return evicted == 0 ? 0 : 1;
}
