/**
 * morpheus_cache — offline result-cache management
 * (docs/CACHE_FORMAT.md "Size accounting and garbage collection",
 * "Moving a cache").
 *
 * Operates directly on a cache directory with the same ResultCache code
 * `--cache-dir` sweeps use, so validation, gc pinning, and the tmp-file
 * liveness rules are identical. Safe to run against a directory that
 * live sweeps are filling: eviction is atomic unlink, and a foreign
 * process's in-progress writes are never touched.
 *
 *   morpheus_cache --cache-dir DIR --stats
 *       Prints `key=value` size accounting (shell-parseable; CI greps
 *       these lines). `.tmp.` leftovers count toward total_bytes.
 *   morpheus_cache --cache-dir DIR --gc --max-bytes N
 *       Reaps stale tmp files, then evicts entries oldest-access-first
 *       until the directory holds at most N bytes (a whole decimal
 *       number; anything else is a usage error). --max-bytes 0 wipes.
 *   morpheus_cache --cache-dir DIR --verify
 *       Loads and fully validates every entry in place (invalid ones
 *       are evicted, as any reader would; access times are left alone);
 *       exit 1 if any were.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "serve/result_cache.hpp"

namespace {

using morpheus::CacheUsage;
using morpheus::GcResult;
using morpheus::ResultCache;
using morpheus::VerifyResult;

int
usage()
{
    std::fprintf(stderr,
                 "usage: morpheus_cache --cache-dir DIR\n"
                 "           (--stats | --gc --max-bytes N | --verify)\n");
    return 2;
}

/** A whole decimal byte count: digits only, no sign, suffix or overflow. */
bool
parse_bytes(const char *text, std::uint64_t &out)
{
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return text != end && ec == std::errc() && ptr == end;
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
    std::string cache_dir;
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
            if (!parse_bytes(argv[++i], max_bytes))
                return usage();
            have_max_bytes = true;
        } else if (std::strcmp(a, "--verify") == 0) {
            want_verify = true;
        } else {
            return usage();
        }
    }
    const int ops = static_cast<int>(want_stats) + static_cast<int>(want_gc) +
                    static_cast<int>(want_verify);
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

    VerifyResult verify;
    if (!cache.verify(verify, error)) {
        std::fprintf(stderr, "morpheus_cache: %s\n", error.c_str());
        return 1;
    }
    std::printf("verified=%llu\n", static_cast<unsigned long long>(verify.verified));
    std::printf("evicted=%llu\n", static_cast<unsigned long long>(verify.evicted));
    return verify.evicted == 0 ? 0 : 1;
}
