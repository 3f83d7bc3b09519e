#include "serve/result_cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "harness/config_codec.hpp"
#include "harness/report.hpp"
#include "sim/state_io.hpp"

namespace morpheus {

std::uint64_t
result_cache_key(const SystemSetup &setup, const WorkloadParams &params)
{
    StateWriter w;
    // Version salts first: bumping either invalidates every key, so a
    // format or schema change cold-starts the cache instead of pairing
    // old bytes with new expectations.
    w.field(kResultCacheVersion);
    w.field(kReportSchemaVersion);
    SystemSetup s = setup;
    WorkloadParams p = params;
    state_setup(w, s);
    state_workload_params(w, p);
    return w.digest();
}

namespace {

/** Fixed self-identifying prefix of every entry file. All fields are
 *  validated on load; `reserved` must be zero so the whole 40 bytes are
 *  covered and any single-byte corruption is detectable. */
struct EntryHeader
{
    std::uint32_t magic;           ///< kResultCacheMagic
    std::uint32_t format_version;  ///< kResultCacheVersion
    std::uint64_t key;             ///< content key (matches the filename)
    std::uint64_t payload_size;    ///< bytes after the header
    std::uint64_t payload_digest;  ///< fnv1a64 of the payload
    std::uint64_t reserved;        ///< must be 0
};
static_assert(sizeof(EntryHeader) == 40, "entry header layout is on-disk format");

std::string
key_hex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
    return buf;
}

/**
 * Full validation of one entry's bytes: every header field (the key must
 * be @p key, the one the filename names), the payload digest, and the
 * payload shape (must deserialize to exactly its end). This is the only
 * parser of cache bytes. @return true and set @p result_out on a valid
 * entry.
 */
bool
validate_entry_bytes(std::string_view bytes, std::uint64_t key, RunResult &result_out)
{
    if (bytes.size() < sizeof(EntryHeader))
        return false;
    EntryHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    const std::string_view payload(bytes.data() + sizeof h, bytes.size() - sizeof h);
    if (h.magic != kResultCacheMagic || h.format_version != kResultCacheVersion ||
        h.key != key || h.reserved != 0 || h.payload_size != payload.size() ||
        h.payload_digest != fnv1a64(payload))
        return false;
    try {
        StateReader r(payload);
        RunResult result;
        r.obj(result);
        if (!r.done())
            return false; // digest-valid but wrong shape (stale writer)
        result_out = result;
    } catch (const StateError &) {
        return false;
    }
    return true;
}

bool
read_file(const std::string &path, std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    bytes.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

/** Sets @p path's access time, the gc eviction order (mtime kept).
 *  Lookup hits set it to now explicitly, so the order does not depend on
 *  the filesystem's atime mount options (relatime would otherwise
 *  coalesce reads). Best-effort. */
void
set_atime(const std::string &path, timespec atime)
{
    const timespec times[2] = {atime, {0, UTIME_OMIT}};
    ::utimensat(AT_FDCWD, path.c_str(), times, 0);
}

bool
process_alive(unsigned long pid)
{
    if (pid == 0)
        return false;
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/** One file of a cache directory, as scan_dir() classifies it. */
struct CacheFile
{
    std::string path;
    bool tmp = false;       ///< `<016x>.mrce.tmp.<pid>.<seq>`; else a `<016x>.mrce` entry
    std::uint64_t key = 0;  ///< entries: the key the filename names
    unsigned long pid = 0;  ///< tmps: the writer's pid; 0 when unparsable (stale)
    std::uint64_t size = 0;
    timespec atime{};
};

/**
 * The one directory scan, and the only code that parses cache file
 * names: every entry and `.tmp.` file that could be stat()ed (files
 * that vanish mid-scan are skipped; other names are ignored). @return
 * false with @p error set when the directory cannot be read.
 */
bool
scan_dir(const std::string &dir, std::vector<CacheFile> &files, std::string &error)
{
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = e.path().filename().string();
        CacheFile f;
        f.path = e.path().string();
        const std::size_t tag = name.find(".mrce.tmp.");
        if (tag != std::string::npos) {
            f.tmp = true;
            const char *p = name.c_str() + tag + 10;
            char *end = nullptr;
            f.pid = std::strtoul(p, &end, 10);
            if (end == p || *end != '.')
                f.pid = 0;
        } else {
            // <016x>.mrce, nothing more: the name must be the one
            // entry_path() gives its key.
            if (name.size() != 21 || name.compare(16, 5, ".mrce") != 0)
                continue;
            f.key = std::strtoull(name.c_str(), nullptr, 16);
            if (name.compare(0, 16, key_hex(f.key)) != 0)
                continue;
        }
        struct stat st{};
        if (::stat(f.path.c_str(), &st) != 0)
            continue; // raced a concurrent removal
        f.size = static_cast<std::uint64_t>(st.st_size);
        f.atime = st.st_atim;
        files.push_back(std::move(f));
    }
    if (ec) {
        error = "cache scan failed: " + ec.message();
        return false;
    }
    return true;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        error_ = "cannot create cache directory: " + ec.message();
        return;
    }
    // Sweep temp orphans from writers that died mid-fill — but only
    // *stale* ones (writer pid no longer alive): a shared directory may
    // have a live sibling process mid-write, and reaping its temp file
    // would turn that store into a spurious miss.
    std::vector<CacheFile> files;
    std::string scan_error; // an unreadable directory just sweeps nothing
    scan_dir(dir_, files, scan_error);
    for (const CacheFile &f : files) {
        if (f.tmp && !process_alive(f.pid))
            std::filesystem::remove(f.path, ec);
    }
    ok_ = true;
}

std::string
ResultCache::entry_path(std::uint64_t key) const
{
    return dir_ + "/" + key_hex(key) + ".mrce";
}

bool
ResultCache::load(std::uint64_t key, RunResult &out, bool &evicted)
{
    evicted = false;
    const std::string path = entry_path(key);
    std::string bytes;
    errno = 0;
    const bool read = read_file(path, bytes);
    if (!read && errno == ENOENT)
        return false; // absent: a plain miss, nothing to evict

    // Validate everything; ANY failure evicts and misses.
    if (!read || !validate_entry_bytes(bytes, key, out)) {
        std::remove(path.c_str());
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        evicted = true;
        return false;
    }
    return true;
}

bool
ResultCache::lookup(std::uint64_t key, RunResult &out)
{
    bool evicted;
    if (!ok_ || !load(key, out, evicted))
        return false;
    set_atime(entry_path(key), {0, UTIME_NOW}); // hits refresh the gc order
    return true;
}

bool
ResultCache::store(std::uint64_t key, const RunResult &r)
{
    if (!ok_)
        return false;

    StateWriter w;
    RunResult copy = r;
    w.obj(copy);
    const std::string &payload = w.bytes();

    EntryHeader h;
    h.magic = kResultCacheMagic;
    h.format_version = kResultCacheVersion;
    h.key = key;
    h.payload_size = payload.size();
    h.payload_digest = fnv1a64(payload);
    h.reserved = 0;

    // Unique temp name (pid + per-process counter) then atomic rename:
    // concurrent fills of one key are last-writer-wins over identical
    // bytes, and a crash leaves only an ignorable `.tmp.` orphan. The
    // temp path is registered while the write is in progress so a
    // concurrent gc() never reaps it (only *stale* temps are fair game).
    const std::string path = entry_path(key);
    const std::string tmp = path + ".tmp." +
                            std::to_string(static_cast<unsigned long>(::getpid())) + "." +
                            std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed));
    {
        std::lock_guard<std::mutex> lock(mu_);
        active_tmps_.insert(tmp);
    }
    const auto deactivate = [&] {
        std::lock_guard<std::mutex> lock(mu_);
        active_tmps_.erase(tmp);
    };
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        deactivate();
        return false;
    }
    const bool wrote = std::fwrite(&h, 1, sizeof h, f) == sizeof h &&
                       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        deactivate();
        return false;
    }
    deactivate();
    stats_.stores.fetch_add(1, std::memory_order_relaxed);
    return true;
}

RunResult
ResultCache::get_or_run(const SystemSetup &setup, const WorkloadParams &params,
                        const std::function<RunResult()> &run, bool *hit)
{
    const std::uint64_t key = result_cache_key(setup, params);

    RunResult out;
    if (lookup(key, out)) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        if (hit)
            *hit = true;
        return out;
    }

    // Single-flight: first thread in simulates, the rest block here and
    // then read the entry it stored. If the runner threw (or the store
    // failed), the next waiter finds a miss and simulates itself. While
    // the key sits in the inflight set, gc() treats its entry as pinned.
    class FlightGuard
    {
      public:
        FlightGuard(std::mutex &mu, std::condition_variable &cv,
                    std::unordered_set<std::uint64_t> &inflight, std::uint64_t k)
            : mu_(mu), cv_(cv), inflight_(inflight), key_(k)
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] { return inflight_.count(key_) == 0; });
            inflight_.insert(key_);
        }
        ~FlightGuard()
        {
            {
                std::lock_guard<std::mutex> lock(mu_);
                inflight_.erase(key_);
            }
            cv_.notify_all();
        }
        FlightGuard(const FlightGuard &) = delete;
        FlightGuard &operator=(const FlightGuard &) = delete;

      private:
        std::mutex &mu_;
        std::condition_variable &cv_;
        std::unordered_set<std::uint64_t> &inflight_;
        std::uint64_t key_;
    };

    FlightGuard flight(mu_, cv_, inflight_, key);
    if (lookup(key, out)) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        if (hit)
            *hit = true;
        return out;
    }
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    if (hit)
        *hit = false;
    out = run(); // exceptions propagate; nothing is stored
    store(key, out);
    return out;
}

CacheUsage
ResultCache::usage() const
{
    CacheUsage u;
    std::vector<CacheFile> files;
    std::string error;
    scan_dir(dir_, files, error); // a failed scan accounts what it saw
    for (const CacheFile &f : files) {
        if (f.tmp) {
            ++u.tmp_count;
            u.tmp_bytes += f.size;
        } else {
            ++u.entry_count;
            u.entry_bytes += f.size;
        }
    }
    return u;
}

bool
ResultCache::evictable(std::uint64_t key)
{
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.count(key) == 0;
}

bool
ResultCache::gc(std::uint64_t max_bytes, GcResult &out, std::string &error)
{
    out = GcResult{};
    if (!ok_) {
        error = error_;
        return false;
    }

    std::vector<CacheFile> files;
    if (!scan_dir(dir_, files, error))
        return false;
    std::vector<CacheFile> entries;
    std::uint64_t live_tmp_bytes = 0;
    for (CacheFile &f : files) {
        if (!f.tmp) {
            entries.push_back(std::move(f));
            continue;
        }
        bool active_ours;
        {
            std::lock_guard<std::mutex> lock(mu_);
            active_ours = active_tmps_.count(f.path) != 0;
        }
        const bool ours = f.pid == static_cast<unsigned long>(::getpid());
        // Reap when the writer is provably gone: a dead process, or our
        // own pid with no write in progress. A live *foreign* writer
        // keeps its temp (its bytes still count as kept).
        if (active_ours || (!ours && process_alive(f.pid))) {
            live_tmp_bytes += f.size;
        } else {
            ++out.reaped_tmp;
            out.reaped_tmp_bytes += f.size;
            std::error_code ec;
            std::filesystem::remove(f.path, ec);
        }
    }

    // Oldest access first; the key breaks timestamp ties so the eviction
    // order is deterministic even on coarse-clock filesystems.
    std::sort(entries.begin(), entries.end(), [](const CacheFile &a, const CacheFile &b) {
        if (a.atime.tv_sec != b.atime.tv_sec)
            return a.atime.tv_sec < b.atime.tv_sec;
        if (a.atime.tv_nsec != b.atime.tv_nsec)
            return a.atime.tv_nsec < b.atime.tv_nsec;
        return a.key < b.key;
    });

    std::uint64_t total = live_tmp_bytes;
    for (const CacheFile &e : entries)
        total += e.size;

    std::size_t i = 0;
    std::uint64_t pinned = 0;
    for (; i < entries.size() && total > max_bytes; ++i) {
        const CacheFile &e = entries[i];
        if (!evictable(e.key)) {
            ++pinned; // in-flight fill: never evicted, stays kept
            continue;
        }
        std::error_code rec;
        const bool removed = std::filesystem::remove(e.path, rec);
        if (rec)
            continue; // real I/O error: leave it counted as kept
        total -= e.size; // gone either way (our eviction, or raced away)
        if (!removed)
            continue; // a concurrent lookup evicted it first
        ++out.evicted_entries;
        out.evicted_bytes += e.size;
        stats_.gc_evictions.fetch_add(1, std::memory_order_relaxed);
    }
    out.kept_entries = static_cast<std::uint64_t>(entries.size() - i) + pinned;
    out.kept_bytes = total;
    return true;
}

bool
ResultCache::verify(VerifyResult &out, std::string &error)
{
    out = VerifyResult{};
    if (!ok_) {
        error = error_;
        return false;
    }
    std::vector<CacheFile> files;
    if (!scan_dir(dir_, files, error))
        return false;
    for (const CacheFile &f : files) {
        if (f.tmp)
            continue;
        RunResult scratch;
        bool evicted;
        if (load(f.key, scratch, evicted)) {
            ++out.verified;
            set_atime(f.path, f.atime); // undo what the read did (relatime)
        }
        else if (evicted)
            ++out.evicted;
    }
    return true;
}

} // namespace morpheus
