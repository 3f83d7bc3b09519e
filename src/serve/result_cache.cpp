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

/** Export container prefix (`.mrcx`); records follow back to back. */
struct ExportHeader
{
    std::uint32_t magic;           ///< kResultCacheExportMagic
    std::uint32_t format_version;  ///< kResultCacheVersion
    std::uint64_t entry_count;
};
static_assert(sizeof(ExportHeader) == 16, "export header layout is on-disk format");

std::string
key_hex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
    return buf;
}

/**
 * Full validation of one entry's bytes: every header field, the payload
 * digest, and the payload shape (must deserialize to exactly its end).
 * @param expected_key the key the caller addressed; kAnyKey accepts the
 * header's own key (import path — the header is still self-consistent).
 * @return true and set @p key_out / @p result_out on a valid entry.
 */
constexpr std::uint64_t kAnyKey = ~0ULL;

bool
validate_entry_bytes(std::string_view bytes, std::uint64_t expected_key,
                     std::uint64_t &key_out, RunResult &result_out)
{
    if (bytes.size() < sizeof(EntryHeader))
        return false;
    EntryHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    const std::string_view payload(bytes.data() + sizeof h, bytes.size() - sizeof h);
    if (h.magic != kResultCacheMagic || h.format_version != kResultCacheVersion ||
        h.reserved != 0 || h.payload_size != payload.size() ||
        h.payload_digest != fnv1a64(payload))
        return false;
    if (expected_key != kAnyKey && h.key != expected_key)
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
    key_out = h.key;
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

/** Marks @p path as freshly used: explicit atime-to-now (mtime kept), so
 *  the gc eviction order does not depend on the filesystem's atime mount
 *  options (relatime would otherwise coalesce reads). Best-effort. */
void
bump_atime(const std::string &path)
{
    timespec times[2];
    times[0].tv_nsec = UTIME_NOW;
    times[0].tv_sec = 0;
    times[1].tv_nsec = UTIME_OMIT;
    times[1].tv_sec = 0;
    ::utimensat(AT_FDCWD, path.c_str(), times, 0);
}

/** The pid embedded in a `<key>.mrce.tmp.<pid>.<seq>` name; 0 when the
 *  name does not parse (treated as stale). */
unsigned long
tmp_writer_pid(const std::string &filename)
{
    const std::size_t tag = filename.find(".mrce.tmp.");
    if (tag == std::string::npos)
        return 0;
    const char *p = filename.c_str() + tag + 10;
    char *end = nullptr;
    const unsigned long pid = std::strtoul(p, &end, 10);
    if (end == p || *end != '.')
        return 0;
    return pid;
}

bool
process_alive(unsigned long pid)
{
    if (pid == 0)
        return false;
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

bool
is_tmp_name(const std::string &filename)
{
    return filename.find(".mrce.tmp.") != std::string::npos;
}

bool
is_entry_name(const std::string &filename, std::uint64_t &key)
{
    // <016x>.mrce, nothing more.
    if (filename.size() != 21 || filename.compare(16, 5, ".mrce") != 0)
        return false;
    // `end` points into `hex`, which must outlive the check.
    const std::string hex = filename.substr(0, 16);
    char *end = nullptr;
    key = std::strtoull(hex.c_str(), &end, 16);
    return end && *end == '\0';
}

struct EntryInfo
{
    std::string path;
    std::uint64_t key = 0;
    std::uint64_t size = 0;
    std::int64_t atime_sec = 0;
    std::int64_t atime_nsec = 0;
};

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
    for (const auto &e : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        if (is_tmp_name(name) && !process_alive(tmp_writer_pid(name)))
            std::filesystem::remove(e.path(), ec);
    }
    ok_ = true;
}

std::string
ResultCache::entry_path(std::uint64_t key) const
{
    return dir_ + "/" + key_hex(key) + ".mrce";
}

bool
ResultCache::lookup(std::uint64_t key, RunResult &out)
{
    if (!ok_)
        return false;
    const std::string path = entry_path(key);
    std::string bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false; // absent: a plain miss, nothing to evict
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    const bool read_ok = !std::ferror(f);
    std::fclose(f);

    // Validate everything; ANY failure evicts and misses.
    std::uint64_t stored_key = 0;
    if (!read_ok || !validate_entry_bytes(bytes, key, stored_key, out)) {
        std::remove(path.c_str());
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    bump_atime(path); // hits refresh the gc eviction order
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
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        const std::uint64_t size = e.file_size(ec);
        if (ec) {
            ec.clear();
            continue; // raced a concurrent eviction
        }
        std::uint64_t key;
        if (is_tmp_name(name)) {
            ++u.tmp_count;
            u.tmp_bytes += size;
        } else if (is_entry_name(name, key)) {
            ++u.entry_count;
            u.entry_bytes += size;
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

    std::vector<EntryInfo> entries;
    std::uint64_t live_tmp_bytes = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        const std::string path = e.path().string();
        if (is_tmp_name(name)) {
            struct stat st{};
            if (::stat(path.c_str(), &st) != 0)
                continue; // raced removal
            const unsigned long pid = tmp_writer_pid(name);
            bool active_ours;
            {
                std::lock_guard<std::mutex> lock(mu_);
                active_ours = active_tmps_.count(path) != 0;
            }
            const bool ours = pid == static_cast<unsigned long>(::getpid());
            // Reap when the writer is provably gone: a dead process, or
            // our own pid with no write in progress. A live *foreign*
            // writer keeps its temp (its bytes still count as kept).
            if (active_ours || (!ours && process_alive(pid))) {
                live_tmp_bytes += static_cast<std::uint64_t>(st.st_size);
            } else {
                ++out.reaped_tmp;
                out.reaped_tmp_bytes += static_cast<std::uint64_t>(st.st_size);
                std::filesystem::remove(e.path(), ec);
            }
            continue;
        }
        EntryInfo info;
        if (!is_entry_name(name, info.key))
            continue;
        struct stat st{};
        if (::stat(path.c_str(), &st) != 0)
            continue;
        info.path = path;
        info.size = static_cast<std::uint64_t>(st.st_size);
        info.atime_sec = static_cast<std::int64_t>(st.st_atim.tv_sec);
        info.atime_nsec = static_cast<std::int64_t>(st.st_atim.tv_nsec);
        entries.push_back(std::move(info));
    }
    if (ec) {
        error = "cache scan failed: " + ec.message();
        return false;
    }

    // Oldest access first; the key breaks timestamp ties so the eviction
    // order is deterministic even on coarse-clock filesystems.
    std::sort(entries.begin(), entries.end(), [](const EntryInfo &a, const EntryInfo &b) {
        if (a.atime_sec != b.atime_sec)
            return a.atime_sec < b.atime_sec;
        if (a.atime_nsec != b.atime_nsec)
            return a.atime_nsec < b.atime_nsec;
        return a.key < b.key;
    });

    std::uint64_t total = live_tmp_bytes;
    for (const EntryInfo &e : entries)
        total += e.size;

    std::size_t i = 0;
    std::uint64_t pinned = 0;
    for (; i < entries.size() && total > max_bytes; ++i) {
        const EntryInfo &e = entries[i];
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
ResultCache::export_entries(const std::string &path, std::uint64_t &count,
                            std::string &error)
{
    count = 0;
    if (!ok_) {
        error = error_;
        return false;
    }

    // Collect keys first (sorted for a deterministic container), then
    // re-read each entry through full validation.
    std::vector<std::uint64_t> keys;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir_, ec)) {
        std::uint64_t key;
        if (is_entry_name(e.path().filename().string(), key))
            keys.push_back(key);
    }
    if (ec) {
        error = "cache scan failed: " + ec.message();
        return false;
    }
    std::sort(keys.begin(), keys.end());

    std::string body;
    for (std::uint64_t key : keys) {
        std::string bytes;
        if (!read_file(entry_path(key), bytes))
            continue; // raced an eviction
        std::uint64_t stored_key = 0;
        RunResult scratch;
        if (!validate_entry_bytes(bytes, key, stored_key, scratch)) {
            std::remove(entry_path(key).c_str());
            stats_.evictions.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        body += bytes;
        ++count;
    }

    ExportHeader h;
    h.magic = kResultCacheExportMagic;
    h.format_version = kResultCacheVersion;
    h.entry_count = count;

    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        error = "cannot write " + tmp + ": " + std::strerror(errno);
        return false;
    }
    const bool wrote = std::fwrite(&h, 1, sizeof h, f) == sizeof h &&
                       std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        error = "cannot write " + path;
        return false;
    }
    return true;
}

bool
ResultCache::import_entries(const std::string &path, ImportResult &out,
                            std::string &error)
{
    out = ImportResult{};
    if (!ok_) {
        error = error_;
        return false;
    }
    std::string bytes;
    if (!read_file(path, bytes)) {
        error = "cannot read " + path;
        return false;
    }
    if (bytes.size() < sizeof(ExportHeader)) {
        error = "not an export container (truncated header)";
        return false;
    }
    ExportHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    if (h.magic != kResultCacheExportMagic) {
        error = "not an export container (bad magic)";
        return false;
    }
    if (h.format_version != kResultCacheVersion) {
        error = "export container format v" + std::to_string(h.format_version) +
                " does not match this build's v" + std::to_string(kResultCacheVersion);
        return false;
    }

    std::size_t off = sizeof(ExportHeader);
    for (std::uint64_t i = 0; i < h.entry_count; ++i) {
        if (bytes.size() - off < sizeof(EntryHeader)) {
            error = "record " + std::to_string(i) + ": truncated header";
            return false;
        }
        EntryHeader eh;
        std::memcpy(&eh, bytes.data() + off, sizeof eh);
        if (eh.payload_size > bytes.size() - off - sizeof eh) {
            error = "record " + std::to_string(i) + ": payload overruns container";
            return false;
        }
        const std::string_view record(bytes.data() + off,
                                      sizeof eh + static_cast<std::size_t>(eh.payload_size));
        std::uint64_t key = 0;
        RunResult scratch;
        if (!validate_entry_bytes(record, kAnyKey, key, scratch)) {
            error = "record " + std::to_string(i) + ": failed validation";
            return false;
        }
        // Publish through the normal temp + rename protocol.
        const std::string entry = entry_path(key);
        const bool existed = std::filesystem::exists(entry);
        const std::string tmp =
            entry + ".tmp." + std::to_string(static_cast<unsigned long>(::getpid())) + "." +
            std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed));
        {
            std::lock_guard<std::mutex> lock(mu_);
            active_tmps_.insert(tmp);
        }
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        const bool wrote = f && std::fwrite(record.data(), 1, record.size(), f) ==
                                    record.size();
        const bool closed = f && std::fclose(f) == 0;
        const bool renamed =
            wrote && closed && std::rename(tmp.c_str(), entry.c_str()) == 0;
        if (!renamed)
            std::remove(tmp.c_str());
        {
            std::lock_guard<std::mutex> lock(mu_);
            active_tmps_.erase(tmp);
        }
        if (!renamed) {
            error = "record " + std::to_string(i) + ": cannot write entry";
            return false;
        }
        ++out.imported;
        if (existed)
            ++out.replaced;
        off += record.size();
    }
    if (off != bytes.size()) {
        error = "container has " + std::to_string(bytes.size() - off) +
                " trailing bytes after the last record";
        return false;
    }
    return true;
}

} // namespace morpheus
