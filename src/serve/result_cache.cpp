#include "serve/result_cache.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

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

bool
process_alive(unsigned long pid)
{
    if (pid == 0)
        return false;
    return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/** The writer pid in a temp file name, @p p pointing just past its
 *  `.mrce.tmp.` tag (`<pid>.<seq>` follows); 0, which is never alive,
 *  when the name does not parse. */
unsigned long
tmp_writer_pid(const char *p)
{
    char *end = nullptr;
    const unsigned long pid = std::strtoul(p, &end, 10);
    return end == p || *end != '.' ? 0 : pid;
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
    // would turn that store into a spurious miss. An unreadable
    // directory just sweeps nothing.
    static constexpr std::string_view kTmpTag = ".mrce.tmp.";
    for (const auto &e : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = e.path().filename().string();
        const std::size_t tag = name.find(kTmpTag);
        if (tag == std::string::npos ||
            process_alive(tmp_writer_pid(name.c_str() + tag + kTmpTag.size())))
            continue;
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
    errno = 0;
    const bool read = read_file(path, bytes);
    if (!read && errno == ENOENT)
        return false; // absent: a plain miss, nothing to evict

    // Validate everything; ANY failure evicts and misses.
    if (!read || !validate_entry_bytes(bytes, key, out)) {
        std::remove(path.c_str());
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
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
    // bytes, and a crash leaves only an ignorable `.tmp.` orphan that
    // the next open sweeps once this process is gone.
    const std::string path = entry_path(key);
    const std::string tmp = path + ".tmp." +
                            std::to_string(static_cast<unsigned long>(::getpid())) + "." +
                            std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote = std::fwrite(&h, 1, sizeof h, f) == sizeof h &&
                       std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
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
    // failed), the next waiter finds a miss and simulates itself.
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

} // namespace morpheus
