#ifndef MORPHEUS_SERVE_RESULT_CACHE_HPP_
#define MORPHEUS_SERVE_RESULT_CACHE_HPP_

/**
 * @file
 * On-disk content-addressed memoization of completed simulations
 * (docs/CACHE_FORMAT.md).
 *
 * Every (SystemSetup, WorkloadParams) pair canonicalizes to a byte
 * string (harness/config_codec.hpp); its FNV-1a 64 digest — salted with
 * the cache format version and the report schema version — is the
 * content key, and `<key-hex>.mrce` under the cache directory holds the
 * bit-exact RunResult of that configuration. Because the payload is
 * RunResult::state() (every field, doubles as bit patterns), a report
 * assembled from cache hits is byte-identical to one from fresh runs.
 *
 * Entries are written to a uniquely-named temp file and renamed into
 * place, so readers only ever see absent or complete entries; a writer
 * killed mid-fill leaves a `.tmp.` orphan that is ignored and swept.
 * Every load re-validates the full self-identifying header (magic,
 * version, key, payload size + digest) and the payload shape; ANY
 * mismatch — torn write, bit rot, stale format, hand-crafted garbage —
 * evicts the entry and reports a miss, never a wrong result
 * (tests/test_result_cache_fuzz.cpp holds this line). The `.mrce` file
 * is the only format: a cache moves by copying its `*.mrce` files,
 * and the first lookup evicts whatever arrived torn or misnamed.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>

#include "harness/sweep_engine.hpp"

namespace morpheus {

/** On-disk format version; bump on ANY change to the entry layout or to
 *  the key derivation (config_codec templates, key salt, header shape).
 *  Old entries then fail validation wholesale and refill — stale bytes
 *  are never reinterpreted. History in docs/CACHE_FORMAT.md.
 *  v2: ExtLlcParams.service_overhead default recalibrated 24 -> 167
 *  (Figure 5 extended-hit anchor) — a default-value change alters what
 *  a cached configuration computes. */
inline constexpr std::uint32_t kResultCacheVersion = 2;

/** Entry file magic: "MRCE" little-endian (Morpheus Result Cache Entry). */
inline constexpr std::uint32_t kResultCacheMagic = 0x4543524DU;

/** Content key of one simulation configuration: FNV-1a 64 over the
 *  canonical bytes of (cache version, report schema version, setup,
 *  params). Identical on every platform and process — keys are portable
 *  cache identities, pinned by tests/test_result_cache.cpp. */
std::uint64_t result_cache_key(const SystemSetup &setup, const WorkloadParams &params);

/** Monotonic operation counters (one process's view of one cache). */
struct CacheStats
{
    std::atomic<std::uint64_t> hits{0};       ///< served from disk
    std::atomic<std::uint64_t> misses{0};     ///< simulated (no valid entry)
    std::atomic<std::uint64_t> stores{0};     ///< entries written
    std::atomic<std::uint64_t> evictions{0};  ///< invalid entries deleted
};

/**
 * The on-disk store behind `--cache-dir`. Safe for concurrent use by
 * any number of threads; multiple processes may share a directory
 * (atomic rename keeps entries torn-proof; cross-process duplicate fills
 * are benign last-writer-wins races on identical bytes).
 *
 * In-process, get_or_run() single-flights each key: one thread
 * simulates while the rest wait and then read the freshly stored entry,
 * so N concurrent requests for one uncached configuration cost one
 * simulation (ResultCacheConcurrency in tests/test_result_cache.cpp).
 */
class ResultCache : public ResultStore
{
  public:
    /** Creates @p dir (and parents) if needed; on failure ok() is false
     *  and every operation degrades to a plain run (no caching). */
    explicit ResultCache(std::string dir);

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    const std::string &dir() const { return dir_; }
    CacheStats &stats() { return stats_; }

    /** Entry path for @p key: `<dir>/<016x key>.mrce`. */
    std::string entry_path(std::uint64_t key) const;

    /**
     * Loads and fully validates the entry for @p key. @return true and
     * fill @p out on a valid entry; false on absent OR invalid (an
     * invalid entry is evicted first). Never throws on bad bytes.
     */
    bool lookup(std::uint64_t key, RunResult &out);

    /** Serializes @p r and publishes it under @p key (temp + rename).
     *  @return false on I/O failure (the cache then just misses). */
    bool store(std::uint64_t key, const RunResult &r);

    /** lookup-or-(run+store) with in-process single-flight per key. */
    RunResult get_or_run(const SystemSetup &setup, const WorkloadParams &params,
                         const std::function<RunResult()> &run, bool *hit = nullptr) override;

  private:
    std::string dir_;
    bool ok_ = false;
    std::string error_;
    CacheStats stats_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_set<std::uint64_t> inflight_;
    std::atomic<std::uint64_t> tmp_seq_{0};
};

} // namespace morpheus

#endif // MORPHEUS_SERVE_RESULT_CACHE_HPP_
