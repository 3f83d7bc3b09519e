/**
 * @file
 * Host-speed benchmark of the Morpheus simulator.
 *
 *   morpheus_perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *                      [--git-sha SHA] [--tree-digest HEX]
 *
 * Runs one workload (see kWorkloads) repeatedly for about S seconds and
 * prints its metrics; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones, measured with tracing off and
 * corrected for the host's speed (see probe_call). With
 * --trace 1 the run alternates untraced and traced repetitions and the
 * metrics are the per-layer ones: work counts read from the component
 * accessors after each job, host time from spans taken around the
 * benchmark's own calls into each layer, and the tracing overhead. The
 * spans are written as Chrome trace-event JSON into DIR.
 *
 * The simulator is driven only through its public entry points:
 * SyntheticWorkload, make_system, GpuSystem, SweepEngine, ResultCache and
 * RunReport. Every job starts from freshly built components, so modelled
 * caches start empty (no warm-up).
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "gpu/gpu_system.hpp"
#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "harness/system_config.hpp"
#include "morpheus/morpheus_controller.hpp"
#include "serve/result_cache.hpp"
#include "trace.hpp"
#include "workloads/app_catalog.hpp"
#include "workloads/synthetic_workload.hpp"

namespace perfbench {
namespace {

using namespace morpheus;

#ifdef NDEBUG
constexpr bool kAssertions = false;
#else
constexpr bool kAssertions = true;
#endif

/** Width of one traced advance_to() window, simulated cycles. */
constexpr Cycle kTraceWindow = 1024;
/** Times the set-up is built per untraced repetition. setup_s is a
 *  median over many builds, since one build takes milliseconds. */
constexpr int kSetups = 20;
/** The same for the sweep, whose set-up (cache directory and job lists)
 *  takes a fraction of a millisecond. */
constexpr int kSweepSetups = 100;
/** Measuring stops here whatever --seconds says, so a run on a slow host
 *  still ends inside its time limit. */
constexpr double kMaxMeasureS = 120;

/**
 * One benchmark workload. The scale multiplies every profile's
 * instruction budget (MORPHEUS_WORK_SCALE). The serial workloads run at
 * full scale. The sweep runs at 0.35, the smallest scale at which the
 * catalog still shrinks the shared working sets with the budget; the
 * modelled caches keep their size, so its hit rates differ from full
 * scale (perfbench/README.md gives both mixes and the reasons for each
 * choice).
 */
struct WorkloadDef
{
    const char *name;
    double work_scale;
    std::size_t min_reps;            ///< fewest untraced repetitions a run reports on
    bool sweep;                      ///< the fig12 grid via SweepEngine + ResultCache
    SystemKind system;               ///< serial workloads: the system of every job
    std::vector<const char *> apps;  ///< serial workloads: profiles, in run order
};

const std::vector<WorkloadDef> kWorkloads = {
    {"membound_bl", 1.0, 3, false, SystemKind::kBL, {"p-bfs", "stencil", "nw", "lbm"}},
    {"membound_morpheus", 1.0, 3, false, SystemKind::kMorpheusAll,
     {"p-bfs", "stencil", "nw", "lbm"}},
    {"fig12_sweep", 0.35, 2, true, SystemKind::kBL, {}},
};

double
now_s()
{
    return now_us() * 1e-6;
}

/** Process user + system CPU seconds (every thread). */
double
cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t
fnv64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Host-speed probe

/** Calls of the probe kernel per thread at each probe point: serial
 *  workloads probe before every job, the sweep only around its 15-s cold
 *  pass, so it takes more calls there. */
constexpr int kProbeCalls = 5;
constexpr int kSweepProbeCalls = 15;
/** The probe kernel's median call time on the 4-vCPU Xeon the bounds were
 *  set on. Corrected times are raw times scaled to a host on which the
 *  kernel takes exactly this long. */
constexpr double kProbeNominalS = 6.5e-3;

/** The probe's table: 8 MiB, so it lives in the shared last-level cache
 *  like much of the simulator's state. */
const std::vector<std::uint32_t> &
probe_table()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1u << 21);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(i * 2246822519u);
        return t;
    }();
    return table;
}

/**
 * How fast the host runs right now. The machine's speed moves by up to
 * half between states lasting seconds to minutes (perfbench/README.md,
 * "Noise"), on wall and CPU time alike. The probe is a fixed event loop in
 * miniature, which nothing outside this file can change: a binary heap of
 * 4096 timed events, each pop reading the table at a hashed index and
 * pushing the next event. It slows with the host much as the simulator
 * does; corrected by a plain integer kernel, times spread three times as much.
 * It is timed outside the timed region: before each serial job and after
 * the last, and on every worker thread before and after the sweep's cold
 * pass. A repetition's end-to-end times are divided by its median call
 * time relative to kProbeNominalS.
 */
double
probe_call()
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, id)
    const std::vector<std::uint32_t> &table = probe_table();
    const double t0 = now_s();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    for (std::uint32_t i = 0; i < 4096; ++i)
        queue.push({i * 97u % 4096u, i});
    std::uint64_t sum = 0;
    for (int n = 0; n < 30000; ++n) {
        const auto [time, id] = queue.top();
        queue.pop();
        const std::uint32_t v = table[(id * 2654435761u + time) & (table.size() - 1)];
        sum += v;
        queue.push({time + 1 + (v & 63) + (v & 1 ? 7 : 0), v ^ id});
    }
    const double t = now_s() - t0;
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(sum, std::memory_order_relaxed);  // keeps the loop
    return t;
}

/** @p calls probe calls on each of @p threads threads at once (the
 *  number the timed region keeps busy); appends every call's time. */
void
probe(unsigned threads, int calls, std::vector<double> &out)
{
    std::vector<std::vector<double>> per(threads);
    auto run = [calls](std::vector<double> &v) {
        // Read the whole table first, so its place in the caches does not
        // depend on what ran before.
        std::uint64_t sum = 0;
        for (std::uint32_t x : probe_table())
            sum += x;
        static std::atomic<std::uint64_t> sink{0};
        sink.fetch_xor(sum, std::memory_order_relaxed);
        for (int i = 0; i < calls; ++i)
            v.push_back(probe_call());
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(run, std::ref(per[t]));
    run(per[0]);
    for (std::thread &th : pool)
        th.join();
    for (const auto &v : per)
        out.insert(out.end(), v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// Jobs

struct JobSpec
{
    std::string label;
    SystemSetup setup;
    WorkloadParams params;
};

/** The catalog profile with its input seed derived from the benchmark seed;
 *  the simulator sees only the generated params. */
AppSpec
seeded(const AppSpec &app, std::uint64_t seed)
{
    AppSpec out = app;
    out.params.seed = mix64(seed ^ fnv64(app.params.name));
    return out;
}

std::vector<JobSpec>
make_jobs(const WorkloadDef &def, std::uint64_t seed)
{
    std::vector<JobSpec> jobs;
    auto add = [&jobs](SystemKind kind, const AppSpec &app) {
        jobs.push_back(JobSpec{app.params.name + "/" + system_name(kind),
                               make_system(kind, app), app.params});
    };
    if (def.sweep) {
        // The fig12 scenario's grid: each app's BL normalizer, then the
        // eight evaluated systems.
        for (const AppSpec &base : app_catalog()) {
            const AppSpec app = seeded(base, seed);
            add(SystemKind::kBL, app);
            for (SystemKind s : fig12_systems())
                add(s, app);
        }
    } else {
        for (const char *name : def.apps)
            add(def.system, seeded(*find_app(name), seed));
    }
    return jobs;
}

/** Where a job's spans go: the tracer (null when untraced), the id the
 *  job's spans share, and the span that caused them. */
struct JobTrace
{
    Tracer *tracer = nullptr;
    std::uint64_t job = 0;
    std::uint64_t parent = 0;
};

/** The components of one simulation job. */
struct Sim
{
    std::unique_ptr<SyntheticWorkload> workload;
    std::unique_ptr<GpuSystem> system;
};

Sim
build_sim(const SystemSetup &setup, const WorkloadParams &params, const JobTrace &t)
{
    Sim sim;
    double t0 = t.tracer ? now_us() : 0;
    sim.workload = std::make_unique<SyntheticWorkload>(params);
    if (t.tracer) {
        t.tracer->record("SyntheticWorkload", "workloads", t0, t.job, t.parent);
        t0 = now_us();
    }
    sim.system = std::make_unique<GpuSystem>(setup, *sim.workload);
    if (t.tracer)
        t.tracer->record("GpuSystem", "gpu", t0, t.job, t.parent);
    return sim;
}

/** Untraced: GpuSystem::run(). Traced: the same run cut into fixed-width
 *  advance_to() windows, one span each — the chunking GpuSystem::run uses
 *  for checkpoints, bit-identical to the unchunked loop (checked: a
 *  traced result that differs from the untraced one is a failed job). */
RunResult
run_sim(Sim &sim, const JobTrace &t)
{
    GpuSystem &sys = *sim.system;
    if (!t.tracer)
        return sys.run();
    sys.begin_run();
    const Cycle target = sys.setup().cfg.max_cycles;
    for (Cycle boundary = kTraceWindow;; boundary += kTraceWindow) {
        const Cycle stop = std::min(boundary, target);
        const std::uint64_t before = sys.event_queue().executed();
        const double t0 = now_us();
        sys.advance_to(stop);
        t.tracer->record("advance_to", "sim", t0, t.job, t.parent,
                         sys.event_queue().executed() - before);
        if (sys.event_queue().empty() || stop == target)
            break;
    }
    const double t0 = now_us();
    RunResult r = sys.collect_results();
    t.tracer->record("collect_results", "gpu", t0, t.job, t.parent);
    return r;
}

// ---------------------------------------------------------------------------
// Per-layer work counts

/** Work counts summed over jobs, keyed by metric (or raw counter) name. */
struct LayerCounts
{
    std::map<std::string, double> sum;
    double mshr_peak = 0;

    double
    get(const std::string &key) const
    {
        const auto it = sum.find(key);
        return it == sum.end() ? 0.0 : it->second;
    }

    void
    merge(const LayerCounts &o)
    {
        for (const auto &[k, v] : o.sum)
            sum[k] += v;
        mshr_peak = std::max(mshr_peak, o.mshr_peak);
    }
};

/** Reads every layer's counters from a finished job's components. */
void
count_layers(LayerCounts &c, Sim &sim, const RunResult &r)
{
    GpuSystem &sys = *sim.system;
    auto &s = c.sum;
    s["jobs"] += 1;
    s["sim.events"] += static_cast<double>(sys.event_queue().executed());
    s["sim.cycles"] += static_cast<double>(r.cycles);
    for (std::uint32_t i = 0; i < sys.num_compute_sms(); ++i) {
        Sm &sm = sys.sm(i);
        s["gpu.sm.issue_events"] += static_cast<double>(sm.issue_events());
        s["gpu.sm.instructions"] += static_cast<double>(sm.instructions());
        s["gpu.sm.mem_instructions"] += static_cast<double>(sm.mem_instructions());
        s["l1.hits"] += static_cast<double>(sm.l1().hits());
        s["l1.misses"] += static_cast<double>(sm.l1().misses());
        s["gpu.l1.mshr_merged"] += static_cast<double>(sm.l1().mshrs().merged());
        c.mshr_peak =
            std::max(c.mshr_peak, static_cast<double>(sm.l1().mshrs().peak_occupancy()));
    }
    for (std::uint32_t p = 0; p < sys.num_partitions(); ++p) {
        LlcPartition &part = sys.partition(p);
        s["gpu.llc.accesses"] += static_cast<double>(part.accesses());
        s["llc.hits"] += static_cast<double>(part.hits());
        s["llc.misses"] += static_cast<double>(part.misses());
        s["gpu.llc.writebacks"] += static_cast<double>(part.cache().writebacks());
        if (const MorpheusController *mc = sys.controller(p)) {
            s["morpheus.ext_requests"] += static_cast<double>(mc->ext_requests());
            s["morpheus.pred.predicted_hits"] += static_cast<double>(mc->predicted_hits());
            s["morpheus.pred.predicted_misses"] += static_cast<double>(mc->predicted_misses());
            s["pred.false_positives"] += static_cast<double>(mc->false_positives());
            s["morpheus.query.requests"] +=
                static_cast<double>(mc->query_logic().total_requests());
        }
    }
    s["noc.transfers"] += static_cast<double>(sys.noc().transfers());
    s["noc.bytes"] += static_cast<double>(sys.noc().injected_bytes());
    s["noc.latency_sum"] += sys.noc().transfer_latency().sum();
    s["noc.latency_count"] += static_cast<double>(sys.noc().transfer_latency().count());
    s["mem.dram.reads"] += static_cast<double>(sys.dram().reads());
    s["mem.dram.writes"] += static_cast<double>(sys.dram().writes());
    s["dram.row_hits"] += static_cast<double>(sys.dram().row_hits());
    s["dram.row_misses"] += static_cast<double>(sys.dram().row_misses());
    s["dram.utilization_sum"] += r.dram_utilization;
    s["mem.store.writes"] += static_cast<double>(sys.store().writes());
    if (ExtendedLlc *ext = sys.extended_llc()) {
        s["morpheus.kernel.served"] += static_cast<double>(ext->served());
        s["kernel.hits"] += static_cast<double>(ext->hits());
        s["kernel.misses"] += static_cast<double>(ext->misses());
        s["morpheus.kernel.instructions"] += static_cast<double>(ext->kernel_instructions());
        for (std::uint32_t k = 0; k < ext->num_cache_sms(); ++k) {
            s["morpheus.kernel.insert_tasks"] += static_cast<double>(ext->sm(k).insert_tasks());
            s["morpheus.kernel.merged_requests"] +=
                static_cast<double>(ext->sm(k).merged_requests());
        }
        s["cache.bdi.inserts_high"] += static_cast<double>(ext->comp_insertions(CompLevel::kHigh));
        s["cache.bdi.inserts_low"] += static_cast<double>(ext->comp_insertions(CompLevel::kLow));
        s["cache.bdi.inserts_uncompressed"] +=
            static_cast<double>(ext->comp_insertions(CompLevel::kUncompressed));
    }
    s["workloads.footprint_bytes"] += static_cast<double>(sim.workload->footprint_bytes());
}

// ---------------------------------------------------------------------------
// Repetitions

/** What one repetition of a workload measured. */
struct Rep
{
    double setup_s = 0;          ///< median of this repetition's set-up builds
    std::vector<double> setups;  ///< every set-up build's time
    std::vector<double> probes;  ///< probe call times, before and after the timed region
    double wall_s = 0;  ///< the timed region: every job's run (sweep: the cold pass)
    double cpu_s = 0;
    double cycles = 0;  ///< simulated work inside the timed region
    double instructions = 0;
    double events = 0;
    /** One result per job, in job order; a job that threw keeps a default
     *  RunResult, which the output check rejects. */
    std::vector<RunResult> results;
    /** Sweep: the warm pass's results (cache lookups only). */
    std::vector<RunResult> warm_results;
    /** Failures outside any one job's result (report or cache I/O, a warm
     *  pass that had to simulate). */
    std::uint64_t extra_failures = 0;
    LayerCounts layers;                    ///< traced repetitions only
    std::map<std::string, double> timing;  ///< traced: per-layer host time
};

Rep
serial_rep(const std::vector<JobSpec> &jobs, Tracer *tracer)
{
    Rep rep;
    const std::size_t n = jobs.size();
    const std::uint64_t rep_id = tracer ? tracer->next_id() : 0;
    const double rep_start = now_us();

    // Set-up. Untraced, it is built several times and the last build is
    // run; traced, once, so the build spans cover one build.
    std::vector<JobTrace> traces(n);
    for (std::size_t i = 0; i < n; ++i)
        traces[i] = JobTrace{tracer, tracer ? tracer->next_id() : 0, rep_id};
    std::vector<Sim> sims;
    for (int k = 0; k < (tracer ? 1 : kSetups); ++k) {
        sims = std::vector<Sim>(n);
        const double start = now_s();
        for (std::size_t i = 0; i < n; ++i) {
            try {
                sims[i] = build_sim(jobs[i].setup, jobs[i].params, traces[i]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s: build failed: %s\n", jobs[i].label.c_str(),
                             e.what());
            }
        }
        rep.setups.push_back(now_s() - start);
    }
    rep.setup_s = median(rep.setups);

    // The timed region is every job's run; the host is probed before
    // each job and after the last, outside it.
    rep.results.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        probe(1, kProbeCalls, rep.probes);
        if (!sims[i].system)
            continue;
        const double c0 = cpu_s();
        const double t0 = now_s();
        try {
            rep.results[i] = run_sim(sims[i], traces[i]);
            rep.events += static_cast<double>(sims[i].system->event_queue().executed());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s: run failed: %s\n", jobs[i].label.c_str(), e.what());
        }
        rep.wall_s += now_s() - t0;
        rep.cpu_s += cpu_s() - c0;
    }
    probe(1, kProbeCalls, rep.probes);
    for (const RunResult &r : rep.results) {
        rep.cycles += static_cast<double>(r.cycles);
        rep.instructions += static_cast<double>(r.instructions);
    }
    if (tracer) {
        for (std::size_t i = 0; i < n; ++i) {
            if (sims[i].system)
                count_layers(rep.layers, sims[i], rep.results[i]);
        }
        tracer->record("repetition", "bench", rep_start, 0, 0, 0, rep_id);
    }
    return rep;
}

/**
 * The sweep's result store: ResultCache::get_or_run (lookup, single-flight
 * per key, store), called with a run callback that does what the engine's
 * own does under a default SweepConfig — run_setup_controlled, i.e.
 * SyntheticWorkload + GpuSystem + run() — but keeps the components, so
 * the job's executed events and, when traced, its layer counts can be
 * read. Traced, the call is cut into spans at the callback's edges: the
 * cache's lookup before it, the store after it.
 */
class SweepStore final : public ResultStore
{
  public:
    SweepStore(ResultCache &cache, Tracer *tracer) : cache_(cache), tracer_(tracer) {}

    /** Span that the next jobs' spans hang under (the run_all span). */
    void set_parent(std::uint64_t parent) { parent_ = parent; }

    RunResult
    get_or_run(const SystemSetup &setup, const WorkloadParams &params,
               const std::function<RunResult()> &, bool *hit) override
    {
        const std::uint64_t job = tracer_ ? tracer_->next_id() : 0;
        const JobTrace t{tracer_, job, job};
        const double start = tracer_ ? now_us() : 0;
        double run_start = 0;
        double run_end = 0;
        RunResult r = cache_.get_or_run(
            setup, params,
            [&] {
                run_start = tracer_ ? now_us() : 0;
                Sim sim = build_sim(setup, params, t);
                RunResult out = run_sim(sim, t);
                LayerCounts c;
                if (tracer_)
                    count_layers(c, sim, out);
                std::lock_guard<std::mutex> lock(mu_);
                ++simulated_;
                events_ += static_cast<double>(sim.system->event_queue().executed());
                cycles_ += static_cast<double>(out.cycles);
                instructions_ += static_cast<double>(out.instructions);
                layers_.merge(c);
                run_end = tracer_ ? now_us() : 0;
                return out;
            },
            hit);
        if (tracer_) {
            const double end = now_us();
            const bool ran = run_end > 0;
            tracer_->record_until("ResultCache::lookup", "serve", start, ran ? run_start : end,
                                  job, job);
            if (ran)
                tracer_->record_until("ResultCache::store", "serve", run_end, end, job, job);
            tracer_->record("job " + params.name, "bench", start, job, parent_, 0, job);
        }
        return r;
    }

    std::uint64_t simulated() const { return simulated_; }
    double events() const { return events_; }
    double cycles() const { return cycles_; }
    double instructions() const { return instructions_; }
    const LayerCounts &layers() const { return layers_; }

  private:
    ResultCache &cache_;
    Tracer *tracer_;
    std::uint64_t parent_ = 0;

    std::mutex mu_;
    std::uint64_t simulated_ = 0;
    double events_ = 0;
    double cycles_ = 0;
    double instructions_ = 0;
    LayerCounts layers_;
};

/** Everything the sweep builds before its timed region. */
struct SweepSetup
{
    SweepSetup(const std::vector<JobSpec> &jobs, unsigned workers, const std::string &cache_dir,
               Tracer *tracer)
        : cache(cache_dir), store(cache, tracer), report("fig12_performance"), cold(workers),
          warm(workers)
    {
        SweepConfig config;
        config.store = &store;
        config.tolerant = true;  // a failed job becomes a default result the check rejects
        config.retries = 0;
        cold.set_config(config);
        warm.set_config(config);
        cold.set_report(&report);
        for (const JobSpec &job : jobs) {
            cold.add(job.setup, job.params, job.label);
            warm.add(job.setup, job.params, job.label);
        }
    }

    ResultCache cache;
    SweepStore store;
    RunReport report;
    SweepEngine cold;
    SweepEngine warm;
};

/** Bytes of the cache's entry files (ResultCache::usage() is not used: its
 *  entry-name parsing reads a destroyed temporary). */
double
cache_entry_bytes(const std::string &dir)
{
    double bytes = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
        if (e.path().extension() == ".mrce")
            bytes += static_cast<double>(e.file_size(ec));
    }
    return bytes;
}

Rep
sweep_rep(const std::vector<JobSpec> &jobs, unsigned workers, const std::string &dir,
          Tracer *tracer)
{
    Rep rep;
    const std::uint64_t rep_id = tracer ? tracer->next_id() : 0;
    const double rep_start = now_us();

    // Set-up: a fresh cache directory and both passes' job lists, built
    // many times since one build is too short to time alone.
    const std::string cache_dir = dir + "/sweep-cache";
    std::unique_ptr<SweepSetup> s;
    for (int i = 0; i < kSweepSetups; ++i) {
        s.reset();
        std::filesystem::remove_all(cache_dir);
        const double t0 = now_s();
        s = std::make_unique<SweepSetup>(jobs, workers, cache_dir, tracer);
        rep.setups.push_back(now_s() - t0);
    }
    rep.setup_s = median(rep.setups);
    if (!s->cache.ok())
        ++rep.extra_failures;

    // Cold pass (the timed region): every configuration simulates once
    // and is stored; duplicates in the grid are served from the cache.
    const std::uint64_t cold_id = tracer ? tracer->next_id() : 0;
    s->store.set_parent(cold_id);
    probe(workers, kSweepProbeCalls, rep.probes);
    const double c0 = cpu_s();
    const double cold_start = now_us();
    double t0 = now_s();
    for (auto &l : s->cold.run_all())
        rep.results.push_back(std::move(l.value));
    rep.wall_s = now_s() - t0;
    rep.cpu_s = cpu_s() - c0;
    probe(workers, kSweepProbeCalls, rep.probes);
    if (tracer)
        tracer->record("SweepEngine::run_all", "harness", cold_start, 0, rep_id, 0, cold_id);
    rep.cycles = s->store.cycles();
    rep.instructions = s->store.instructions();
    rep.events = s->store.events();
    const std::uint64_t simulated = s->store.simulated();
    const std::uint64_t stores = s->cache.stats().stores.load();

    double span_start = now_us();
    std::string error;
    if (!s->report.save_file(dir + "/sweep-report.json", error)) {
        std::fprintf(stderr, "report write failed: %s\n", error.c_str());
        ++rep.extra_failures;
    }
    if (tracer)
        tracer->record("RunReport::save_file", "harness", span_start, 0, rep_id);

    // Warm pass: the same grid again, lookups only.
    const std::uint64_t warm_id = tracer ? tracer->next_id() : 0;
    s->store.set_parent(warm_id);
    span_start = now_us();
    for (auto &l : s->warm.run_all())
        rep.warm_results.push_back(std::move(l.value));
    if (tracer)
        tracer->record("SweepEngine::run_all (warm)", "harness", span_start, 0, rep_id, 0,
                       warm_id);
    // Every simulated result must have been stored, and the warm pass
    // must not have simulated at all.
    rep.extra_failures += (s->store.simulated() - simulated) + (simulated - stores);

    if (tracer) {
        rep.layers = s->store.layers();
        rep.layers.sum["serve.cache.stores"] = static_cast<double>(stores);
        rep.layers.sum["serve.cache.hits"] = static_cast<double>(s->cache.stats().hits.load());
        rep.layers.sum["serve.cache.entry_bytes"] = cache_entry_bytes(cache_dir);
        tracer->record("repetition", "bench", rep_start, 0, 0, 0, rep_id);
    }
    return rep;
}

// ---------------------------------------------------------------------------
// Output

/** Shortest decimal that reads back as @p v exactly. */
std::string
num(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metrics_json(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + json_str(metrics[i].name) + ": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": " + json_str(metrics[i].unit) + "}";
    }
    return out + "}";
}

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = "unknown";
#endif

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(std::min(colon + 2, line.size()));
        }
    }
    return "unknown";
}

/** Median over repetitions of one per-repetition quantity. */
double
med(const std::vector<Rep> &reps, const std::function<double(const Rep &)> &f)
{
    std::vector<double> v;
    v.reserve(reps.size());
    for (const Rep &r : reps)
        v.push_back(f(r));
    return median(std::move(v));
}

/** Host speed during a repetition relative to the nominal probe host:
 *  above 1 when the host ran the probe slower than nominal. */
double
slowdown(const Rep &r)
{
    return median(r.probes) / kProbeNominalS;
}

/** The end-to-end metrics one repetition measures, corrected for host
 *  speed: times divided by slowdown(), rates multiplied by it. */
std::vector<Metric>
rep_metrics(const Rep &r)
{
    const double wall = r.wall_s / slowdown(r);
    return {
        {"wall_s", wall, "s"},
        {"cpu_s", r.cpu_s / slowdown(r), "s"},
        {"sim_cycles_per_s", ratio(r.cycles, wall), "cycles/s"},
        {"sim_instr_per_s", ratio(r.instructions, wall), "instr/s"},
        {"events_per_s", ratio(r.events, wall), "events/s"},
        {"setup_s", r.setup_s / slowdown(r), "s"},
    };
}

/** Medians over the repetitions, then the per-run metrics. setup_s is
 *  the median over every build of the repetitions after the first: in
 *  the first, the allocator has not yet grown its trim and mmap
 *  thresholds, and the sweep's builds take twice as long. */
std::vector<Metric>
end_to_end(const std::vector<Rep> &plain, double pass_rate)
{
    std::vector<Metric> out = rep_metrics(plain.front());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].value = med(plain, [i](const Rep &r) { return rep_metrics(r)[i].value; });
    std::vector<double> setups;
    for (std::size_t k = plain.size() > 1 ? 1 : 0; k < plain.size(); ++k) {
        for (double t : plain[k].setups)
            setups.push_back(t / slowdown(plain[k]));
    }
    for (Metric &m : out) {
        if (m.name == "setup_s")
            m.value = median(setups);
    }
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    out.push_back({"pass_rate", pass_rate, "fraction"});
    return out;
}

std::vector<Metric>
per_layer(const WorkloadDef &def, std::size_t jobs, unsigned workers,
          const std::vector<Rep> &plain, const std::vector<Rep> &traced,
          const LayerCounts &c, const std::vector<RunResult> &reference)
{
    auto timing = [&traced](const char *key) {
        return med(traced, [key](const Rep &r) {
            const auto it = r.timing.find(key);
            return it == r.timing.end() ? 0.0 : it->second;
        });
    };
    const double run_s = timing("sim.run_s");
    const double events = c.get("sim.events");
    double util_over_1 = 0;
    double llc_sum_mismatch = 0;
    for (const RunResult &r : reference) {
        util_over_1 += r.dram_utilization > 1.0;
        llc_sum_mismatch += r.llc_hits + r.llc_misses != r.llc_accesses;
    }
    const double plain_wall = med(plain, [](const Rep &r) { return r.wall_s; });
    const double traced_wall = med(traced, [](const Rep &r) { return r.wall_s; });
    const double plain_cpu = med(plain, [](const Rep &r) { return r.cpu_s; });
    return {
        {"sim.events", events, "count"},
        {"sim.cycles", c.get("sim.cycles"), "cycles"},
        {"sim.events_per_kcycle", 1000.0 * ratio(events, c.get("sim.cycles")), "1/kcycle"},
        {"sim.run_s", run_s, "s"},
        {"sim.host_ns_per_event", 1e9 * ratio(run_s, events), "ns"},
        {"gpu.system_build_s", timing("gpu.system_build_s"), "s"},
        {"gpu.sm.issue_events", c.get("gpu.sm.issue_events"), "count"},
        {"gpu.sm.instructions", c.get("gpu.sm.instructions"), "count"},
        {"gpu.sm.mem_instructions", c.get("gpu.sm.mem_instructions"), "count"},
        {"gpu.l1.hit_rate", ratio(c.get("l1.hits"), c.get("l1.hits") + c.get("l1.misses")),
         "ratio"},
        {"gpu.l1.mshr_merged", c.get("gpu.l1.mshr_merged"), "count"},
        {"gpu.l1.mshr_peak", c.mshr_peak, "entries"},
        {"gpu.llc.accesses", c.get("gpu.llc.accesses"), "count"},
        {"gpu.llc.hit_rate", ratio(c.get("llc.hits"), c.get("llc.hits") + c.get("llc.misses")),
         "ratio"},
        {"gpu.llc.writebacks", c.get("gpu.llc.writebacks"), "count"},
        {"noc.transfers", c.get("noc.transfers"), "count"},
        {"noc.bytes", c.get("noc.bytes"), "bytes"},
        {"noc.avg_latency_cycles", ratio(c.get("noc.latency_sum"), c.get("noc.latency_count")),
         "cycles"},
        {"mem.dram.reads", c.get("mem.dram.reads"), "count"},
        {"mem.dram.writes", c.get("mem.dram.writes"), "count"},
        {"mem.dram.row_hit_rate",
         ratio(c.get("dram.row_hits"), c.get("dram.row_hits") + c.get("dram.row_misses")),
         "ratio"},
        {"mem.dram.utilization", ratio(c.get("dram.utilization_sum"), c.get("jobs")), "ratio"},
        {"mem.store.writes", c.get("mem.store.writes"), "count"},
        {"morpheus.ext_requests", c.get("morpheus.ext_requests"), "count"},
        {"morpheus.pred.predicted_hits", c.get("morpheus.pred.predicted_hits"), "count"},
        {"morpheus.pred.predicted_misses", c.get("morpheus.pred.predicted_misses"), "count"},
        {"morpheus.pred.false_positive_rate",
         ratio(c.get("pred.false_positives"), c.get("morpheus.pred.predicted_hits")), "ratio"},
        {"morpheus.kernel.served", c.get("morpheus.kernel.served"), "count"},
        {"morpheus.kernel.hit_rate",
         ratio(c.get("kernel.hits"), c.get("kernel.hits") + c.get("kernel.misses")), "ratio"},
        {"morpheus.kernel.insert_tasks", c.get("morpheus.kernel.insert_tasks"), "count"},
        {"morpheus.kernel.merged_requests", c.get("morpheus.kernel.merged_requests"), "count"},
        {"morpheus.kernel.instructions", c.get("morpheus.kernel.instructions"), "count"},
        {"morpheus.query.requests", c.get("morpheus.query.requests"), "count"},
        {"cache.bdi.inserts_high", c.get("cache.bdi.inserts_high"), "count"},
        {"cache.bdi.inserts_low", c.get("cache.bdi.inserts_low"), "count"},
        {"cache.bdi.inserts_uncompressed", c.get("cache.bdi.inserts_uncompressed"), "count"},
        {"workloads.build_s", timing("workloads.build_s"), "s"},
        {"workloads.footprint_bytes", c.get("workloads.footprint_bytes"), "bytes"},
        {"harness.sweep.jobs", def.sweep ? static_cast<double>(jobs) : 0.0, "count"},
        {"harness.sweep.run_all_s", def.sweep ? timing("harness.sweep.run_all_s") : 0.0, "s"},
        {"harness.sweep.parallel_efficiency",
         def.sweep ? ratio(plain_cpu, workers * plain_wall) : 0.0, "ratio"},
        {"harness.report.write_s", timing("harness.report.write_s"), "s"},
        {"serve.cache.stores", c.get("serve.cache.stores"), "count"},
        {"serve.cache.hits", c.get("serve.cache.hits"), "count"},
        {"serve.cache.entry_bytes", c.get("serve.cache.entry_bytes"), "bytes"},
        {"serve.cache.store_us", timing("serve.cache.store_us"), "us"},
        {"serve.cache.lookup_us", timing("serve.cache.lookup_us"), "us"},
        {"serve.cache.warm_pass_s", timing("serve.cache.warm_pass_s"), "s"},
        {"bench.trace_overhead_frac", ratio(traced_wall, plain_wall) - 1.0, "ratio"},
        {"host.probe_ms", 1e3 * med(plain, [](const Rep &r) { return median(r.probes); }), "ms"},
        {"host.wall_raw_s", plain_wall, "s"},
        {"check.dram_util_over_1", util_over_1, "count"},
        {"check.llc_hits_plus_misses_ne_accesses", llc_sum_mismatch, "count"},
    };
}

/** Host time per layer of one traced repetition, from its spans. */
std::map<std::string, double>
layer_timing(const std::map<std::string, SpanTotal> &t)
{
    auto total_s = [&t](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.us * 1e-6;
    };
    auto mean_us = [&t](const char *name) {
        const auto it = t.find(name);
        return it == t.end() ? 0.0 : ratio(it->second.us, static_cast<double>(it->second.count));
    };
    return {
        {"sim.run_s", total_s("advance_to")},
        {"gpu.system_build_s", total_s("GpuSystem")},
        {"workloads.build_s", total_s("SyntheticWorkload")},
        {"harness.sweep.run_all_s", total_s("SweepEngine::run_all")},
        {"harness.report.write_s", total_s("RunReport::save_file")},
        {"serve.cache.store_us", mean_us("ResultCache::store")},
        {"serve.cache.lookup_us", mean_us("ResultCache::lookup")},
        {"serve.cache.warm_pass_s", total_s("SweepEngine::run_all (warm)")},
    };
}

/** The accounting identities every job satisfies on the seed. */
bool
identities_hold(const RunResult &r)
{
    return r.cycles > 0 && r.instructions > 0 &&
           r.ext_requests == r.ext_hits + r.ext_false_positives + r.ext_predicted_misses &&
           r.ext_predicted_hits == r.ext_hits + r.ext_false_positives;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".";
    std::string git_sha = "unknown";
    std::string tree_digest = "unknown";
};

bool
parse_args(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::string_view(v) == "1";
        else if (k == "--out")
            a.out = v;
        else if (k == "--git-sha")
            a.git_sha = v;
        else if (k == "--tree-digest")
            a.tree_digest = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int
run(int argc, char **argv)
{
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr, "usage: morpheus_perfbench --workload NAME --seed N --seconds S "
                             "--trace 0|1 --out DIR [--git-sha SHA] [--tree-digest HEX]\n");
        return 2;
    }
    if (kAssertions) {
        // SweepEngine::run_all re-runs its first job as a canary in such
        // builds, which would skew every sweep timing.
        std::fprintf(stderr, "morpheus_perfbench: refusing to report from a build with "
                             "assertions enabled (NDEBUG is not defined)\n");
        return 3;
    }
    const auto def = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                                  [&](const WorkloadDef &d) { return args.workload == d.name; });
    if (def == kWorkloads.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    // Must precede the first app_catalog() call, which reads it once.
    setenv("MORPHEUS_WORK_SCALE", num(def->work_scale).c_str(), 1);
    std::filesystem::create_directories(args.out);

    const std::vector<JobSpec> jobs = make_jobs(*def, args.seed);
    const unsigned workers = std::max(1u, std::thread::hardware_concurrency());
    const std::string stem =
        args.out + "/" + def->name + "-seed" + std::to_string(args.seed);

    Tracer tracer;
    std::vector<Rep> plain;
    std::vector<Rep> traced;
    auto rep = [&](Tracer *t) {
        return def->sweep ? sweep_rep(jobs, workers, args.out, t) : serial_rep(jobs, t);
    };
    // Repeat while another repetition, taking as long as the last one,
    // would still end within --seconds; never stop short of min_reps.
    const double start = now_s();
    for (;;) {
        const double rep_start = now_s();
        plain.push_back(rep(nullptr));
        if (args.trace) {
            const std::size_t from = tracer.size();
            traced.push_back(rep(&tracer));
            traced.back().timing = layer_timing(tracer.totals(from, tracer.size()));
        }
        const double elapsed = now_s() - start;
        const double last = now_s() - rep_start;
        if ((elapsed + last > args.seconds && plain.size() >= def->min_reps) ||
            elapsed >= kMaxMeasureS)
            break;
    }

    // Output check: every job of every repetition — untraced, traced and
    // the sweep's warm pass — must satisfy the accounting identities and
    // match the first untraced repetition bit for bit.
    const std::vector<RunResult> &reference = plain.front().results;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto check = [&](const std::vector<RunResult> &results) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            ++attempted;
            if (!identities_hold(results[i]) || !run_results_identical(results[i], reference[i]))
                ++failed;
        }
    };
    for (const auto *reps : {&plain, &traced}) {
        for (const Rep &r : *reps) {
            check(r.results);
            check(r.warm_results);
            failed += r.extra_failures;
        }
    }

    RunReport digest_report(def->name);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        digest_report.add_run(jobs[i].label, reference[i]);
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv64(digest_report.to_json())));

    if (args.trace && !tracer.write_chrome(stem + ".trace.json")) {
        std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
        ++failed;
    }
    failed = std::min(failed, attempted);
    const double pass_rate =
        1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted));
    const std::vector<Metric> metrics =
        args.trace ? per_layer(*def, jobs.size(), workers, plain, traced, traced.back().layers,
                               reference)
                   : end_to_end(plain, pass_rate);

    std::ostringstream prov;
    prov << "{\"git_sha\": " << json_str(args.git_sha)
         << ", \"tree_digest\": " << json_str(args.tree_digest) << ", \"nproc\": " << workers
         << ", \"cpu_model\": " << json_str(cpu_model()) << ", \"compiler\": "
         << json_str(kCompiler)
         << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
         << ", \"work_scale\": " << num(def->work_scale) << "}";
    const bool correct = failed == 0;
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"metrics\": " << metrics_json(metrics) << "}";

    // Every untraced repetition's end-to-end figures, metric by metric,
    // then its raw wall time and median probe call.
    std::string samples;
    auto add_samples = [&](const std::string &name, const std::function<double(const Rep &)> &f) {
        std::string values;
        for (const Rep &r : plain)
            values += (values.empty() ? "" : ", ") + num(f(r));
        samples += (samples.empty() ? "" : ", ") + json_str(name) + ": [" + values + "]";
    };
    const std::size_t n_rep_metrics = rep_metrics(plain.front()).size();
    for (std::size_t i = 0; i < n_rep_metrics; ++i)
        add_samples(rep_metrics(plain.front())[i].name,
                    [i](const Rep &r) { return rep_metrics(r)[i].value; });
    add_samples("wall_raw_s", [](const Rep &r) { return r.wall_s; });
    add_samples("probe_s", [](const Rep &r) { return median(r.probes); });
    std::ofstream record(stem + (args.trace ? "-trace1" : "-trace0") + ".json");
    record << "{\"workload\": " << json_str(def->name) << ", \"seed\": " << args.seed
           << ", \"provenance\": " << prov.str() << ", \"sim_digest\": \"" << digest
           << "\", \"repetitions\": " << plain.size() << ", \"traced_repetitions\": "
           << traced.size() << ", \"samples\": {" << samples << "}, \"jobs\": " << jobs.size()
           << ", \"result\": " << result.str() << "}\n";

    std::printf("provenance %s\n", prov.str().c_str());
    std::printf("workload %s seed %llu: %zu jobs x %zu repetitions (%zu traced)\n", def->name,
                static_cast<unsigned long long>(args.seed), jobs.size(), plain.size(),
                traced.size());
    std::printf("sim_digest %s\n", digest);
    for (const Metric &m : metrics)
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", result.str().c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "morpheus_perfbench: %s\n", e.what());
        return 1;
    }
}
