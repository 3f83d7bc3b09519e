/**
 * @file
 * The two trace-driven scenarios, one replay driver: every `.mtrc`
 * trace (docs/TRACE_FORMAT.md) opens through the mmap-backed
 * TraceReader and replays, O(streams) memory, on two systems — a
 * conventional baseline and a Morpheus-ALL-style split — at the trace's
 * recorded compute-SM count.
 *
 * - **trace_replay** (ROADMAP "Workload realism") replays the traces
 *   recorded with `morpheus_trace record` under bench/traces/. Replaying
 *   a synthetic workload's trace reproduces the original run's counters
 *   exactly (tests/test_trace_replay.cpp); the CI smoke gate diffs this
 *   scenario's report — and a freshly in-workflow-recorded trace's —
 *   against committed baselines.
 * - **trace_corpus** (ROADMAP "Real-GPU trace ingestion") replays the
 *   committed corpus of *converted* traces (bench/traces/corpus/,
 *   produced by `morpheus_trace convert` from Accel-Sim/NVBit-style text
 *   dumps).
 *
 * Trace selection: `--trace FILE` replays one file; otherwise every
 * `*.mtrc` in $MORPHEUS_TRACE_DIR, ./bench/traces, or ../bench/traces
 * (trace_replay) or in $MORPHEUS_TRACE_CORPUS_DIR, ./bench/traces/corpus,
 * or ../bench/traces/corpus (trace_corpus) — the first directory that
 * exists — in filename order.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu_system.hpp"
#include "harness/report.hpp"
#include "harness/sweep_engine.hpp"
#include "harness/table.hpp"
#include "scenarios/scenarios.hpp"
#include "workloads/trace/trace_workload.hpp"

namespace morpheus::scenarios {
namespace {

/** Cache-mode SMs lent to the extended LLC in the Morpheus replay. */
constexpr std::uint32_t kReplayCacheSms = 8;

/** What tells the two trace scenarios apart. */
struct TraceScenario
{
    const char *name;
    const char *dir_env;     ///< overrides the default trace directory
    const char *dir;         ///< default directory, relative to the working directory
    const char *none_found;  ///< stderr line when no trace is found
    const char *title;
    const char *note;        ///< printf format; %u is kReplayCacheSms
};

std::vector<std::string>
default_trace_files(const TraceScenario &s)
{
    namespace fs = std::filesystem;
    std::vector<std::string> candidates;
    if (const char *env = std::getenv(s.dir_env))
        candidates.push_back(env);
    candidates.push_back(s.dir);
    candidates.push_back(std::string("../") + s.dir);

    std::vector<std::string> files;
    for (const auto &dir : candidates) {
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue;
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            if (entry.path().extension() == ".mtrc")
                files.push_back(entry.path().string());
        }
        break; // first existing directory wins, even if it holds no traces
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Baseline system sized for the trace's recorded compute-SM count. */
SystemSetup
conventional_setup(std::uint32_t trace_sms)
{
    SystemSetup setup;
    setup.compute_sms = trace_sms;
    setup.cfg.num_sms = std::max(setup.cfg.num_sms, trace_sms);
    return setup;
}

/** Morpheus-ALL-style system: same compute SMs plus cache-mode SMs. */
SystemSetup
morpheus_setup(std::uint32_t trace_sms)
{
    SystemSetup setup = conventional_setup(trace_sms);
    setup.cfg.num_sms = std::max(setup.cfg.num_sms, trace_sms + kReplayCacheSms);
    setup.morpheus.enabled = true;
    setup.morpheus.cache_sms = kReplayCacheSms;
    setup.morpheus.kernel.compression = true;
    setup.morpheus.prediction = PredictionMode::kBloom;
    return setup;
}

int
run_traces(const ScenarioOptions &opts, const TraceScenario &s)
{
    std::vector<std::string> files;
    if (!opts.trace_path.empty())
        files.push_back(opts.trace_path);
    else
        files = default_trace_files(s);
    if (files.empty()) {
        std::fprintf(stderr, "%s: %s\n", s.name, s.none_found);
        return 1;
    }

    struct LoadedTrace
    {
        std::string stem;
        trace::TraceReader reader;
    };
    // unique_ptr: the readers hand out cursors borrowing their mapping,
    // so their addresses must stay stable while the pool runs.
    std::vector<std::unique_ptr<LoadedTrace>> traces;
    for (const auto &file : files) {
        auto lt = std::make_unique<LoadedTrace>();
        std::string error;
        if (!lt->reader.open(file, error)) {
            std::fprintf(stderr, "%s: %s: %s\n", s.name, file.c_str(), error.c_str());
            return 1;
        }
        lt->stem = std::filesystem::path(file).stem().string();
        traces.push_back(std::move(lt));
    }

    struct SystemChoice
    {
        const char *label;
        SystemSetup (*make)(std::uint32_t);
    };
    static constexpr SystemChoice kSystems[] = {
        {"BL", conventional_setup},
        {"morpheus", morpheus_setup},
    };

    // Every (trace, system) replay is an independent simulation; fan out.
    // Each worker builds its own workload over the shared read-only
    // mapping — cursors are per-workload state.
    ParallelRunner<RunResult> pool(opts.jobs);
    for (const auto &lt : traces) {
        for (const auto &sys : kSystems) {
            LoadedTrace *t = lt.get();
            pool.submit(t->stem + "/" + sys.label, [t, &sys] {
                TraceWorkload workload(t->reader);
                return run_workload(sys.make(t->reader.num_sms()), workload);
            });
        }
    }
    const auto results = pool.run_all();

    Table table({"trace", "system", "records", "cycles", "IPC", "L1 hit%", "LLC acc",
                 "ext req", "ext hit%", "DRAM rd", "MPKI"});
    std::size_t next = 0;
    for (const auto &lt : traces) {
        for (const auto &sys : kSystems) {
            const auto &r = results[next];
            const RunResult &run = r.value;
            const double l1_rate = 100.0 * static_cast<double>(run.l1_hits) /
                                   std::max<std::uint64_t>(1, run.l1_hits + run.l1_misses);
            const double ext_rate =
                run.ext_requests
                    ? 100.0 * static_cast<double>(run.ext_hits) /
                          static_cast<double>(run.ext_requests)
                    : 0.0;
            table.add_row({lt->stem, sys.label, std::to_string(lt->reader.total_records()),
                           std::to_string(run.cycles), fmt(run.ipc), fmt(l1_rate, 1),
                           std::to_string(run.llc_accesses), std::to_string(run.ext_requests),
                           fmt(ext_rate, 1), std::to_string(run.dram_reads), fmt(run.mpki, 1)});
            if (opts.report)
                opts.report->add_run(r.label, run);
            ++next;
        }
    }

    ScenarioEmitter emit(opts);
    emit.table(s.title, table);
    emit.note(s.note, kReplayCacheSms);
    return 0;
}

} // namespace

int
run_trace_replay(const ScenarioOptions &opts)
{
    static constexpr TraceScenario kReplay = {
        "trace_replay",
        "MORPHEUS_TRACE_DIR",
        "bench/traces",
        "no .mtrc traces found (pass --trace FILE, set MORPHEUS_TRACE_DIR, or run from the "
        "repo root so bench/traces/ resolves; record one with morpheus_trace)",
        "Trace replay: recorded kernels through the full memory hierarchy",
        "\nEach trace replays at its recorded compute-SM count on the conventional\n"
        "baseline (BL) and on a Morpheus system lending %u cache-mode SMs with BDI\n"
        "compression and Bloom prediction. Replaying a trace recorded from a\n"
        "synthetic workload on the same system reproduces the live run's counters\n"
        "exactly (tests/test_trace_replay.cpp); format spec: docs/TRACE_FORMAT.md.\n",
    };
    return run_traces(opts, kReplay);
}

int
run_trace_corpus(const ScenarioOptions &opts)
{
    static constexpr TraceScenario kCorpus = {
        "trace_corpus",
        "MORPHEUS_TRACE_CORPUS_DIR",
        "bench/traces/corpus",
        "no converted .mtrc traces found (pass --trace FILE, set MORPHEUS_TRACE_CORPUS_DIR, "
        "or run from the repo root so bench/traces/corpus/ resolves; produce one with "
        "`morpheus_trace convert`)",
        "Trace corpus: converted real-GPU-style traces, streamed zero-copy",
        "\nEvery converted trace in the corpus replays at its recorded compute-SM\n"
        "count on the conventional baseline (BL) and on a Morpheus system lending\n"
        "%u cache-mode SMs with BDI compression and Bloom prediction. Replay goes\n"
        "through the mmap-backed streaming TraceReader (O(streams) memory), so the\n"
        "same sweep handles corpora orders of magnitude past what materializing\n"
        "decode allows. Converted traces carry no block-data profile, so footprint\n"
        "synthesis is uncompressed unless classes were annotated; converter grammar\n"
        "and format spec: docs/TRACE_FORMAT.md.\n",
    };
    return run_traces(opts, kCorpus);
}

} // namespace morpheus::scenarios
