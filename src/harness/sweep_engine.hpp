#ifndef MORPHEUS_HARNESS_SWEEP_ENGINE_HPP_
#define MORPHEUS_HARNESS_SWEEP_ENGINE_HPP_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hpp"

namespace morpheus {

class RunReport;
struct ScenarioOptions;

/**
 * Worker count used when a sweep does not pin one explicitly: the
 * hardware thread count (at least 1).
 */
unsigned default_sweep_jobs();

/** A sweep result paired with the label of the job that produced it. */
template <typename R>
struct Labeled
{
    std::string label;
    R value{};
};

/** What happened to one submitted task: exactly one of value/error set. */
template <typename R>
struct TaskOutcome
{
    std::string label;
    std::optional<R> value;
    std::exception_ptr error;

    bool ok() const { return value.has_value(); }
};

/**
 * An ordered fan-out pool: submit labeled tasks, run them on up to N
 * worker threads, and collect the results **in submission order**, so a
 * parallel sweep's output is byte-identical to a serial one.
 *
 * Tasks must be independent: each builds its own simulator state and
 * shares nothing mutable with its siblings (the simulator holds all run
 * state inside GpuSystem/SyntheticWorkload instances, and its only
 * global — the app catalog — is immutable after construction).
 *
 * Exceptions thrown by tasks are captured per job; run_all() rethrows
 * them (lowest submission index first) after all workers join, so
 * failure behavior is deterministic too, while run_all_outcomes() hands
 * every captured error back for per-job handling (the tolerant
 * SweepEngine path).
 */
template <typename R>
class ParallelRunner
{
  public:
    /** @param workers worker threads; 0 picks default_sweep_jobs(). */
    explicit ParallelRunner(unsigned workers = 0)
        : workers_(workers == 0 ? default_sweep_jobs() : workers)
    {
    }

    unsigned workers() const { return workers_; }

    /** Queues a task; returns its submission index. */
    std::size_t
    submit(std::string label, std::function<R()> fn)
    {
        tasks_.push_back(Task{std::move(label), std::move(fn)});
        return tasks_.size() - 1;
    }

    /**
     * Runs every submitted task and returns one outcome per task, in
     * submission order — a task that threw yields its exception_ptr
     * instead of a value, and never affects its siblings. The task list
     * is consumed; the runner can be reused for a new batch afterwards.
     */
    std::vector<TaskOutcome<R>>
    run_all_outcomes()
    {
        const std::size_t n = tasks_.size();
        std::vector<std::optional<R>> slots(n);
        std::vector<std::exception_ptr> errors(n);

        const unsigned pool = static_cast<unsigned>(
            std::min<std::size_t>(workers_, n ? n : 1));
        if (pool <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                run_one(i, slots, errors);
        } else {
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> threads;
            threads.reserve(pool);
            for (unsigned w = 0; w < pool; ++w) {
                threads.emplace_back([&] {
                    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
                        run_one(i, slots, errors);
                });
            }
            for (auto &t : threads)
                t.join();
        }

        std::vector<TaskOutcome<R>> outcomes(n);
        for (std::size_t i = 0; i < n; ++i) {
            outcomes[i].label = std::move(tasks_[i].label);
            if (errors[i])
                outcomes[i].error = errors[i];
            else
                outcomes[i].value = std::move(slots[i]);
        }
        tasks_.clear();
        return outcomes;
    }

    /**
     * Runs every submitted task and returns the results in submission
     * order; the first (lowest-index) captured exception is rethrown
     * after all workers join.
     */
    std::vector<Labeled<R>>
    run_all()
    {
        auto outcomes = run_all_outcomes();
        for (auto &o : outcomes) {
            if (o.error)
                std::rethrow_exception(o.error);
        }
        std::vector<Labeled<R>> results;
        results.reserve(outcomes.size());
        for (auto &o : outcomes)
            results.push_back(Labeled<R>{std::move(o.label), std::move(*o.value)});
        return results;
    }

  private:
    struct Task
    {
        std::string label;
        std::function<R()> fn;
    };

    void
    run_one(std::size_t i, std::vector<std::optional<R>> &slots,
            std::vector<std::exception_ptr> &errors)
    {
        try {
            slots[i].emplace(tasks_[i].fn());
        } catch (...) {
            errors[i] = std::current_exception();
            slots[i].emplace();
        }
    }

    unsigned workers_;
    std::vector<Task> tasks_;
};

/** One simulation job: build @p setup, run @p params on it. */
struct SweepJob
{
    SystemSetup setup;
    WorkloadParams params;
    std::string label;
};

/** Byte comparison of two results' RunResult::state() archives: every
 *  field, doubles compared bit for bit. */
bool run_results_identical(const RunResult &a, const RunResult &b);

/**
 * A memoizing result store the engine can consult before simulating
 * (serve/result_cache.hpp implements it as an on-disk content-addressed
 * cache keyed by the canonical (SystemSetup, WorkloadParams) bytes, so
 * hits survive sweep reordering and cross sweeps). Rerunning a killed
 * sweep against the same store is how it resumes.
 *
 * Contract: get_or_run() returns either a stored result for exactly this
 * configuration or the value of @p run (storing it for next time), and a
 * stored result must be bit-identical to what @p run would return — the
 * engine's byte-identical-reports guarantee extends over cache hits.
 * Exceptions from @p run propagate; failures are never stored. Must be
 * thread-safe: worker threads call it concurrently.
 */
class ResultStore
{
  public:
    virtual ~ResultStore() = default;

    /** @param hit optional out-flag: true when the result came from the
     *  store without running @p run. */
    virtual RunResult get_or_run(const SystemSetup &setup, const WorkloadParams &params,
                                 const std::function<RunResult()> &run,
                                 bool *hit = nullptr) = 0;
};

/**
 * How one sweep treats failures and memoization. A default-constructed
 * config simulates every job and rethrows the first failure.
 */
struct SweepConfig
{
    /** Unread: perfbench/main.cpp still assigns it, and perfbench is
     *  edited only together with the benchmark (ROADMAP item 4). */
    unsigned retries = 1;

    /** Record a job that threw as a `failed` report entry (default
     *  RunResult in its positional slot) instead of rethrowing its
     *  exception out of run_all(). */
    bool tolerant = false;

    /** Content-addressed memoization (`--cache-dir`): each job asks the
     *  store first and fills it on a miss. Not owned; nullptr (the
     *  default) simulates every job. */
    ResultStore *store = nullptr;
};

/**
 * The experiment sweep engine: shards independent (SystemSetup,
 * WorkloadParams, label) simulation jobs across a thread pool. Every
 * worker constructs its own SyntheticWorkload and GpuSystem per job, and
 * results come back in submission order, so a sweep's output is
 * deterministic and identical for any worker count.
 *
 * A job is simulated once: the simulator is deterministic, so a retry
 * would fail the same way. In tolerant mode a job that throws degrades
 * to a `failed` report entry instead of sinking the whole sweep. With a
 * ResultStore attached, a killed sweep resumes by being run again:
 * finished jobs are hits.
 */
class SweepEngine
{
  public:
    /** @param jobs worker threads; 0 picks default_sweep_jobs(). */
    explicit SweepEngine(unsigned jobs = 0) : pool_(jobs) {}

    unsigned workers() const { return pool_.workers(); }

    /**
     * Attaches a result-persistence sink (harness/report.hpp): run_all()
     * then appends every job's standard metric set, in submission order.
     * nullptr (the default) disables recording; scenarios pass
     * ScenarioOptions::report straight through.
     */
    void set_report(RunReport *report) { report_ = report; }

    /** Replaces the failure/memoization configuration. */
    void set_config(SweepConfig config) { config_ = std::move(config); }
    const SweepConfig &config() const { return config_; }

    /** set_report + set_config from the shared scenario options: report
     *  sink and result store; scenario sweeps run tolerant (a failed
     *  grid point degrades the report and the exit code instead of
     *  aborting the figure). */
    void configure(const ScenarioOptions &opts);

    /** Queues one job; returns its submission index. */
    std::size_t add(SweepJob job);
    std::size_t add(const SystemSetup &setup, const WorkloadParams &params,
                    std::string label = "");

    /**
     * Runs all queued jobs and returns results in submission order (a
     * failed job in tolerant mode keeps a default RunResult in its
     * slot). With assertions enabled, re-runs the first job serially and
     * asserts its result is bit-identical to the pooled one — the cheap
     * canary for the "no shared mutable state between runs" invariant
     * the pool depends on.
     */
    std::vector<Labeled<RunResult>> run_all();

  private:
    ParallelRunner<RunResult> pool_;
    RunReport *report_ = nullptr;
    SweepConfig config_;
    std::vector<SweepJob> jobs_;
};

} // namespace morpheus

#endif // MORPHEUS_HARNESS_SWEEP_ENGINE_HPP_
