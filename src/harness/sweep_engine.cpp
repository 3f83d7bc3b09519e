#include "harness/sweep_engine.hpp"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "sim/state_io.hpp"

namespace morpheus {

unsigned
default_sweep_jobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

bool
run_results_identical(const RunResult &a, const RunResult &b)
{
    // RunResult::state() lists every field once; comparing its bytes
    // keeps this in step with the cache payload and compares doubles by
    // bit pattern (so 0.0 and -0.0 differ, and NaN equals itself).
    StateWriter wa, wb;
    RunResult ca = a, cb = b;
    wa.obj(ca);
    wb.obj(cb);
    return wa.bytes() == wb.bytes();
}

void
SweepEngine::configure(const ScenarioOptions &opts)
{
    report_ = opts.report;
    SweepConfig cfg;
    cfg.fault = opts.fault;
    cfg.timeout_ms = opts.timeout_ms;
    cfg.retries = opts.retries;
    cfg.tolerant = true;
    cfg.store = opts.result_store;
    config_ = std::move(cfg);
}

std::size_t
SweepEngine::add(SweepJob job)
{
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
}

std::size_t
SweepEngine::add(const SystemSetup &setup, const WorkloadParams &params, std::string label)
{
    return add(SweepJob{setup, params, std::move(label)});
}

namespace {

/** Per-job watchdog state. -1 deadline = no attempt in flight. */
struct JobSlot
{
    std::atomic<bool> cancel{false};
    std::atomic<std::int64_t> deadline_ms{-1};
};

std::int64_t
steady_ms()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Injects a harness-level fault (FaultPlan cycle == 0): the attempt
 *  fails before the simulation starts. */
void
harness_fault(RunFault action, const std::atomic<bool> &cancel)
{
    switch (action) {
      case RunFault::kThrow:
        throw InjectedFault("injected harness fault");
      case RunFault::kAbort:
        std::abort();
      case RunFault::kHang:
        // Wedge until the watchdog cancels this job. Without a watchdog
        // this hangs for real — which is the point of the drill.
        while (!cancel.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        throw SimulationCancelled("simulation cancelled");
      case RunFault::kNone:
        break;
    }
}

std::string
error_message(const std::exception_ptr &e)
{
    try {
        std::rethrow_exception(e);
    } catch (const std::exception &ex) {
        return ex.what();
    } catch (...) {
        return "unknown error";
    }
}

} // namespace

std::vector<Labeled<RunResult>>
SweepEngine::run_all()
{
    const std::size_t n = jobs_.size();

    std::vector<JobSlot> slots(n);
    const std::size_t fault_idx =
        config_.fault.active() ? config_.fault.resolve_index(n) : static_cast<std::size_t>(-1);

    for (std::size_t i = 0; i < n; ++i) {
        pool_.submit(jobs_[i].label, [this, i, fault_idx, &slots] {
            const SweepJob &job = jobs_[i];
            JobSlot &slot = slots[i];
            for (unsigned attempt = 0;; ++attempt) {
                slot.cancel.store(false);
                if (config_.timeout_ms > 0)
                    slot.deadline_ms.store(steady_ms() +
                                           static_cast<std::int64_t>(config_.timeout_ms));
                try {
                    RunControls rc;
                    if (config_.timeout_ms > 0)
                        rc.cancel = &slot.cancel;
                    const bool faulted = i == fault_idx && attempt < config_.fault.times;
                    if (faulted && config_.fault.cycle > 0) {
                        rc.fault = config_.fault.action;
                        rc.fault_cycle = config_.fault.cycle;
                    }
                    // With a result store, each attempt is lookup-or-
                    // (simulate + fill): faults fire inside the simulate
                    // path only — a cached job never simulates, so there
                    // is nothing to inject into, and a fault that kills
                    // the fill leaves a miss to re-simulate (the crash-
                    // safety drill).
                    const std::function<RunResult()> attempt_run =
                        [&]() -> RunResult {
                        if (faulted && config_.fault.cycle == 0)
                            harness_fault(config_.fault.action, slot.cancel);
                        return run_setup_controlled(job.setup, job.params, rc);
                    };
                    RunResult r =
                        config_.store
                            ? config_.store->get_or_run(job.setup, job.params, attempt_run)
                            : attempt_run();
                    slot.deadline_ms.store(-1);
                    return r;
                } catch (const SimulationCancelled &) {
                    slot.deadline_ms.store(-1);
                    if (attempt >= config_.retries)
                        throw std::runtime_error(
                            "timed out after " + std::to_string(config_.timeout_ms) + " ms (" +
                            std::to_string(attempt + 1) + " attempts)");
                } catch (...) {
                    slot.deadline_ms.store(-1);
                    if (attempt >= config_.retries)
                        throw;
                }
            }
        });
    }

    // The watchdog only flips cancel flags; the jobs notice at their next
    // poll point, so determinism of completed runs is untouched.
    std::atomic<bool> watchdog_stop{false};
    std::thread watchdog;
    if (config_.timeout_ms > 0) {
        watchdog = std::thread([&slots, &watchdog_stop] {
            while (!watchdog_stop.load(std::memory_order_relaxed)) {
                const std::int64_t now = steady_ms();
                for (JobSlot &slot : slots) {
                    const std::int64_t deadline = slot.deadline_ms.load();
                    if (deadline >= 0 && now > deadline)
                        slot.cancel.store(true);
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        });
    }

    auto outcomes = pool_.run_all_outcomes();

    if (watchdog.joinable()) {
        watchdog_stop.store(true);
        watchdog.join();
    }

#ifndef NDEBUG
    if (pool_.workers() > 1 && !outcomes.empty() && outcomes.front().ok()) {
        // Shared-mutable-state canary: a serial re-run of the first job
        // must reproduce the pooled result bit for bit.
        const RunResult replay = run_setup(jobs_.front().setup, jobs_.front().params);
        assert(run_results_identical(replay, *outcomes.front().value) &&
               "SweepEngine: parallel run diverged from serial replay — "
               "simulation state is leaking between runs");
    }
#endif

    if (!config_.tolerant) {
        for (auto &o : outcomes) {
            if (o.error)
                std::rethrow_exception(o.error);
        }
    }

    std::vector<Labeled<RunResult>> results;
    results.reserve(n);
    for (auto &o : outcomes) {
        if (report_) {
            if (o.ok())
                report_->add_run(o.label, *o.value);
            else
                report_->add_failed(o.label, error_message(o.error));
        }
        // A failed job keeps a default RunResult in its positional slot:
        // scenarios consume results by index, and the report carries the
        // failure.
        results.push_back(Labeled<RunResult>{std::move(o.label),
                                             o.ok() ? std::move(*o.value) : RunResult{}});
    }
    jobs_.clear();
    return results;
}

} // namespace morpheus
