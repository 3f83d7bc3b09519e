#include "harness/sweep_engine.hpp"

#include <cassert>

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
    for (std::size_t i = 0; i < n; ++i) {
        pool_.submit(jobs_[i].label, [this, i] {
            const SweepJob &job = jobs_[i];
            const std::function<RunResult()> run = [&job] {
                return run_setup(job.setup, job.params);
            };
            return config_.store ? config_.store->get_or_run(job.setup, job.params, run) : run();
        });
    }

    auto outcomes = pool_.run_all_outcomes();

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
