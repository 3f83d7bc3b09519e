#ifndef MORPHEUS_HARNESS_RUNNER_HPP_
#define MORPHEUS_HARNESS_RUNNER_HPP_

#include <string>
#include <vector>

#include "harness/system_config.hpp"

namespace morpheus {

/** Runs @p params on a freshly built @p setup and returns all metrics. */
RunResult run_setup(const SystemSetup &setup, const WorkloadParams &params);

/** Runs @p app on system @p kind (Table 3 SM splits applied). */
RunResult run_system(SystemKind kind, const AppSpec &app);

/**
 * Runs @p app on the baseline config with an explicit compute-SM count
 * (Figure 1 sweeps).
 */
RunResult run_with_sms(const AppSpec &app, std::uint32_t compute_sms,
                       std::uint64_t llc_bytes_override = 0);

/**
 * The baseline setup with an explicit compute-SM count (and optional LLC
 * capacity override) — the SystemSetup half of a run_with_sms() job, for
 * sweeps that submit to the SweepEngine instead of running inline.
 */
SystemSetup setup_with_sms(std::uint32_t compute_sms, std::uint64_t llc_bytes_override = 0);

/** Geometric mean of strictly positive values (paper-style summaries). */
double geomean(const std::vector<double> &values);

} // namespace morpheus

#endif // MORPHEUS_HARNESS_RUNNER_HPP_
