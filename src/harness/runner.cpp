#include "harness/runner.hpp"

#include <cmath>

namespace morpheus {

RunResult
run_setup(const SystemSetup &setup, const WorkloadParams &params)
{
    SyntheticWorkload workload(params);
    GpuSystem system(setup, workload);
    return system.run();
}

RunResult
run_system(SystemKind kind, const AppSpec &app)
{
    return run_setup(make_system(kind, app), app.params);
}

SystemSetup
setup_with_sms(std::uint32_t compute_sms, std::uint64_t llc_bytes_override)
{
    SystemSetup setup;
    setup.compute_sms = compute_sms;
    if (llc_bytes_override > 0)
        setup.cfg.llc_bytes = llc_bytes_override;
    return setup;
}

RunResult
run_with_sms(const AppSpec &app, std::uint32_t compute_sms, std::uint64_t llc_bytes_override)
{
    return run_setup(setup_with_sms(compute_sms, llc_bytes_override), app.params);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace morpheus
