#ifndef MORPHEUS_SCENARIOS_SCENARIOS_HPP_
#define MORPHEUS_SCENARIOS_SCENARIOS_HPP_

#include "harness/scenario.hpp"

namespace morpheus::scenarios {

/**
 * The paper-reproduction experiments and example sweeps, one function per
 * figure/table. Every sweep shards its simulation runs through the
 * SweepEngine, so `--jobs N` parallelizes any of them with byte-identical
 * output. The registry in registry.cpp
 * lists them explicitly (a static library would silently drop
 * self-registering translation units).
 */
int run_bloom_sensitivity(const ScenarioOptions &opts);
int run_fig01_sm_scaling(const ScenarioOptions &opts);
int run_fig02_llc_sensitivity(const ScenarioOptions &opts);
int run_fig08_rf_layout(const ScenarioOptions &opts);
int run_fig05_latency_timeline(const ScenarioOptions &opts);
int run_fig11_extllc_characterization(const ScenarioOptions &opts);
int run_fig12_performance(const ScenarioOptions &opts);
int run_fig13_hitmiss_prediction(const ScenarioOptions &opts);
int run_query_depth(const ScenarioOptions &opts);
int run_sec74_bandwidth_analysis(const ScenarioOptions &opts);
int run_sec75_overheads(const ScenarioOptions &opts);
int run_tab03_core_counts(const ScenarioOptions &opts);
int run_kmeans_capacity_sweep(const ScenarioOptions &opts);

} // namespace morpheus::scenarios

#endif // MORPHEUS_SCENARIOS_SCENARIOS_HPP_
