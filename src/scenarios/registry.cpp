#include "scenarios/scenarios.hpp"

namespace morpheus {

const std::vector<Scenario> &
scenario_registry()
{
    using namespace scenarios;
    static const std::vector<Scenario> kRegistry = {
        {"bloom_sensitivity",
         "predictor sizing: Bloom bits/set x hash count vs false-positive rate",
         run_bloom_sensitivity},
        {"fig01_sm_scaling", "Figure 1: normalized IPC vs compute-SM count, all 17 apps",
         run_fig01_sm_scaling},
        {"fig02_llc_sensitivity", "Figure 2: best IPC with 1x/2x/4x conventional LLC",
         run_fig02_llc_sensitivity},
        {"fig05_latency_timeline", "Figure 5: unloaded hit/miss/predicted-miss latencies",
         run_fig05_latency_timeline},
        {"fig08_rf_layout",
         "Figure 8: extended-LLC register-file layout vs kernel warp count",
         run_fig08_rf_layout},
        {"fig11_extllc_characterization",
         "Figure 11: extended-LLC capacity/latency/bandwidth/energy vs warps",
         run_fig11_extllc_characterization},
        {"fig12_performance",
         "Figure 12: normalized time and perf/W of the eight systems, all apps",
         run_fig12_performance},
        {"fig13_hitmiss_prediction",
         "Figure 13: no/Bloom/perfect hit-miss prediction ablation",
         run_fig13_hitmiss_prediction},
        {"query_depth",
         "query-logic request-queue depth: occupancy histogram vs candidate sizes",
         run_query_depth},
        {"sec74_bandwidth_analysis",
         "section 7.4: LLC throughput, NoC load, off-chip bandwidth and MPKI",
         run_sec74_bandwidth_analysis},
        {"sec75_overheads", "section 7.5: controller storage and power overheads",
         run_sec75_overheads},
        {"tab03_core_counts", "Table 3: offline search for the best compute-SM counts",
         run_tab03_core_counts},
        {"kmeans_capacity_sweep",
         "capacity-planning example: compute/cache split sweep for kmeans",
         run_kmeans_capacity_sweep},
    };
    return kRegistry;
}

} // namespace morpheus
