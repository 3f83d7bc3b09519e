#ifndef MORPHEUS_GPU_GPU_SYSTEM_HPP_
#define MORPHEUS_GPU_GPU_SYSTEM_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu_config.hpp"
#include "gpu/llc_partition.hpp"
#include "gpu/mem_request.hpp"
#include "gpu/sm.hpp"
#include "gpu/workload.hpp"
#include "mem/backing_store.hpp"
#include "mem/dram.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "morpheus/hit_miss_predictor.hpp"
#include "noc/crossbar.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {

class MorpheusController;
class ExtendedLlc;

/** Morpheus-specific knobs of a system configuration. */
struct MorpheusOptions
{
    bool enabled = false;
    /** SMs reserved for cache mode (taken after the compute SMs). */
    std::uint32_t cache_sms = 0;
    ExtLlcParams kernel{};
    PredictionMode prediction = PredictionMode::kBloom;
};

/** Complete description of one evaluated system (§6). */
struct SystemSetup
{
    GpuConfig cfg{};
    /** SMs executing application threads. */
    std::uint32_t compute_sms = 68;
    MorpheusOptions morpheus{};
    /** Extra L1 capacity per SM (Unified-SM-Mem system), bytes. */
    std::uint64_t l1_bonus_bytes = 0;
    EnergyParams energy{};
};

/** Everything measured by one simulation run. */
struct RunResult
{
    std::string workload;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0;

    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;

    std::uint64_t llc_accesses = 0;  ///< conventional LLC
    std::uint64_t llc_hits = 0;
    std::uint64_t llc_misses = 0;

    std::uint64_t ext_requests = 0;
    std::uint64_t ext_predicted_hits = 0;
    std::uint64_t ext_predicted_misses = 0;
    std::uint64_t ext_hits = 0;
    std::uint64_t ext_misses = 0;
    std::uint64_t ext_false_positives = 0;
    std::uint64_t ext_capacity_bytes = 0;

    double ext_hit_latency = 0;
    double ext_miss_latency = 0;
    double pred_miss_latency = 0;
    double conv_hit_latency = 0;
    double conv_miss_latency = 0;

    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    double dram_utilization = 0;

    double noc_injection_rate = 0;  ///< bytes/cycle offered
    double noc_avg_latency = 0;
    std::uint64_t noc_bytes = 0;

    /** Total LLC service rate (conventional + extended), accesses/kcycle. */
    double llc_throughput = 0;
    /** LLC misses (incl. extended + predicted misses) per kilo-instruction. */
    double mpki = 0;

    EnergyBreakdown energy{};
    double avg_watts = 0;
    double perf_per_watt = 0;  ///< IPC / W

    /** Serialization for the result cache's .mrce payload: every field
     *  travels, doubles as bit patterns, so a cached result is
     *  byte-identical to a recomputed one. */
    template <class A>
    void
    state(A &ar)
    {
        ar.str(workload);
        ar.field(cycles);
        ar.field(instructions);
        ar.field(ipc);
        ar.field(l1_hits);
        ar.field(l1_misses);
        ar.field(llc_accesses);
        ar.field(llc_hits);
        ar.field(llc_misses);
        ar.field(ext_requests);
        ar.field(ext_predicted_hits);
        ar.field(ext_predicted_misses);
        ar.field(ext_hits);
        ar.field(ext_misses);
        ar.field(ext_false_positives);
        ar.field(ext_capacity_bytes);
        ar.field(ext_hit_latency);
        ar.field(ext_miss_latency);
        ar.field(pred_miss_latency);
        ar.field(conv_hit_latency);
        ar.field(conv_miss_latency);
        ar.field(dram_reads);
        ar.field(dram_writes);
        ar.field(dram_utilization);
        ar.field(noc_injection_rate);
        ar.field(noc_avg_latency);
        ar.field(noc_bytes);
        ar.field(llc_throughput);
        ar.field(mpki);
        ar.obj(energy);
        ar.field(avg_watts);
        ar.field(perf_per_watt);
    }
};

/**
 * A complete simulated GPU: compute-mode SMs, cache-mode SMs (when
 * Morpheus is enabled), the crossbar, LLC partitions (optionally fronted
 * by Morpheus controllers), DRAM, and the energy model.
 */
class GpuSystem : public LlcRouter
{
  public:
    /** Builds the system; @p workload is not owned and must outlive it. */
    GpuSystem(const SystemSetup &setup, Workload &workload);
    ~GpuSystem() override;

    GpuSystem(const GpuSystem &) = delete;
    GpuSystem &operator=(const GpuSystem &) = delete;

    /** Runs the workload to completion and gathers all statistics. */
    RunResult run();

    /**
     * @name Stepwise execution
     * begin_run() arms the workload and the SMs without running;
     * advance_to() then runs every event with `when <= stop`, and
     * collect_results() derives the RunResult from the component state.
     * Advancing in windows is bit-identical to one run() (perfbench's
     * traced runs sample between windows).
     */
    ///@{
    void begin_run();
    void advance_to(Cycle stop);
    RunResult collect_results() { return collect(); }
    ///@}

    // LlcRouter
    void to_llc(Cycle when, const MemRequest &req, RespFn resp) override;

    /** @name Component access (tests, probes, benches) */
    ///@{
    EventQueue &event_queue() { return eq_; }
    Crossbar &noc() { return noc_; }
    DramModel &dram() { return dram_; }
    BackingStore &store() { return store_; }
    LlcPartition &partition(std::uint32_t p) { return *partitions_[p]; }
    std::uint32_t num_partitions() const
    {
        return static_cast<std::uint32_t>(partitions_.size());
    }
    ExtendedLlc *extended_llc() { return ext_.get(); }
    MorpheusController *controller(std::uint32_t p);
    Sm &sm(std::uint32_t i) { return *sms_[i]; }
    std::uint32_t num_compute_sms() const { return static_cast<std::uint32_t>(sms_.size()); }
    const SystemSetup &setup() const { return setup_; }
    ///@}

  private:
    RunResult collect();

    SystemSetup setup_;
    Workload &workload_;

    EventQueue eq_;
    EnergyModel energy_;
    Crossbar noc_;
    DramModel dram_;
    BackingStore store_;
    FabricContext ctx_;

    std::vector<std::unique_ptr<LlcPartition>> partitions_;
    std::unique_ptr<ExtendedLlc> ext_;
    std::vector<std::unique_ptr<MorpheusController>> controllers_;
    std::vector<std::unique_ptr<Sm>> sms_;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_GPU_SYSTEM_HPP_
