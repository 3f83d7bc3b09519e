#ifndef MORPHEUS_POWER_ENERGY_MODEL_HPP_
#define MORPHEUS_POWER_ENERGY_MODEL_HPP_

#include <cstdint>

#include "sim/types.hpp"

namespace morpheus {

/**
 * Per-event energy and static-power constants (AccelWattch-style
 * accounting). Dynamic energies are picojoules; static powers are watts.
 * Anchors from the paper (§5, §7.5): conventional LLC ~10 pJ/B, extended
 * LLC ~53-61 pJ/B (dominated by kernel execution + NoC), DRAM accesses are
 * the most energy-hungry, Morpheus controller adds 0.93% of GPU power.
 */
struct EnergyParams
{
    /** @name Dynamic energy, pJ */
    ///@{
    double instr_pj = 60.0;          ///< per issued warp-instruction
    double l1_pj_per_byte = 1.2;
    double llc_pj_per_byte = 10.0;   ///< paper §5: ~10 pJ/B
    double dram_pj_per_byte = 110.0; ///< off-chip GDDR6X, incl. I/O
    double noc_pj_per_byte = 2.5;
    double rf_pj_per_byte = 0.6;     ///< register file (extended LLC data array)
    double smem_pj_per_byte = 2.0;
    ///@}

    /** @name Static power, W */
    ///@{
    double sm_static_w = 1.6;        ///< per powered-on SM
    double sm_gated_w = 0.12;        ///< per power-gated SM (residual)
    double mem_static_w = 34.0;      ///< LLC + memory controllers + DRAM background
    double base_static_w = 28.0;     ///< everything else (display, scheduler, ...)
    ///@}

    /** Morpheus controller power overhead, fraction of total GPU power. */
    double controller_overhead_frac = 0.0093;
};

/** Energy totals broken down by component, joules. */
struct EnergyBreakdown
{
    double instr_j = 0;
    double l1_j = 0;
    double llc_j = 0;
    double dram_j = 0;
    double noc_j = 0;
    double rf_j = 0;
    double smem_j = 0;
    double static_j = 0;
    double controller_j = 0;

    double
    total_j() const
    {
        return instr_j + l1_j + llc_j + dram_j + noc_j + rf_j + smem_j + static_j +
               controller_j;
    }

    /** Serialization inside RunResult::state (the `.mrce` payload). */
    template <class A>
    void
    state(A &ar)
    {
        ar.field(instr_j);
        ar.field(l1_j);
        ar.field(llc_j);
        ar.field(dram_j);
        ar.field(noc_j);
        ar.field(rf_j);
        ar.field(smem_j);
        ar.field(static_j);
        ar.field(controller_j);
    }
};

/**
 * Accumulates dynamic energy events during a run; finalize() adds static
 * energy for the elapsed time and the Morpheus controller overhead.
 * 1 pJ per ns equals 1 mW, so average power in watts is simply
 * total picojoules / elapsed nanoseconds / 1000.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = {}) : params_(params) {}

    const EnergyParams &params() const { return params_; }

    /** @name Dynamic event hooks (called by timing components) */
    ///@{
    void add_instructions(std::uint64_t n) { instr_pj_ += params_.instr_pj * static_cast<double>(n); }
    void add_l1_bytes(std::uint64_t b) { l1_pj_ += params_.l1_pj_per_byte * static_cast<double>(b); }
    void add_llc_bytes(std::uint64_t b) { llc_pj_ += params_.llc_pj_per_byte * static_cast<double>(b); }
    void add_dram_bytes(std::uint64_t b) { dram_pj_ += params_.dram_pj_per_byte * static_cast<double>(b); }
    void add_noc_bytes(std::uint64_t b) { noc_pj_ += params_.noc_pj_per_byte * static_cast<double>(b); }
    void add_rf_bytes(std::uint64_t b) { rf_pj_ += params_.rf_pj_per_byte * static_cast<double>(b); }
    void add_smem_bytes(std::uint64_t b) { smem_pj_ += params_.smem_pj_per_byte * static_cast<double>(b); }
    ///@}

    /**
     * Computes the final energy breakdown.
     *
     * @param elapsed        run length in cycles (= ns).
     * @param active_sms     SMs powered on (compute + cache mode).
     * @param gated_sms      SMs power-gated for the whole run.
     * @param controller_on  whether the Morpheus controller is present.
     */
    EnergyBreakdown finalize(Cycle elapsed, std::uint32_t active_sms, std::uint32_t gated_sms,
                             bool controller_on) const;

    /** Average power in watts for a finalized breakdown. */
    static double
    average_watts(const EnergyBreakdown &bd, Cycle elapsed)
    {
        return elapsed ? bd.total_j() / (static_cast<double>(elapsed) * 1e-9) : 0.0;
    }

  private:
    EnergyParams params_;
    double instr_pj_ = 0;
    double l1_pj_ = 0;
    double llc_pj_ = 0;
    double dram_pj_ = 0;
    double noc_pj_ = 0;
    double rf_pj_ = 0;
    double smem_pj_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_POWER_ENERGY_MODEL_HPP_
