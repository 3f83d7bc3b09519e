#ifndef MORPHEUS_WORKLOADS_SYNTHETIC_WORKLOAD_HPP_
#define MORPHEUS_WORKLOADS_SYNTHETIC_WORKLOAD_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/workload.hpp"
#include "sim/rng.hpp"
#include "workloads/access_pattern.hpp"
#include "workloads/block_data.hpp"

namespace morpheus {

/**
 * Full parameterization of one synthetic application (the knobs that
 * matter to a memory-system study; see DESIGN.md §1 for the substitution
 * rationale).
 */
struct WorkloadParams
{
    std::string name = "synthetic";
    bool memory_bound = true;

    PatternKind pattern = PatternKind::kStreamShared;

    /** ALU warp-instructions per memory instruction (arithmetic intensity). */
    std::uint32_t alu_per_mem = 4;

    /** Distinct lines per warp memory instruction (1 = fully coalesced). */
    std::uint32_t lines_per_mem = 1;

    /** Shared working set (matrices, graphs, tables), bytes. */
    std::uint64_t shared_ws_bytes = 8ULL << 20;

    /** Private per-warp working set (grows the footprint with occupancy). */
    std::uint64_t per_warp_ws_bytes = 0;

    /** Fraction of accesses going to the private region (in families other
     *  than kPrivateLoop, which is all-private by construction). */
    double private_frac = 0.0;

    /** Fraction of accesses hitting the hot prefix of the shared region. */
    double reuse_frac = 0.0;

    /** Hot prefix size as a fraction of the shared region. */
    double hot_frac = 0.1;

    double zipf_alpha = 0.8;

    double write_frac = 0.15;
    double atomic_frac = 0.0;

    /** Warp occupancy per compute SM. */
    std::uint32_t warps_per_sm = 32;

    /** Total warp memory instructions across the whole grid (fixed work). */
    std::uint64_t total_mem_instrs = 200'000;

    /** Stencil row width in lines. */
    std::uint32_t stencil_row = 256;
    /** Tile size/reuse for kTiledReuse. */
    std::uint32_t tile_lines = 64;
    std::uint32_t tile_reuse = 8;

    BlockDataProfile data{};

    std::uint64_t seed = 0xB0BA;
};

/**
 * The concrete Workload implementation driving every experiment:
 * deterministic per-(sm, warp) streams generated from WorkloadParams.
 */
class SyntheticWorkload final : public Workload
{
  public:
    explicit SyntheticWorkload(const WorkloadParams &params);

    const WorkloadInfo &info() const override { return info_; }
    void configure(std::uint32_t num_sms) override;
    std::uint32_t warps_on(std::uint32_t sm) const override;
    bool next_step(std::uint32_t sm, std::uint32_t warp, WarpStep &out) override;
    Block synthesize_block(LineAddr line) const override;

    const WorkloadParams &params() const { return params_; }

    /** Total footprint (shared + all private regions), bytes. */
    std::uint64_t footprint_bytes() const;

  private:
    struct WarpCtx
    {
        PatternState state;
        PatternGeometry geom;
        std::uint64_t steps_left = 0;
    };

    WorkloadParams params_;
    WorkloadInfo info_;
    std::uint32_t num_sms_ = 0;
    std::uint64_t total_warps_ = 0;
    std::vector<WarpCtx> warps_;  // indexed sm * warps_per_sm + warp
    std::unique_ptr<ZipfSampler> zipf_;
};

} // namespace morpheus

#endif // MORPHEUS_WORKLOADS_SYNTHETIC_WORKLOAD_HPP_
