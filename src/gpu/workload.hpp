#ifndef MORPHEUS_GPU_WORKLOAD_HPP_
#define MORPHEUS_GPU_WORKLOAD_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/bdi.hpp"
#include "gpu/mem_request.hpp"
#include "sim/types.hpp"

namespace morpheus {

/** Static description of a workload. */
struct WorkloadInfo
{
    std::string name;
    bool memory_bound = true;
};

/**
 * One scheduling step of a warp: a batch of ALU instructions optionally
 * followed by a single memory instruction that touches up to
 * kMaxLinesPerInst distinct cache lines (the post-coalescing footprint of
 * one warp-wide load/store).
 */
struct WarpStep
{
    static constexpr std::uint32_t kMaxLinesPerInst = 8;

    /** Number of ALU warp-instructions preceding the memory op. */
    std::uint32_t alu_instrs = 0;

    /** Number of valid entries in lines[] (0 = pure-ALU step). */
    std::uint32_t num_lines = 0;
    LineAddr lines[kMaxLinesPerInst] = {};
    AccessType type = AccessType::kRead;

    /** Total warp-instructions this step accounts for. */
    std::uint32_t
    instructions() const
    {
        return alu_instrs + (num_lines > 0 ? 1 : 0);
    }
};

/**
 * A GPU kernel as seen by the timing model: a generator of per-warp
 * instruction steps. Implementations are deterministic (seeded per
 * (sm, warp)) so every evaluated system executes the identical work.
 *
 * The total amount of work is fixed (strong scaling): configure(num_sms)
 * repartitions the same work over however many compute SMs a system
 * dedicates, which is what makes execution times comparable across
 * systems and SM counts.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const WorkloadInfo &info() const = 0;

    /** Repartitions the fixed total work over @p num_sms compute SMs. */
    virtual void configure(std::uint32_t num_sms) = 0;

    /** Active warps on compute SM @p sm (occupancy). */
    virtual std::uint32_t warps_on(std::uint32_t sm) const = 0;

    /**
     * Produces the next step for (sm, warp).
     * @return false when the warp has finished all its work.
     */
    virtual bool next_step(std::uint32_t sm, std::uint32_t warp, WarpStep &out) = 0;

    /**
     * Synthesizes the byte contents of @p line, used by the extended-LLC
     * kernel's BDI compressor. Deterministic per line.
     */
    virtual Block synthesize_block(LineAddr line) const = 0;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_WORKLOAD_HPP_
