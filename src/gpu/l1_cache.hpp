#ifndef MORPHEUS_GPU_L1_CACHE_HPP_
#define MORPHEUS_GPU_L1_CACHE_HPP_

#include <cstdint>
#include <deque>

#include "cache/mshr.hpp"
#include "cache/set_assoc_cache.hpp"
#include "gpu/mem_request.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * The per-SM L1 data cache.
 *
 * GPU-realistic policies: read-allocate, write-through without write
 * allocation (L1 lines are never dirty, so evictions are silent), atomics
 * bypass the L1 entirely and execute at the LLC. Misses merge in an MSHR
 * table; when the table is full, requests wait in a FIFO replay queue.
 */
class L1Cache
{
  public:
    /**
     * @param sm_index owning SM (for routing).
     * @param ctx      shared fabric plumbing.
     * @param router   path to the LLC (GpuSystem).
     * @param bytes    capacity; @p ways associativity; @p latency hit latency.
     * @param mshrs    maximum outstanding distinct line fetches.
     */
    L1Cache(std::uint32_t sm_index, FabricContext ctx, LlcRouter *router, std::uint64_t bytes,
            std::uint32_t ways, Cycle latency, std::uint32_t mshrs);

    /**
     * Performs a warp-level access to one line.
     * @p done is scheduled when the access completes: for reads, when data
     * is available; for writes, when the LLC acknowledges (callers decide
     * whether the warp blocks on that); atomics behave like reads.
     */
    void access(Cycle when, AccessType type, LineAddr line, std::uint64_t write_version,
                RespFn done);

    /** Grows the capacity (Unified-SM-Mem system: unused RF space). */
    void add_capacity(std::uint64_t extra_bytes);

    /** @name Statistics */
    ///@{
    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    std::uint64_t capacity_bytes() const { return cache_.capacity_bytes(); }
    const MshrTable<RespFn> &mshrs() const { return mshrs_; }
    ///@}

  private:
    void start_read(Cycle when, LineAddr line, RespFn done);
    void drain_replay(Cycle when);

    /** Schedules the NoC departure of @p req at @p when. */
    void forward(Cycle when, const MemRequest &req, RespFn done);

    std::uint32_t sm_index_;
    FabricContext ctx_;
    LlcRouter *router_;
    Cycle latency_;
    std::uint32_t ways_;
    SetAssocCache cache_;
    MshrTable<RespFn> mshrs_;

    struct Pending
    {
        LineAddr line;
        RespFn done;
    };
    std::deque<Pending> replay_queue_;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_L1_CACHE_HPP_
