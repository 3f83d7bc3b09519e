#ifndef MORPHEUS_GPU_LLC_PARTITION_HPP_
#define MORPHEUS_GPU_LLC_PARTITION_HPP_

#include <cstdint>

#include "cache/mshr.hpp"
#include "cache/set_assoc_cache.hpp"
#include "gpu/mem_request.hpp"
#include "sim/stats.hpp"
#include "sim/throughput_port.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * One conventional LLC partition: a banked slice of the shared L2 with its
 * own memory channel behind it (RTX 3080: 10 such partitions).
 *
 * Write-back, write-allocate; global atomics execute here on the
 * partition's atomic units (§4.2.3 background). Requests arrive already
 * delivered by the NoC; responses are pushed back through the NoC by this
 * class.
 */
class LlcPartition
{
  public:
    /**
     * @param index     partition id (also its DRAM channel).
     * @param ctx       shared fabric plumbing.
     * @param sets,ways geometry of this partition's slice.
     * @param latency   pipeline latency of a lookup, cycles.
     * @param banks     number of banks; @p bank_occupancy cycles each per access.
     */
    LlcPartition(std::uint32_t index, FabricContext ctx, std::uint32_t sets, std::uint32_t ways,
                 Cycle latency, std::uint32_t banks, Cycle bank_occupancy);

    /**
     * Handles request @p id arriving at this partition at @p when. The
     * router delivers it when the response reaches the requesting SM.
     */
    void handle(Cycle when, ReqId id);

    /**
     * Fetches @p line from this partition's DRAM channel bypassing the
     * LLC arrays (Morpheus predicted-miss / extended-LLC miss path).
     * @return completion time at the partition.
     */
    Cycle dram_fetch(Cycle when, LineAddr line);

    /** Writes @p line back to DRAM bypassing the LLC arrays. */
    void dram_writeback(Cycle when, LineAddr line, std::uint64_t version);

    /** Applies a clock multiplier (Frequency-Boost system). */
    void set_frequency_scale(double scale);

    std::uint32_t index() const { return index_; }

    /** @name Statistics */
    ///@{
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    const SetAssocCache &cache() const { return cache_; }
    const Accumulator &hit_latency() const { return hit_latency_; }
    const Accumulator &miss_latency() const { return miss_latency_; }
    ///@}

  private:
    /** A request parked on an outstanding miss until the line returns. */
    struct MissWaiter
    {
        Cycle issued = 0;
        ReqId id = 0;
    };

    /** The request-path events; each prefetches the state it touches. */
    struct LookupEvent;
    struct FillEvent;
    struct DeliveryEvent;

    /** Performs the lookup once a bank granted service. */
    void lookup(Cycle when, ReqId id);

    /** @p line returned from DRAM at @p done: installs it and answers
     *  the requests parked on its MSHR entry. */
    void complete_fill(LineAddr line, Cycle done);

    /** Sends the response over the NoC and schedules its delivery. */
    void respond(Cycle when, ReqId id, std::uint64_t version, bool carries_data);

    std::uint32_t index_;
    FabricContext ctx_;
    Cycle latency_;
    /** Lookup pipeline latency under the current clock multiplier. */
    Cycle lookup_cycles_;
    SetAssocCache cache_;
    PortPool banks_;
    MshrTable<MissWaiter> mshrs_;

    std::uint64_t accesses_ = 0;
    Accumulator hit_latency_;
    Accumulator miss_latency_;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_LLC_PARTITION_HPP_
