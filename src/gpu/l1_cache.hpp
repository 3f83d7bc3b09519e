#ifndef MORPHEUS_GPU_L1_CACHE_HPP_
#define MORPHEUS_GPU_L1_CACHE_HPP_

#include <cstdint>
#include <deque>

#include "cache/mshr.hpp"
#include "cache/set_assoc_cache.hpp"
#include "gpu/mem_request.hpp"
#include "sim/types.hpp"

namespace morpheus {

/** The owner of an L1Cache (the SM): told when each access completes. */
class L1Client
{
  public:
    virtual ~L1Client() = default;

    /** The access tagged @p token completed at @p when, observing or
     *  producing data version @p version. */
    virtual void line_done(std::uint32_t token, Cycle when, std::uint64_t version) = 0;
};

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
     * @param ctx      shared fabric plumbing (its router leads to the LLC).
     * @param client   told of every completion (the owning SM).
     * @param bytes    capacity; @p ways associativity; @p latency hit latency.
     * @param mshrs    maximum outstanding distinct line fetches.
     */
    L1Cache(std::uint32_t sm_index, FabricContext ctx, L1Client *client, std::uint64_t bytes,
            std::uint32_t ways, Cycle latency, std::uint32_t mshrs);

    /** Token of an access nobody waits on (a fire-and-forget store). */
    static constexpr std::uint32_t kNoToken = kProbeTokenBit - 1;
    /** Token of the L1's own line fill; the waiters sit in the MSHR. */
    static constexpr std::uint32_t kFillToken = kProbeTokenBit - 2;

    /**
     * Performs a warp-level access to one line. The client's line_done
     * gets @p token when the access completes: for reads, when data is
     * available; for writes, when the LLC acknowledges (callers decide
     * whether the warp blocks on that); atomics behave like reads. A
     * @p token of kNoToken completes silently.
     */
    void access(Cycle when, AccessType type, LineAddr line, std::uint64_t write_version,
                std::uint32_t token);

    /** The response to request @p id (one this L1 sent) arrived at @p when. */
    void on_response(ReqId id, Cycle when, std::uint64_t version);

    /** Hint: prefetches the tag set and MSHR slot a response for @p line
     *  touches. Changes no state. */
    void
    prefetch(LineAddr line) const noexcept
    {
        cache_.prefetch(line);
        mshrs_.prefetch(line);
    }

    /** Grows the capacity (Unified-SM-Mem system: unused RF space). */
    void add_capacity(std::uint64_t extra_bytes);

    /** @name Statistics */
    ///@{
    std::uint64_t hits() const { return cache_.hits(); }
    std::uint64_t misses() const { return cache_.misses(); }
    std::uint64_t capacity_bytes() const { return cache_.capacity_bytes(); }
    const MshrTable<std::uint32_t> &mshrs() const { return mshrs_; }
    ///@}

  private:
    void start_read(Cycle when, LineAddr line, std::uint32_t token);
    void drain_replay(Cycle when);

    /** Schedules @p token's completion, at @p when, with @p version. */
    void complete_at(Cycle when, std::uint32_t token, std::uint64_t version);

    /** Schedules the NoC departure of @p req at @p when. */
    void forward(Cycle when, const MemRequest &req, std::uint32_t token);

    /** Tells the client that @p token completed (kNoToken: nobody). */
    void
    done(std::uint32_t token, Cycle when, std::uint64_t version)
    {
        if (token != kNoToken)
            client_->line_done(token, when, version);
    }

    std::uint32_t sm_index_;
    FabricContext ctx_;
    L1Client *client_;
    Cycle latency_;
    std::uint32_t ways_;
    SetAssocCache cache_;
    /** Read misses in flight; each waiter is its access's token. */
    MshrTable<std::uint32_t> mshrs_;

    struct Pending
    {
        LineAddr line;
        std::uint32_t token;
    };
    std::deque<Pending> replay_queue_;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_L1_CACHE_HPP_
