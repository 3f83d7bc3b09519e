#ifndef MORPHEUS_GPU_SM_HPP_
#define MORPHEUS_GPU_SM_HPP_

#include <cstdint>
#include <queue>
#include <vector>

#include "gpu/l1_cache.hpp"
#include "gpu/mem_request.hpp"
#include "gpu/workload.hpp"
#include "sim/throughput_port.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * A streaming multiprocessor in compute mode: runs the application's
 * warps, issuing up to issue_width warp-instructions per cycle through a
 * shared issue port, and blocks warps on their outstanding memory
 * accesses. Fully event driven (no per-cycle ticking).
 */
class Sm
{
  public:
    /**
     * @param index  global SM id (NoC port).
     * @param ctx    shared fabric plumbing.
     * @param router memory-side routing (GpuSystem).
     * @param wl     the workload generating this SM's warp streams.
     */
    Sm(std::uint32_t index, FabricContext ctx, LlcRouter *router, Workload *wl);

    /** Activates the SM's warps and schedules the first issue. */
    void start();

    /** True when every warp has retired. */
    bool done() const { return live_warps_ == 0; }

    std::uint32_t index() const { return index_; }
    L1Cache &l1() { return l1_; }
    const L1Cache &l1() const { return l1_; }

    /** @name Statistics */
    ///@{
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t mem_instructions() const { return mem_instructions_; }
    Cycle finish_time() const { return finish_time_; }
    /** Issue events armed so far (the dedup-guard regression counter). */
    std::uint64_t issue_events() const { return issue_events_; }
    ///@}

  private:
    struct ReadyEntry
    {
        Cycle when;
        std::uint32_t warp;
        bool operator>(const ReadyEntry &o) const
        {
            return when != o.when ? when > o.when : warp > o.warp;
        }
    };

    void schedule_issue(Cycle when);
    void issue();
    void complete_mem(std::uint32_t warp, Cycle when);
    std::uint32_t alloc_step_counter(std::uint32_t lines);

    std::uint32_t index_;
    FabricContext ctx_;
    LlcRouter *router_;
    Workload *workload_;
    L1Cache l1_;
    ThroughputPort issue_port_;

    struct WarpState
    {
        /** Memory steps currently in flight. */
        std::uint32_t inflight_steps = 0;
        /** True when the warp stalled on exhausted memory credits. */
        bool credit_blocked = false;
    };
    std::vector<WarpState> warps_;
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, std::greater<>> ready_;
    std::uint32_t live_warps_ = 0;

    /**
     * Outstanding-line counters for in-flight memory steps, recycled
     * through a free list. A slot index travels in each L1 response
     * callback instead of a std::make_shared<uint32_t> counter, keeping
     * the per-step capture trivially copyable and small enough for the
     * std::function SSO buffer — the issue loop allocates nothing per
     * step. Slots are released when the last line response arrives.
     */
    std::vector<std::uint32_t> step_counters_;
    std::vector<std::uint32_t> counter_free_;

    /** True while an issue event is armed (dedup guard). */
    bool issue_pending_ = false;
    /** Time of the earliest armed issue event (valid when pending). */
    Cycle issue_event_at_ = 0;
    std::uint64_t issue_events_ = 0;

    std::uint64_t instructions_ = 0;
    std::uint64_t mem_instructions_ = 0;
    Cycle finish_time_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_GPU_SM_HPP_
