#include "gpu/sm.hpp"

#include <memory>

#include "gpu/gpu_config.hpp"
#include "mem/backing_store.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {

Sm::Sm(std::uint32_t index, FabricContext ctx, LlcRouter *router, Workload *wl)
    : index_(index), ctx_(ctx), router_(router), workload_(wl),
      l1_(index, ctx, router, ctx.cfg->l1_bytes, ctx.cfg->l1_ways, ctx.cfg->l1_latency,
          ctx.cfg->l1_mshrs),
      issue_port_(ThroughputPort::from_rate(ctx.cfg->issue_width))
{
}

void
Sm::start()
{
    const std::uint32_t n = workload_->warps_on(index_);
    warps_.assign(n, WarpState{});
    live_warps_ = n;
    const Cycle now = ctx_.eq->now();
    for (std::uint32_t w = 0; w < n; ++w) {
        // Stagger warp launches (CTA rasterization) so the memory system
        // does not see a single synchronized thundering herd at t=0.
        const Cycle stagger = mix64(index_ * 131 + w) % 512;
        ready_.push(ReadyEntry{now + stagger, w});
    }
    if (n > 0)
        schedule_issue(now);
}

void
Sm::schedule_issue(Cycle when)
{
    // An event already pending at or before `when` will pick the work up;
    // `issue_pending_` (not a time sentinel) tracks that, since cycle 0
    // is a perfectly valid schedule time.
    if (issue_pending_ && issue_event_at_ <= when)
        return;
    issue_pending_ = true;
    issue_event_at_ = when;
    ++issue_events_;
    ctx_.eq->schedule(when, [this] { issue(); });
}

void
Sm::issue()
{
    issue_pending_ = false;
    const Cycle now = ctx_.eq->now();

    while (!ready_.empty()) {
        const ReadyEntry top = ready_.top();
        if (top.when > now) {
            schedule_issue(top.when);
            return;
        }
        ready_.pop();

        WarpStep step;
        if (!workload_->next_step(index_, top.warp, step)) {
            if (--live_warps_ == 0)
                finish_time_ = now;
            continue;
        }

        const std::uint32_t n_instr = step.instructions();
        issue_port_.acquire(now, n_instr);
        const Cycle end = issue_port_.next_free();
        instructions_ += n_instr;
        ctx_.energy->add_instructions(n_instr);

        if (step.num_lines == 0) {
            // Pure-ALU step: the warp is ready again once issued.
            ready_.push(ReadyEntry{end, top.warp});
            continue;
        }

        ++mem_instructions_;
        const bool blocking = step.type != AccessType::kWrite || ctx_.cfg->blocking_writes;
        std::uint64_t version = 0;
        if (step.type != AccessType::kRead)
            version = ctx_.store->next_version();

        WarpState &ws = warps_[top.warp];
        if (blocking) {
            // The step occupies one scoreboard credit until all its line
            // requests respond; the warp keeps issuing until credits run
            // out (memory-level parallelism).
            ++ws.inflight_steps;
            if (ws.inflight_steps >= ctx_.cfg->warp_mem_credits)
                ws.credit_blocked = true;
            else
                ready_.push(ReadyEntry{end, top.warp});
        } else {
            // Fire-and-forget store: warp continues after a fixed
            // store-queue occupancy.
            ready_.push(ReadyEntry{end + 4, top.warp});
        }

        if (blocking) {
            const std::uint32_t slot = alloc_step_counter(step.num_lines);
            for (std::uint32_t i = 0; i < step.num_lines; ++i) {
                const std::uint32_t warp = top.warp;
                l1_.access(end, step.type, step.lines[i], version,
                           [this, warp, slot](Cycle t, std::uint64_t) {
                               if (--step_counters_[slot] == 0) {
                                   counter_free_.push_back(slot);
                                   complete_mem(warp, t);
                               }
                           });
            }
        } else {
            // Fire-and-forget: nothing waits on the responses.
            for (std::uint32_t i = 0; i < step.num_lines; ++i)
                l1_.access(end, step.type, step.lines[i], version, [](Cycle, std::uint64_t) {});
        }
    }
    // All warps blocked (or done): complete_mem re-arms issuing.
}

std::uint32_t
Sm::alloc_step_counter(std::uint32_t lines)
{
    std::uint32_t slot;
    if (counter_free_.empty()) {
        slot = static_cast<std::uint32_t>(step_counters_.size());
        step_counters_.push_back(lines);
    } else {
        slot = counter_free_.back();
        counter_free_.pop_back();
        step_counters_[slot] = lines;
    }
    return slot;
}

void
Sm::complete_mem(std::uint32_t warp, Cycle when)
{
    WarpState &ws = warps_[warp];
    --ws.inflight_steps;
    if (ws.credit_blocked) {
        ws.credit_blocked = false;
        ready_.push(ReadyEntry{when, warp});
        schedule_issue(when);
    }
}

} // namespace morpheus
