#include "gpu/l1_cache.hpp"

#include <utility>

#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {
namespace {

std::uint32_t
sets_for(std::uint64_t bytes, std::uint32_t ways)
{
    const std::uint64_t lines = bytes / kLineBytes;
    return static_cast<std::uint32_t>(lines / ways ? lines / ways : 1);
}

} // namespace

L1Cache::L1Cache(std::uint32_t sm_index, FabricContext ctx, LlcRouter *router,
                 std::uint64_t bytes, std::uint32_t ways, Cycle latency, std::uint32_t mshrs)
    : sm_index_(sm_index), ctx_(ctx), router_(router), latency_(latency), ways_(ways),
      cache_(sets_for(bytes, ways), ways, ReplacementKind::kLru, false), mshrs_(mshrs)
{
}

void
L1Cache::add_capacity(std::uint64_t extra_bytes)
{
    const std::uint64_t new_bytes = cache_.capacity_bytes() + extra_bytes;
    cache_ = SetAssocCache(sets_for(new_bytes, ways_), ways_, ReplacementKind::kLru, false);
}

void
L1Cache::access(Cycle when, AccessType type, LineAddr line, std::uint64_t write_version,
                RespFn done)
{
    ctx_.energy->add_l1_bytes(kLineBytes);
    const Cycle looked_up = when + latency_;

    switch (type) {
      case AccessType::kAtomic: {
        // Atomics execute at the LLC; drop any local copy so later L1
        // reads refetch the updated line.
        cache_.invalidate(line);
        forward(looked_up, MemRequest{line, AccessType::kAtomic, sm_index_, write_version},
                std::move(done));
        return;
      }
      case AccessType::kWrite: {
        // Write-through, no write-allocate: update a present copy, then
        // forward to the LLC which owns the dirty data.
        cache_.write(line, write_version);
        forward(looked_up, MemRequest{line, AccessType::kWrite, sm_index_, write_version},
                std::move(done));
        return;
      }
      case AccessType::kRead:
        break;
    }

    const auto result = cache_.read(line);
    if (result.hit) {
        ctx_.eq->schedule(looked_up,
                          [done = std::move(done), looked_up, v = result.version] {
                              done(looked_up, v);
                          });
        return;
    }

    if (mshrs_.full() && !mshrs_.has(line)) {
        // Structural stall: park the request; it replays when a fill
        // frees an MSHR entry.
        replay_queue_.push_back(Pending{line, std::move(done)});
        return;
    }
    start_read(looked_up, line, std::move(done));
}

void
L1Cache::start_read(Cycle when, LineAddr line, RespFn done)
{
    const bool primary = mshrs_.allocate_or_merge(line, std::move(done));
    if (!primary)
        return;

    forward(when, MemRequest{line, AccessType::kRead, sm_index_, 0},
            [this, line](Cycle t, std::uint64_t version) {
                // Fill is clean: L1 is write-through.
                cache_.fill(line, version, false);
                for (auto &waiter : mshrs_.release(line))
                    waiter(t, version);
                drain_replay(t);
            });
}

void
L1Cache::forward(Cycle when, const MemRequest &req, RespFn done)
{
    // Departure happens as an event at @p when so the NoC sees monotonic
    // reservation times.
    ctx_.eq->schedule(when, [this, req, done = std::move(done)]() mutable {
        router_->to_llc(ctx_.eq->now(), req, std::move(done));
    });
}

void
L1Cache::drain_replay(Cycle when)
{
    while (!replay_queue_.empty() && (!mshrs_.full() || mshrs_.has(replay_queue_.front().line))) {
        Pending p = std::move(replay_queue_.front());
        replay_queue_.pop_front();
        // Replayed reads may now hit (the fill that freed the MSHR may be
        // the very line they wanted).
        const auto result = cache_.read(p.line);
        if (result.hit) {
            const Cycle t = when + latency_;
            ctx_.eq->schedule(t, [done = std::move(p.done), t, v = result.version] {
                done(t, v);
            });
        } else {
            start_read(when + latency_, p.line, std::move(p.done));
        }
    }
}

} // namespace morpheus
