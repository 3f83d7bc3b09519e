#include "gpu/l1_cache.hpp"

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

L1Cache::L1Cache(std::uint32_t sm_index, FabricContext ctx, L1Client *client,
                 std::uint64_t bytes, std::uint32_t ways, Cycle latency, std::uint32_t mshrs)
    : sm_index_(sm_index), ctx_(ctx), client_(client), latency_(latency), ways_(ways),
      cache_(sets_for(bytes, ways), ways, false), mshrs_(mshrs)
{
}

void
L1Cache::add_capacity(std::uint64_t extra_bytes)
{
    const std::uint64_t new_bytes = cache_.capacity_bytes() + extra_bytes;
    cache_ = SetAssocCache(sets_for(new_bytes, ways_), ways_, false);
}

void
L1Cache::access(Cycle when, AccessType type, LineAddr line, std::uint64_t write_version,
                std::uint32_t token)
{
    ctx_.energy->add_l1_bytes(kLineBytes);
    const Cycle looked_up = when + latency_;

    switch (type) {
      case AccessType::kAtomic: {
        // Atomics execute at the LLC; drop any local copy so later L1
        // reads refetch the updated line.
        cache_.invalidate(line);
        forward(looked_up, MemRequest{line, AccessType::kAtomic, sm_index_, write_version},
                token);
        return;
      }
      case AccessType::kWrite: {
        // Write-through, no write-allocate: update a present copy, then
        // forward to the LLC which owns the dirty data.
        cache_.write(line, write_version);
        forward(looked_up, MemRequest{line, AccessType::kWrite, sm_index_, write_version},
                token);
        return;
      }
      case AccessType::kRead:
        break;
    }

    const auto result = cache_.read(line);
    if (result.hit) {
        complete_at(looked_up, token, result.version);
        return;
    }

    if (mshrs_.full() && !mshrs_.has(line)) {
        // Structural stall: park the request; it replays when a fill
        // frees an MSHR entry.
        replay_queue_.push_back(Pending{line, token});
        return;
    }
    start_read(looked_up, line, token);
}

void
L1Cache::start_read(Cycle when, LineAddr line, std::uint32_t token)
{
    const bool primary = mshrs_.allocate_or_merge(line, token);
    if (!primary)
        return;
    forward(when, MemRequest{line, AccessType::kRead, sm_index_, 0}, kFillToken);
}

void
L1Cache::on_response(ReqId id, Cycle when, std::uint64_t version)
{
    // Read the record before releasing it: draining the replay queue
    // below issues new requests.
    const std::uint32_t token = (*ctx_.reqs)[id].token;
    const LineAddr line = (*ctx_.reqs)[id].req.line;
    ctx_.reqs->release(id);
    if (token != kFillToken) {
        done(token, when, version);
        return;
    }
    // Fill is clean: L1 is write-through.
    cache_.fill(line, version, false);
    mshrs_.release(line, [this, when, version](std::uint32_t waiter) {
        done(waiter, when, version);
    });
    drain_replay(when);
}

void
L1Cache::complete_at(Cycle when, std::uint32_t token, std::uint64_t version)
{
    ctx_.eq->schedule(when, [this, token, when, version] { done(token, when, version); });
}

void
L1Cache::forward(Cycle when, const MemRequest &req, std::uint32_t token)
{
    // Departure happens as an event at @p when so the NoC sees monotonic
    // reservation times.
    const ReqId id = ctx_.reqs->acquire(req, token);
    ctx_.eq->schedule(when, [this, id] { ctx_.router->to_llc(ctx_.eq->now(), id); });
}

void
L1Cache::drain_replay(Cycle when)
{
    while (!replay_queue_.empty() && (!mshrs_.full() || mshrs_.has(replay_queue_.front().line))) {
        const Pending p = replay_queue_.front();
        replay_queue_.pop_front();
        // Replayed reads may now hit (the fill that freed the MSHR may be
        // the very line they wanted).
        const auto result = cache_.read(p.line);
        if (result.hit)
            complete_at(when + latency_, p.token, result.version);
        else
            start_read(when + latency_, p.line, p.token);
    }
}

} // namespace morpheus
