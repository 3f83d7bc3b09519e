#include "gpu/llc_partition.hpp"

#include <algorithm>
#include <cassert>

#include "mem/backing_store.hpp"
#include "mem/dram.hpp"
#include "noc/crossbar.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {

LlcPartition::LlcPartition(std::uint32_t index, FabricContext ctx, std::uint32_t sets,
                           std::uint32_t ways, Cycle latency, std::uint32_t banks,
                           Cycle bank_occupancy)
    : index_(index), ctx_(ctx), latency_(latency), lookup_cycles_(latency),
      cache_(sets, ways, true),
      banks_(banks, 1.0 / static_cast<double>(bank_occupancy))
{
}

void
LlcPartition::set_frequency_scale(double scale)
{
    lookup_cycles_ = static_cast<Cycle>(static_cast<double>(latency_) / scale);
}

struct LlcPartition::LookupEvent
{
    LlcPartition *llc;
    Cycle issued;
    LineAddr line;
    ReqId id;

    void operator()() const { llc->lookup(issued, id); }
    void
    prefetch() const noexcept
    {
        llc->ctx_.reqs->prefetch(id);
        llc->cache_.prefetch(line);
        llc->mshrs_.prefetch(line);
    }
};

struct LlcPartition::FillEvent
{
    LlcPartition *llc;
    LineAddr line;
    Cycle done;

    void operator()() const { llc->complete_fill(line, done); }
    void
    prefetch() const noexcept
    {
        llc->ctx_.store->prefetch(line);
        llc->cache_.prefetch(line);
        llc->mshrs_.prefetch(line);
    }
};

/** Runs at the delivery time, which is therefore the queue's now(). */
struct LlcPartition::DeliveryEvent
{
    LlcPartition *llc;
    ReqId id;
    std::uint32_t requester_sm;
    LineAddr line;
    std::uint64_t version;

    void operator()() const { llc->ctx_.router->deliver(id, llc->ctx_.eq->now(), version); }
    void
    prefetch() const noexcept
    {
        llc->ctx_.reqs->prefetch(id);
        llc->ctx_.router->prefetch_delivery(requester_sm, line);
    }
};

void
LlcPartition::handle(Cycle when, ReqId id)
{
    ++accesses_;
    ctx_.energy->add_llc_bytes(kLineBytes);

    // Reserve a bank, then the pipeline latency.
    const LineAddr line = (*ctx_.reqs)[id].req.line;
    const Cycle granted = banks_.acquire_keyed(when, mix64(line), 1);
    const Cycle looked_up = granted + lookup_cycles_;
    ctx_.eq->schedule(looked_up, LookupEvent{this, when, line, id});
}

void
LlcPartition::lookup(Cycle issued, ReqId id)
{
    const Cycle now = ctx_.eq->now();
    const MemRequest &req = (*ctx_.reqs)[id].req;
    switch (req.type) {
      case AccessType::kRead: {
        const auto result = cache_.read(req.line);
        if (result.hit) {
            hit_latency_.add(static_cast<double>(now - issued));
            respond(now, id, result.version, true);
            return;
        }
        break;
      }
      case AccessType::kWrite: {
        const auto result = cache_.write(req.line, req.write_version);
        if (result.hit) {
            respond(now, id, req.write_version, false);
            return;
        }
        break;
      }
      case AccessType::kAtomic: {
        // Atomic units sit next to the tags: read-modify-write when
        // present.
        const auto result = cache_.read(req.line);
        if (result.hit) {
            const std::uint64_t version = std::max(result.version, req.write_version);
            cache_.write(req.line, version);
            respond(now, id, version, true);
            return;
        }
        break;
      }
    }

    // Miss path: merge into the partition MSHRs and fetch from DRAM.
    const bool primary = mshrs_.allocate_or_merge(req.line, MissWaiter{issued, id});
    if (!primary)
        return;

    const Cycle done = dram_fetch(now, req.line);
    ctx_.eq->schedule(done, FillEvent{this, req.line, done});
}

void
LlcPartition::complete_fill(LineAddr line, Cycle done)
{
    const std::uint64_t version = ctx_.store->read(line);
    // Install clean; merged writers dirty it via their waiters.
    const auto evicted = cache_.fill(line, version, false);
    if (evicted && evicted->dirty)
        dram_writeback(done, evicted->line, evicted->version);
    mshrs_.release(line, [this, done, version](const MissWaiter &w) {
        const MemRequest &wreq = (*ctx_.reqs)[w.id].req;
        std::uint64_t out_version = version;
        if (wreq.type == AccessType::kWrite || wreq.type == AccessType::kAtomic) {
            out_version = std::max(version, wreq.write_version);
            cache_.write(wreq.line, out_version);
        }
        miss_latency_.add(static_cast<double>(done - w.issued));
        respond(done, w.id, out_version, wreq.type != AccessType::kWrite);
    });
}

Cycle
LlcPartition::dram_fetch(Cycle when, LineAddr line)
{
    ctx_.energy->add_dram_bytes(kLineBytes);
    return ctx_.dram->access(when, index_, line, false);
}

void
LlcPartition::dram_writeback(Cycle when, LineAddr line, std::uint64_t version)
{
    ctx_.energy->add_dram_bytes(kLineBytes);
    ctx_.store->write(line, version);
    ctx_.dram->access(when, index_, line, true);
}

void
LlcPartition::respond(Cycle when, ReqId id, std::uint64_t version, bool carries_data)
{
    const std::uint32_t payload = carries_data ? kLineBytes : 0;
    ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
    const MemRequest &req = (*ctx_.reqs)[id].req;
    const Cycle delivered = ctx_.noc->partition_to_sm(when, index_, req.requester_sm, payload);
    assert(delivered >= ctx_.eq->now()); // DeliveryEvent reads the time back as now()
    ctx_.eq->schedule(delivered, DeliveryEvent{this, id, req.requester_sm, req.line, version});
}

} // namespace morpheus
