#include "gpu/llc_partition.hpp"

#include <algorithm>
#include <utility>

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
      cache_(sets, ways, ReplacementKind::kLru, true),
      banks_(banks, 1.0 / static_cast<double>(bank_occupancy))
{
}

void
LlcPartition::set_frequency_scale(double scale)
{
    lookup_cycles_ = static_cast<Cycle>(static_cast<double>(latency_) / scale);
}

void
LlcPartition::handle(Cycle when, const MemRequest &req, RespFn resp)
{
    ++accesses_;
    ctx_.energy->add_llc_bytes(kLineBytes);

    // Reserve a bank, then the pipeline latency.
    const Cycle granted = banks_.acquire_keyed(when, mix64(req.line), 1);
    const Cycle looked_up = granted + lookup_cycles_;
    ctx_.eq->schedule(looked_up, [this, when, req, resp = std::move(resp)]() mutable {
        lookup(when, req, std::move(resp));
    });
}

void
LlcPartition::lookup(Cycle issued, const MemRequest &req, RespFn resp)
{
    const Cycle now = ctx_.eq->now();
    switch (req.type) {
      case AccessType::kRead: {
        const auto result = cache_.read(req.line);
        if (result.hit) {
            hit_latency_.add(static_cast<double>(now - issued));
            respond(now, req, result.version, true, std::move(resp));
            return;
        }
        break;
      }
      case AccessType::kWrite: {
        const auto result = cache_.write(req.line, req.write_version);
        if (result.hit) {
            respond(now, req, req.write_version, false, std::move(resp));
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
            respond(now, req, version, true, std::move(resp));
            return;
        }
        break;
      }
    }

    // Miss path: merge into the partition MSHRs and fetch from DRAM.
    const bool primary =
        mshrs_.allocate_or_merge(req.line, MissWaiter{issued, req, std::move(resp)});
    if (!primary)
        return;

    const Cycle done = dram_fetch(now, req.line);
    ctx_.eq->schedule(done, [this, line = req.line, done] {
        const std::uint64_t version = ctx_.store->read(line);
        // Install clean; merged writers dirty it via their waiters.
        const auto evicted = cache_.fill(line, version, false);
        if (evicted && evicted->dirty)
            dram_writeback(done, evicted->line, evicted->version);
        mshrs_.release(line, [this, done, version](MissWaiter &w) {
            std::uint64_t out_version = version;
            if (w.req.type == AccessType::kWrite || w.req.type == AccessType::kAtomic) {
                out_version = std::max(version, w.req.write_version);
                cache_.write(w.req.line, out_version);
            }
            miss_latency_.add(static_cast<double>(done - w.issued));
            respond(done, w.req, out_version, w.req.type != AccessType::kWrite,
                    std::move(w.resp));
        });
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
LlcPartition::respond(Cycle when, const MemRequest &req, std::uint64_t version,
                      bool carries_data, RespFn resp)
{
    const std::uint32_t payload = carries_data ? kLineBytes : 0;
    ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
    const Cycle delivered = ctx_.noc->partition_to_sm(when, index_, req.requester_sm, payload);
    ctx_.eq->schedule(delivered, [resp = std::move(resp), delivered, version] {
        resp(delivered, version);
    });
}

} // namespace morpheus
