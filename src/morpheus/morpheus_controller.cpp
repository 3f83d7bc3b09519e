#include "morpheus/morpheus_controller.hpp"

#include <algorithm>

#include "gpu/gpu_config.hpp"
#include "mem/backing_store.hpp"
#include "noc/crossbar.hpp"
#include "power/energy_model.hpp"
#include "sim/event_queue.hpp"

namespace morpheus {

// ---------------------------------------------------------------------------
// ExtendedLlc

ExtendedLlc::ExtendedLlc(FabricContext ctx, const ExtLlcParams &params,
                         const std::vector<std::uint32_t> &cache_sm_ids,
                         const Workload *workload, std::uint64_t conv_bytes,
                         std::vector<std::unique_ptr<LlcPartition>> *partitions)
    : ctx_(ctx), params_(params)
{
    for (std::uint32_t id : cache_sm_ids) {
        sms_.push_back(std::make_unique<CacheModeSm>(id, ctx, params, ctx.cfg->rf_bytes,
                                                     ctx.cfg->l1_bytes, workload, partitions));
    }

    std::vector<std::uint64_t> capacities;
    for (const auto &sm : sms_) {
        for (std::uint32_t s = 0; s < sm->num_sets(); ++s)
            capacities.push_back(sm->set_capacity_bytes(s));
    }

    const std::uint32_t sets_per_sm = sms_.empty() ? 1 : sms_.front()->num_sets();
    separator_ = std::make_unique<AddressSeparator>(conv_bytes, ctx.cfg->llc_partitions,
                                                    capacities, sets_per_sm);

    predictors_.reserve(capacities.size());
    for (std::uint32_t g = 0; g < capacities.size(); ++g) {
        const std::uint32_t slot = g / sets_per_sm;
        const std::uint32_t local = g % sets_per_sm;
        predictors_.emplace_back(sms_[slot]->set_max_blocks(local),
                                 params_.bloom_bits_per_entry, params_.bloom_probes);
    }
}

std::uint64_t
ExtendedLlc::total_capacity_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->total_capacity_bytes();
    return total;
}

std::uint64_t
ExtendedLlc::kernel_instructions() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->kernel_instructions();
    return total;
}

std::uint64_t
ExtendedLlc::served() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->served();
    return total;
}

std::uint64_t
ExtendedLlc::hits() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->hits();
    return total;
}

std::uint64_t
ExtendedLlc::misses() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->misses();
    return total;
}

std::uint64_t
ExtendedLlc::comp_insertions(CompLevel level) const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->comp_insertions(level);
    return total;
}

// ---------------------------------------------------------------------------
// MorpheusController

MorpheusController::MorpheusController(std::uint32_t partition, FabricContext ctx,
                                       LlcPartition *conventional, ExtendedLlc *ext,
                                       PredictionMode mode)
    : partition_(partition), ctx_(ctx), conventional_(conventional), ext_(ext), mode_(mode)
{
}

std::uint64_t
MorpheusController::storage_bytes() const
{
    const std::uint64_t bloom = static_cast<std::uint64_t>(query_logic_.params().status_rows) *
                                DualBloomPredictor::nominal_storage_bytes();
    return bloom + query_logic_.storage_bytes();
}

void
MorpheusController::handle(Cycle when, ReqId id)
{
    ReqPool::Record &rec = (*ctx_.reqs)[id];
    const LineAddr line = rec.req.line;
    // Address separation (§4.1.1): conventional-space requests flow to the
    // conventional LLC untouched.
    if (!ext_->is_extended(line)) {
        conventional_->handle(when, id);
        return;
    }

    ++ext_requests_;
    rec.arrived = when;
    const auto ref = ext_->set_of(line);

    // Every extended access leaves the block resident, so the predictor
    // records it in the same step (keeping BF1's no-false-negative
    // invariant ahead of the actual insertion). The Bloom mode fuses the
    // query into that recording pass; the other modes predict elsewhere
    // but still train the filters so a mode sweep sees equal state.
    bool predicted_hit = true;
    switch (mode_) {
      case PredictionMode::kNone:
        ext_->predictor(ref.global_set).on_access(line);
        break;
      case PredictionMode::kBloom:
        predicted_hit = ext_->predictor(ref.global_set).access_and_predict(line);
        break;
      case PredictionMode::kPerfect:
        predicted_hit = ext_->sm(ref.sm_slot).contains(ref.local_set, line);
        ext_->predictor(ref.global_set).on_access(line);
        break;
    }

    if (predicted_hit) {
        ++predicted_hits_;
        forward_to_extended(id, ref);
    } else {
        ++predicted_misses_;
        serve_predicted_miss(id, ref);
    }
}

void
MorpheusController::serve_predicted_miss(ReqId id, const AddressSeparator::SetRef &ref)
{
    // Figure 5 bottom timeline: a correctly predicted miss skips the NoC
    // round trip and the software tag lookup entirely.
    const ReqPool::Record &rec = (*ctx_.reqs)[id];
    const Cycle fetched = conventional_->dram_fetch(rec.arrived, rec.req.line);

    ctx_.eq->schedule(fetched, [this, id, ref, fetched] {
        const ReqPool::Record &r = (*ctx_.reqs)[id];
        const MemRequest &req = r.req;
        std::uint64_t version = ctx_.store->read(req.line);
        bool dirty = false;
        if (req.type != AccessType::kRead) {
            version = std::max(version, req.write_version);
            dirty = true;
        }

        // Off the critical path: queue the block for insertion by the
        // owning kernel warp (shipped over the NoC at dequeue).
        ext_->sm(ref.sm_slot).enqueue_insert(fetched, ref.local_set, req.line, version, dirty);

        // Critical path: respond immediately with the fetched data.
        pred_miss_latency_.add(static_cast<double>(fetched - r.arrived));
        respond(fetched, id, version, req.type != AccessType::kWrite);
    });
}

void
MorpheusController::forward_to_extended(ReqId id, const AddressSeparator::SetRef &ref)
{
    const ReqPool::Record &rec = (*ctx_.reqs)[id];
    query_logic_.on_enqueue(rec.arrived);
    // The request waits in this controller's request queue; the
    // partition -> SM transfer happens when the warp de-queues it.
    ext_->sm(ref.sm_slot).enqueue_request(rec.arrived, ref.local_set, rec.req,
                                          ExtDone{id, this});
}

void
MorpheusController::ext_done(ReqId id, std::uint32_t cache_sm, std::uint64_t version, bool hit)
{
    const Cycle done = ctx_.eq->now();
    query_logic_.on_complete(done);
    if (!hit)
        ++false_positives_;

    // Response leg: cache-mode SM -> partition (reads carry data).
    const ReqPool::Record &rec = (*ctx_.reqs)[id];
    const bool carries_data = rec.req.type != AccessType::kWrite;
    const std::uint32_t payload = carries_data ? kLineBytes : 0;
    ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
    const Cycle at_part = ctx_.noc->sm_to_partition(done, cache_sm, partition_, payload);

    response_leg_.add(static_cast<double>(at_part - done));
    (hit ? ext_hit_latency_ : ext_miss_latency_).add(static_cast<double>(at_part - rec.arrived));
    respond(at_part, id, version, carries_data);
}

void
MorpheusController::respond(Cycle when, ReqId id, std::uint64_t version, bool carries_data)
{
    const std::uint32_t payload = carries_data ? kLineBytes : 0;
    ctx_.energy->add_noc_bytes(payload + ctx_.noc->params().header_bytes);
    const Cycle delivered =
        ctx_.noc->partition_to_sm(when, partition_, (*ctx_.reqs)[id].req.requester_sm, payload);
    ctx_.eq->schedule(delivered, [this, id, delivered, version] {
        ctx_.router->deliver(id, delivered, version);
    });
}

} // namespace morpheus
