#ifndef MORPHEUS_MORPHEUS_MORPHEUS_CONTROLLER_HPP_
#define MORPHEUS_MORPHEUS_MORPHEUS_CONTROLLER_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/gpu_config.hpp"
#include "gpu/llc_partition.hpp"
#include "gpu/mem_request.hpp"
#include "morpheus/address_separator.hpp"
#include "morpheus/extended_llc_kernel.hpp"
#include "morpheus/hit_miss_predictor.hpp"
#include "morpheus/query_logic.hpp"
#include "sim/stats.hpp"

namespace morpheus {

/**
 * The Morpheus extended-LLC subsystem shared by all controllers: the
 * cache-mode SMs hosting the extended LLC kernel, the address separator,
 * and one dual-Bloom-filter predictor per extended set.
 */
class ExtendedLlc
{
  public:
    /**
     * @param ctx           shared fabric plumbing.
     * @param params        kernel configuration.
     * @param cache_sm_ids  global SM ids operating in cache mode.
     * @param workload      block-content source for BDI.
     * @param conv_bytes    conventional LLC capacity (address split ratio).
     * @param partitions    LLC partitions (kernel-side DRAM path).
     */
    ExtendedLlc(FabricContext ctx, const ExtLlcParams &params,
                const std::vector<std::uint32_t> &cache_sm_ids, const Workload *workload,
                std::uint64_t conv_bytes,
                std::vector<std::unique_ptr<LlcPartition>> *partitions);

    bool enabled() const { return !sms_.empty(); }
    const ExtLlcParams &params() const { return params_; }
    const AddressSeparator &separator() const { return *separator_; }

    /** True when @p line is served by the extended LLC. */
    bool
    is_extended(LineAddr line) const
    {
        if (!enabled() || !separator_->is_extended(line))
            return false;
        // Tiny configurations (fewer extended sets than partitions) leave
        // some partitions without extended sets; their lines stay
        // conventional.
        const std::uint32_t p =
            partition_of(line, static_cast<std::uint32_t>(ctx_.cfg->llc_partitions));
        return separator_->sets_in_partition(p) > 0;
    }

    AddressSeparator::SetRef set_of(LineAddr line) const { return separator_->set_of(line); }

    CacheModeSm &sm(std::uint32_t slot) { return *sms_[slot]; }
    const CacheModeSm &sm(std::uint32_t slot) const { return *sms_[slot]; }
    std::uint32_t num_cache_sms() const { return static_cast<std::uint32_t>(sms_.size()); }

    DualBloomPredictor &predictor(std::uint32_t global_set) { return predictors_[global_set]; }

    /** Oracle presence query (Perfect-Prediction mode). */
    bool
    present(LineAddr line) const
    {
        const auto ref = separator_->set_of(line);
        return sms_[ref.sm_slot]->contains(ref.local_set, line);
    }

    /** Total extended-LLC data capacity in bytes. */
    std::uint64_t total_capacity_bytes() const;

    /** @name Aggregated statistics */
    ///@{
    std::uint64_t kernel_instructions() const;
    std::uint64_t served() const;
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t comp_insertions(CompLevel level) const;
    ///@}

  private:
    FabricContext ctx_;
    ExtLlcParams params_;
    std::vector<std::unique_ptr<CacheModeSm>> sms_;
    std::unique_ptr<AddressSeparator> separator_;
    std::vector<DualBloomPredictor> predictors_;
};

/**
 * The Morpheus controller attached to one LLC partition (§4.1): separates
 * requests between the conventional and extended LLC, predicts extended
 * hit/miss outcomes, forwards predicted hits to cache-mode SMs through
 * the query logic unit, and serves predicted misses straight from DRAM
 * while inserting the fetched block off the critical path.
 */
class MorpheusController
{
  public:
    MorpheusController(std::uint32_t partition, FabricContext ctx, LlcPartition *conventional,
                       ExtendedLlc *ext, PredictionMode mode);

    /** Entry point for every LLC request delivered to this partition. */
    void handle(Cycle when, const MemRequest &req, RespFn resp);

    const QueryLogic &query_logic() const { return query_logic_; }

    /** @name Statistics (per-partition) */
    ///@{
    std::uint64_t ext_requests() const { return ext_requests_; }
    std::uint64_t predicted_hits() const { return predicted_hits_; }
    std::uint64_t predicted_misses() const { return predicted_misses_; }
    std::uint64_t false_positives() const { return false_positives_; }
    const Accumulator &ext_hit_latency() const { return ext_hit_latency_; }
    const Accumulator &ext_miss_latency() const { return ext_miss_latency_; }
    const Accumulator &pred_miss_latency() const { return pred_miss_latency_; }
    const Accumulator &response_leg_latency() const { return response_leg_; }
    ///@}

    /** Per-partition controller storage (Bloom filters + query logic, §7.5). */
    std::uint64_t storage_bytes() const;

  private:
    /** Predicted-miss fast path: DRAM direct + off-critical-path insert. */
    void serve_predicted_miss(Cycle when, const MemRequest &req,
                              const AddressSeparator::SetRef &ref, RespFn resp);

    /** Predicted-hit path: forward to the owning cache-mode SM. */
    void forward_to_extended(Cycle when, const MemRequest &req,
                             const AddressSeparator::SetRef &ref, RespFn resp);

    /** Final response leg: partition -> requesting SM. */
    void respond(Cycle when, const MemRequest &req, std::uint64_t version, bool carries_data,
                 RespFn resp);

    std::uint32_t partition_;
    FabricContext ctx_;
    LlcPartition *conventional_;
    ExtendedLlc *ext_;
    PredictionMode mode_;
    QueryLogic query_logic_;

    std::uint64_t ext_requests_ = 0;
    std::uint64_t predicted_hits_ = 0;
    std::uint64_t predicted_misses_ = 0;
    std::uint64_t false_positives_ = 0;
    Accumulator ext_hit_latency_;
    Accumulator ext_miss_latency_;
    Accumulator pred_miss_latency_;
    Accumulator response_leg_;
};

} // namespace morpheus

#endif // MORPHEUS_MORPHEUS_MORPHEUS_CONTROLLER_HPP_
