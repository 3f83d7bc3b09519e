#ifndef MORPHEUS_MEM_DRAM_HPP_
#define MORPHEUS_MEM_DRAM_HPP_

#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sim/throughput_port.hpp"
#include "sim/types.hpp"

namespace morpheus {

/** Timing/geometry parameters of the GDDR6X-like off-chip memory. */
struct DramParams
{
    /** One channel per LLC partition (RTX 3080: 10 × 32-bit GDDR6X). */
    std::uint32_t channels = 10;

    /** Peak data-bus bandwidth per channel, bytes per cycle (~76 GB/s). */
    double bytes_per_cycle_per_channel = 76.0;

    /** Banks per channel (row-buffer state granularity). */
    std::uint32_t banks_per_channel = 16;

    /** Device access latency on a row-buffer hit, cycles (= ns). */
    Cycle row_hit_latency = 420;

    /** Device access latency on a row-buffer miss (activate+precharge). */
    Cycle row_miss_latency = 480;

    /** Cache lines per DRAM row (8 KiB row / 128 B line). */
    std::uint32_t lines_per_row = 64;

    /** Bank occupancy per access (limits per-bank throughput), cycles. */
    Cycle bank_occupancy = 24;
};

/**
 * A bandwidth- and row-buffer-aware GDDR6X channel model.
 *
 * Each access reserves its bank (row-buffer hit/miss latency + occupancy)
 * and then the channel data bus (128-byte burst). Queuing delay emerges
 * from the reservations; there is no explicit request queue. This captures
 * the two properties that matter for the paper: a fixed unloaded round
 * trip (~600 ns end to end) and a hard aggregate bandwidth ceiling that
 * memory-bound workloads saturate.
 */
class DramModel
{
  public:
    explicit DramModel(const DramParams &params = {});

    const DramParams &params() const { return params_; }

    /**
     * Performs one line-sized access.
     *
     * @param now      time the request reaches the memory controller.
     * @param channel  memory channel (the owning LLC partition's index).
     * @param line     line address (drives bank/row mapping).
     * @param is_write write accesses consume the same bus/bank resources.
     * @return completion time of the data transfer.
     */
    Cycle access(Cycle now, std::uint32_t channel, LineAddr line, bool is_write);

    /** Aggregate peak bandwidth in bytes/cycle. */
    double
    peak_bytes_per_cycle() const
    {
        return params_.bytes_per_cycle_per_channel * params_.channels;
    }

    /** Achieved bandwidth utilization in [0,1] over @p elapsed cycles. */
    double utilization(Cycle elapsed) const;

    /** Applies a clock multiplier (Frequency-Boost system). */
    void set_frequency_scale(double scale);

    /** @name Statistics */
    ///@{
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t bytes_transferred() const { return bytes_; }
    std::uint64_t row_hits() const { return row_hits_; }
    std::uint64_t row_misses() const { return row_misses_; }
    const Accumulator &service_latency() const { return service_latency_; }
    ///@}

  private:
    DramParams params_;
    double freq_scale_ = 1.0;
    /** Device latencies under the current clock multiplier. */
    Cycle row_hit_cycles_;
    Cycle row_miss_cycles_;

    std::vector<ThroughputPort> channel_bus_;
    std::vector<ThroughputPort> banks_;             // channels * banks
    std::vector<std::uint64_t> open_row_;           // channels * banks
    std::vector<bool> row_valid_;

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
    Accumulator service_latency_;
};

} // namespace morpheus

#endif // MORPHEUS_MEM_DRAM_HPP_
