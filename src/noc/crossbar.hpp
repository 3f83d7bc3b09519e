#ifndef MORPHEUS_NOC_CROSSBAR_HPP_
#define MORPHEUS_NOC_CROSSBAR_HPP_

#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sim/throughput_port.hpp"
#include "sim/types.hpp"

namespace morpheus {

/** Interconnect geometry and timing. */
struct NocParams
{
    std::uint32_t sm_ports = 68;         ///< One bidirectional port per SM.
    std::uint32_t partition_ports = 10;  ///< One bidirectional port per LLC partition.

    /**
     * Per-SM link bandwidth, bytes/cycle. This is the resource that caps
     * extended-LLC bandwidth per cache-mode SM at ~37 GB/s in the paper.
     */
    double sm_link_bytes_per_cycle = 64.0;

    /** Per-partition link bandwidth, bytes/cycle (10 x 256 ~ 2.5 TB/s,
     *  matching GA102-class L2 bandwidth). */
    double partition_link_bytes_per_cycle = 256.0;

    /** Base traversal latency, cycles (one direction). */
    Cycle hop_latency = 30;

    /** Packet header overhead added to every transfer, bytes. */
    std::uint32_t header_bytes = 16;
};

/**
 * A crossbar interconnect between SMs and LLC partitions.
 *
 * Every endpoint owns an injection link and an ejection link modeled as
 * ThroughputPorts; a transfer serializes on the source's injection link,
 * crosses with a fixed hop latency, and serializes on the destination's
 * ejection link. Contention shows up as queuing on either link. This is
 * the structure that bottlenecks the extended LLC bandwidth in the paper
 * (§5: removing the NoC raises extended-LLC bandwidth by 3.4-7.8x).
 */
class Crossbar
{
  public:
    explicit Crossbar(const NocParams &params = {});

    const NocParams &params() const { return params_; }

    /**
     * Moves @p payload_bytes (plus header) from SM @p sm to partition
     * @p part. @return delivery time at the partition.
     */
    Cycle sm_to_partition(Cycle now, std::uint32_t sm, std::uint32_t part,
                          std::uint32_t payload_bytes);

    /** Moves data from partition @p part to SM @p sm. */
    Cycle partition_to_sm(Cycle now, std::uint32_t part, std::uint32_t sm,
                          std::uint32_t payload_bytes);

    /** Applies a clock multiplier (Frequency-Boost system). */
    void set_frequency_scale(double scale);

    /** @name Statistics (§7.4 interconnect analysis) */
    ///@{
    std::uint64_t transfers() const { return transfers_; }
    std::uint64_t injected_bytes() const { return injected_bytes_; }
    const Accumulator &transfer_latency() const { return latency_; }

    /** Offered load in bytes/cycle over @p elapsed cycles. */
    double
    injection_rate(Cycle elapsed) const
    {
        return elapsed ? static_cast<double>(injected_bytes_) / static_cast<double>(elapsed)
                       : 0.0;
    }
    ///@}

  private:
    Cycle transfer(Cycle now, ThroughputPort &src, ThroughputPort &dst,
                   std::uint32_t payload_bytes);

    NocParams params_;
    double freq_scale_ = 1.0;
    /** hop_latency / freq_scale_, precomputed: transfer() runs once per
     *  NoC packet and should not pay a double division each time. */
    Cycle hop_cycles_ = 0;

    std::vector<ThroughputPort> sm_out_;
    std::vector<ThroughputPort> sm_in_;
    std::vector<ThroughputPort> part_out_;
    std::vector<ThroughputPort> part_in_;

    std::uint64_t transfers_ = 0;
    std::uint64_t injected_bytes_ = 0;
    Accumulator latency_;
};

} // namespace morpheus

#endif // MORPHEUS_NOC_CROSSBAR_HPP_
