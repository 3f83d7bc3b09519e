#ifndef MORPHEUS_MORPHEUS_QUERY_LOGIC_HPP_
#define MORPHEUS_MORPHEUS_QUERY_LOGIC_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace morpheus {

/** Sizing of the extended LLC query logic unit (paper §4.1.3). */
struct QueryLogicParams
{
    /** Warp status table rows = max extended sets per partition. */
    std::uint32_t status_rows = 256;

    /** Request queue entries. */
    std::uint32_t request_queue_entries = 64;

    /** Read/write data buffer entries (one cache block each). */
    std::uint32_t read_buffer_entries = 8;
    std::uint32_t write_buffer_entries = 8;

    /** Bytes per warp status table row (tag, origin, busy/op/result bits,
     *  data pointer — conservatively 8 B). */
    std::uint32_t status_row_bytes = 8;

    /** Bytes per request queue entry (address + metadata). */
    std::uint32_t request_entry_bytes = 12;
};

/**
 * The extended LLC query logic unit of one Morpheus controller: tracks
 * outstanding extended-LLC requests (one in flight per kernel warp) and
 * accounts for the unit's storage (~5 KiB per partition, §7.5).
 *
 * The actual per-warp serialization is enforced by the cache-mode SM's
 * task queues; this class observes dispatches/completions to expose the
 * occupancy statistics the paper's sizing rests on.
 */
class QueryLogic
{
  public:
    /** Occupancies above this clamp into the last histogram bucket. */
    static constexpr std::uint32_t kMaxTrackedDepth = 512;

    explicit QueryLogic(const QueryLogicParams &params = {})
        : params_(params), depth_hist_(kMaxTrackedDepth + 1, 0)
    {
    }

    const QueryLogicParams &params() const { return params_; }

    /** Records a request entering the request queue. */
    void
    on_enqueue(Cycle /*when*/)
    {
        // All occupancy statistics (histogram, mean, peak) use the same
        // convention: the occupancy the arriving request *observes*,
        // excluding itself. A hardware queue of depth D would reject
        // (stall) the arrival when this is >= D, so the histogram
        // answers "how often would depth D overflow" for every candidate
        // D in one run (the query_depth scenario).
        ++depth_hist_[std::min(outstanding_, kMaxTrackedDepth)];
        peak_ = std::max(peak_, outstanding_);
        depth_.add(static_cast<double>(outstanding_));
        ++outstanding_;
        ++total_requests_;
    }

    /** Records a request completing (warp responded). */
    void
    on_complete(Cycle /*when*/)
    {
        if (outstanding_ > 0)
            --outstanding_;
    }

    /** Total storage of this unit in bytes (paper: ~5 KiB per partition). */
    std::uint64_t
    storage_bytes() const
    {
        const std::uint64_t status =
            static_cast<std::uint64_t>(params_.status_rows) * params_.status_row_bytes;
        const std::uint64_t queue =
            static_cast<std::uint64_t>(params_.request_queue_entries) * params_.request_entry_bytes;
        const std::uint64_t buffers =
            static_cast<std::uint64_t>(params_.read_buffer_entries + params_.write_buffer_entries) *
            kLineBytes;
        return status + queue + buffers;
    }

    /** @name Statistics */
    ///@{
    std::uint32_t outstanding() const { return outstanding_; }
    std::uint32_t peak_outstanding() const { return peak_; }
    std::uint64_t total_requests() const { return total_requests_; }
    const Accumulator &depth() const { return depth_; }

    /** Enqueues that observed occupancy >= @p depth, i.e. the stalls a
     *  request queue with @p depth entries would have caused. */
    std::uint64_t
    overflow_events(std::uint32_t depth) const
    {
        std::uint64_t n = 0;
        for (std::uint32_t d = std::min(depth, kMaxTrackedDepth); d <= kMaxTrackedDepth; ++d)
            n += depth_hist_[d];
        return n;
    }

    /** Per-observed-occupancy enqueue counts (index clamps at
     *  kMaxTrackedDepth). */
    const std::vector<std::uint64_t> &depth_histogram() const { return depth_hist_; }
    ///@}

  private:
    QueryLogicParams params_;
    std::uint32_t outstanding_ = 0;
    std::uint32_t peak_ = 0;
    std::uint64_t total_requests_ = 0;
    Accumulator depth_;
    std::vector<std::uint64_t> depth_hist_;
};

} // namespace morpheus

#endif // MORPHEUS_MORPHEUS_QUERY_LOGIC_HPP_
