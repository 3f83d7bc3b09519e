#ifndef MORPHEUS_WORKLOADS_TRACE_TRACE_WORKLOAD_HPP_
#define MORPHEUS_WORKLOADS_TRACE_TRACE_WORKLOAD_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gpu/workload.hpp"
#include "workloads/trace/trace_reader.hpp"

namespace morpheus {

/**
 * A Workload that replays a recorded `.mtrc` trace, so GpuSystem/Sm
 * consume recorded kernels exactly like synthetic ones.
 *
 * One replay path: steps are pulled one at a time through per-stream
 * trace::TraceReader cursors straight off the memory-mapped file (or an
 * in-memory encoding), so peak trace-resident memory is O(streams),
 * independent of the record count (tests/test_trace_stream.cpp pins
 * this on a >100 MB trace). This is how multi-GB converted corpora
 * replay.
 *
 * Replayed at the trace's recorded SM count, each (sm, warp) stream maps
 * onto the identical (sm, warp) slot, which makes a record→replay run
 * reproduce the original run's timing and hit/miss counters exactly
 * (tests/test_trace_replay.cpp locks this in). At any other SM count the
 * fixed set of streams is dealt round-robin across the available SMs
 * (strong scaling over recorded work, mirroring the synthetic
 * generator's repartitioning contract).
 *
 * Block contents: traces recorded from synthetic workloads carry the
 * generator's BlockDataProfile, so synthesize_block() is byte-identical
 * to the original. Profile-less traces (converted from real kernels)
 * fall back to the per-line footprint classes embedded in the records,
 * synthesizing deterministic blocks that BDI-compress to the recorded
 * level — faithful where it matters to the extended LLC (slot sizing).
 * When records disagree on a line's class, the highest-compression
 * class wins, deterministically (`morpheus_trace stat` counts these
 * collisions).
 */
class TraceWorkload final : public Workload
{
  public:
    /**
     * @param reader an opened (validated) reader; not owned, must
     * outlive this workload along with its mapping (parallel sweep jobs
     * replaying the same trace share one reader; the cursors live
     * here). The class map for profile-less traces is built in one
     * streaming pass here (O(unique classed lines) memory).
     */
    explicit TraceWorkload(const trace::TraceReader &reader);

    const WorkloadInfo &info() const override { return info_; }
    void configure(std::uint32_t num_sms) override;
    std::uint32_t warps_on(std::uint32_t sm) const override;
    bool next_step(std::uint32_t sm, std::uint32_t warp, WarpStep &out) override;
    Block synthesize_block(LineAddr line) const override;
    bool models_pc() const override { return true; }

  private:
    const trace::TraceReader &reader_;
    WorkloadInfo info_;
    /** Per configured SM: source stream indices, in warp-slot order. */
    std::vector<std::vector<std::uint32_t>> slots_;
    /** Per stream, a pull cursor over the reader's bytes. */
    std::vector<trace::TraceReader::Cursor> stream_cursors_;
    /** line -> footprint class, for profile-less traces. */
    std::unordered_map<LineAddr, std::uint8_t> line_class_;
};

} // namespace morpheus

#endif // MORPHEUS_WORKLOADS_TRACE_TRACE_WORKLOAD_HPP_
