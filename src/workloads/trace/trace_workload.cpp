#include "workloads/trace/trace_workload.hpp"

#include <algorithm>
#include <cassert>

namespace morpheus {
namespace {

/** Seed for class-faithful block synthesis of profile-less traces. */
constexpr std::uint64_t kClassBlockSeed = 0x37AC3B10C5ULL;

} // namespace

TraceWorkload::TraceWorkload(const trace::TraceReader &reader)
    : reader_(reader)
{
    info_.name = reader.name().empty() ? "trace" : reader.name();
    info_.memory_bound = true;

    if (!reader.has_profile()) {
        // Build line -> class from every recorded line (v2 carries a class
        // per line; v1 only the record's first), one record in flight.
        // When records disagree on a line's class — a real possibility
        // once writes mutate data — the highest-compression class wins
        // (numerically smallest CompLevel), deterministically and
        // independent of record order; `morpheus_trace stat` reports these
        // as "class collisions". Converted real-GPU traces usually have
        // every class kClassUnknown, so this map stays empty and replay
        // memory stays O(streams).
        trace::TraceStep step;
        for (std::size_t i = 0; i < reader.stream_count(); ++i) {
            trace::TraceReader::Cursor c = reader.cursor(i);
            while (c.next(step)) {
                for (std::uint32_t l = 0; l < step.num_lines; ++l) {
                    const std::uint8_t cls = step.cls[l];
                    if (cls == trace::kClassUnknown)
                        continue;
                    auto [it, inserted] = line_class_.try_emplace(step.lines[l], cls);
                    if (!inserted && cls < it->second)
                        it->second = cls;
                }
            }
        }
    }
}

void
TraceWorkload::configure(std::uint32_t num_sms)
{
    assert(num_sms > 0);
    const std::size_t n = reader_.stream_count();
    slots_.assign(num_sms, {});
    stream_cursors_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        stream_cursors_[i] = reader_.cursor(i);

    // Deterministic stream order regardless of on-disk ordering.
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
        const auto &sa = reader_.stream(a);
        const auto &sb = reader_.stream(b);
        return sa.sm != sb.sm ? sa.sm < sb.sm : sa.warp < sb.warp;
    });

    if (num_sms == reader_.num_sms()) {
        // Identity mapping: stream (sm, warp) replays on slot (sm, warp),
        // which is what makes record→replay bit-exact.
        for (std::uint32_t idx : order)
            slots_[reader_.stream(idx).sm].push_back(idx);
    } else {
        // Strong scaling: deal the fixed stream set round-robin.
        std::uint32_t next = 0;
        for (std::uint32_t idx : order)
            slots_[next++ % num_sms].push_back(idx);
    }
}

std::uint32_t
TraceWorkload::warps_on(std::uint32_t sm) const
{
    assert(!slots_.empty() && "configure() must run before warps_on()");
    return sm < slots_.size() ? static_cast<std::uint32_t>(slots_[sm].size()) : 0;
}

bool
TraceWorkload::next_step(std::uint32_t sm, std::uint32_t warp, WarpStep &out)
{
    assert(sm < slots_.size() && warp < slots_[sm].size());
    const std::uint32_t stream_idx = slots_[sm][warp];

    // A validated reader's cursors never fail; if validation was skipped
    // and the stream is corrupt, the warp simply retires.
    trace::TraceStep step;
    if (!stream_cursors_[stream_idx].next(step))
        return false;

    out = WarpStep{};
    out.pc = step.pc;
    out.alu_instrs = step.alu_instrs;
    out.num_lines = std::min<std::uint32_t>(step.num_lines, WarpStep::kMaxLinesPerInst);
    for (std::uint32_t i = 0; i < out.num_lines; ++i)
        out.lines[i] = step.lines[i];
    out.type = step.type;
    return true;
}

Block
TraceWorkload::synthesize_block(LineAddr line) const
{
    if (reader_.has_profile())
        return morpheus::synthesize_block(reader_.profile(), line);

    auto it = line_class_.find(line);
    const std::uint8_t cls = it == line_class_.end() ? trace::kClassUncompressed : it->second;
    return synthesize_block_of_level(static_cast<CompLevel>(std::min<std::uint8_t>(cls, 2)),
                                     kClassBlockSeed, line);
}

} // namespace morpheus
