#include "workloads/synthetic_workload.hpp"

#include <algorithm>
#include <cassert>

namespace morpheus {

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params) : params_(params)
{
    info_.name = params_.name;
    info_.memory_bound = params_.memory_bound;
}

std::uint64_t
SyntheticWorkload::footprint_bytes() const
{
    return params_.shared_ws_bytes + params_.per_warp_ws_bytes * total_warps_;
}

void
SyntheticWorkload::configure(std::uint32_t num_sms)
{
    num_sms_ = num_sms;
    total_warps_ = static_cast<std::uint64_t>(num_sms) * params_.warps_per_sm;
    warps_.assign(total_warps_, WarpCtx{});

    const std::uint64_t shared_lines = std::max<std::uint64_t>(1, params_.shared_ws_bytes / kLineBytes);
    const std::uint64_t hot_lines = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(shared_lines) * params_.hot_frac));
    const std::uint64_t private_lines = params_.per_warp_ws_bytes / kLineBytes;
    const std::uint64_t slice = std::max<std::uint64_t>(1, shared_lines / std::max<std::uint64_t>(1, total_warps_));

    // Zipf skew models graph-style vertex popularity (over the whole
    // shared region) and histogram bin popularity (over the hot prefix).
    // Other families reuse the hot prefix uniformly — per-line traffic
    // stays spread, which matters because each extended-LLC set is served
    // by a single kernel warp.
    switch (params_.pattern) {
      case PatternKind::kZipfGraph:
        zipf_ = shared_lines > 1
                    ? std::make_unique<ZipfSampler>(shared_lines, params_.zipf_alpha)
                    : nullptr;
        break;
      case PatternKind::kHistoAtomic:
        zipf_ = hot_lines > 1 ? std::make_unique<ZipfSampler>(hot_lines, params_.zipf_alpha)
                              : nullptr;
        break;
      default:
        zipf_ = nullptr;
        break;
    }

    const std::uint64_t base_steps = total_warps_ ? params_.total_mem_instrs / total_warps_ : 0;
    std::uint64_t remainder = total_warps_ ? params_.total_mem_instrs % total_warps_ : 0;

    for (std::uint64_t g = 0; g < total_warps_; ++g) {
        WarpCtx &ctx = warps_[g];
        ctx.state.rng.reseed(mix64(params_.seed) ^ mix64(g + 1));
        ctx.state.cursor = 0;
        ctx.state.tile_base = (g * 131) % shared_lines;
        ctx.state.tile_uses = 0;

        ctx.geom.shared_lines = shared_lines;
        ctx.geom.slice_begin = (g * slice) % shared_lines;
        ctx.geom.slice_lines = std::max<std::uint64_t>(slice, params_.lines_per_mem + 1);
        ctx.geom.private_begin = shared_lines + g * std::max<std::uint64_t>(1, private_lines);
        ctx.geom.private_lines = private_lines;
        ctx.geom.hot_lines = hot_lines;
        ctx.geom.reuse_frac = params_.reuse_frac;
        ctx.geom.private_frac =
            params_.pattern == PatternKind::kPrivateLoop ? 0.0 : params_.private_frac;
        ctx.geom.zipf_alpha = params_.zipf_alpha;
        ctx.geom.stencil_row = params_.stencil_row;
        ctx.geom.tile_lines = params_.tile_lines;
        ctx.geom.tile_reuse = params_.tile_reuse;

        ctx.steps_left = base_steps + (remainder > 0 ? 1 : 0);
        if (remainder > 0)
            --remainder;
    }
}

std::uint32_t
SyntheticWorkload::warps_on(std::uint32_t sm) const
{
    (void)sm;
    return params_.warps_per_sm;
}

bool
SyntheticWorkload::next_step(std::uint32_t sm, std::uint32_t warp, WarpStep &out)
{
    assert(num_sms_ > 0 && "configure() must run before next_step()");
    WarpCtx &ctx = warps_[static_cast<std::uint64_t>(sm) * params_.warps_per_sm + warp];
    if (ctx.steps_left == 0)
        return false;
    --ctx.steps_left;

    out = WarpStep{};
    // +/-50% jitter models control divergence and unrolled-loop tails;
    // it also desynchronizes warps, which matters for realistic queueing.
    out.alu_instrs = params_.alu_per_mem;
    if (params_.alu_per_mem >= 2) {
        const std::uint32_t span = params_.alu_per_mem;  // [-span/2, +span/2]
        out.alu_instrs += static_cast<std::uint32_t>(ctx.state.rng.next_below(span + 1));
        out.alu_instrs -= span / 2;
    }

    const std::uint32_t max_lines =
        std::min<std::uint32_t>(params_.lines_per_mem, WarpStep::kMaxLinesPerInst);
    out.num_lines =
        generate_lines(params_.pattern, ctx.geom, ctx.state, zipf_.get(), out.lines, max_lines);

    // Access type: atomics take precedence (kHistoAtomic's updates), then
    // plain writes.
    const double roll = ctx.state.rng.next_double();
    if (roll < params_.atomic_frac) {
        out.type = AccessType::kAtomic;
        // Atomic updates target the hot region (histogram bins, ranks).
        if (ctx.geom.hot_lines > 0) {
            out.num_lines = 1;
            out.lines[0] = zipf_ ? zipf_->sample(ctx.state.rng)
                                 : ctx.state.rng.next_below(ctx.geom.hot_lines);
        }
    } else if (roll < params_.atomic_frac + params_.write_frac) {
        out.type = AccessType::kWrite;
    } else {
        out.type = AccessType::kRead;
    }
    return true;
}

Block
SyntheticWorkload::synthesize_block(LineAddr line) const
{
    return morpheus::synthesize_block(params_.data, line);
}

} // namespace morpheus
