#ifndef MORPHEUS_WORKLOADS_ACCESS_PATTERN_HPP_
#define MORPHEUS_WORKLOADS_ACCESS_PATTERN_HPP_

#include <cstdint>

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * Memory reference pattern families used to model the paper's benchmark
 * applications (Table 2). Each family produces a distinct scaling shape
 * in Figure 1:
 *  - kStreamShared / kStencil / kTiledReuse / kZipfGraph saturate once
 *    DRAM bandwidth is exhausted;
 *  - kPrivateLoop / kHistoAtomic / kRandomScatter grow their live working
 *    set with the number of active warps, thrashing the LLC and *losing*
 *    performance past a core count;
 *  - any family with high arithmetic intensity scales linearly
 *    (compute bound).
 */
enum class PatternKind : std::uint8_t
{
    kStreamShared,   ///< sequential sweep over a warp's slice of a shared array
    kStencil,        ///< sweep touching vertical neighbors (row +/- 1)
    kTiledReuse,     ///< GEMM-like: reuse a tile many times, then advance
    kZipfGraph,      ///< graph traversal: Zipf-distributed vertex accesses
    kPrivateLoop,    ///< repeated sweep of a per-warp private region
    kHistoAtomic,    ///< stream reads + atomic updates into hot bins
    kRandomScatter,  ///< uniform random over the shared region (SpMV-like)
};

/** Human-readable pattern name. */
const char *pattern_name(PatternKind kind);

/** Per-warp pattern-generation state. */
struct PatternState
{
    Rng rng{1};
    std::uint64_t cursor = 0;       ///< sequential position within the slice
    std::uint64_t tile_base = 0;    ///< current tile origin (kTiledReuse)
    std::uint32_t tile_uses = 0;    ///< accesses left in the current tile
};

/** Geometry handed to the pattern generator for one warp. */
struct PatternGeometry
{
    std::uint64_t shared_lines = 0;      ///< shared region size
    std::uint64_t slice_begin = 0;       ///< this warp's slice of the shared region
    std::uint64_t slice_lines = 0;
    std::uint64_t private_begin = 0;     ///< this warp's private region
    std::uint64_t private_lines = 0;
    std::uint64_t hot_lines = 0;         ///< hot prefix of the shared region
    double reuse_frac = 0;               ///< probability of a hot-region access
    double private_frac = 0;             ///< probability of a private-region access
    double zipf_alpha = 0.8;
    std::uint32_t stencil_row = 256;     ///< row width in lines (kStencil)
    std::uint32_t tile_lines = 64;       ///< tile size (kTiledReuse)
    std::uint32_t tile_reuse = 8;        ///< sweeps per tile (kTiledReuse)
};

/**
 * Generates the target lines of one warp-level memory instruction.
 *
 * @param kind      pattern family.
 * @param geom      address-space geometry for this warp.
 * @param state     mutable per-warp cursor/RNG state.
 * @param zipf      shared Zipf sampler over the hot region (may be null
 *                  when geom.hot_lines == 0).
 * @param out       receives up to @p max_lines distinct line addresses.
 * @param max_lines coalescing degree of the instruction.
 * @return number of lines produced (>= 1).
 */
std::uint32_t generate_lines(PatternKind kind, const PatternGeometry &geom, PatternState &state,
                             ZipfSampler *zipf, LineAddr *out, std::uint32_t max_lines);

} // namespace morpheus

#endif // MORPHEUS_WORKLOADS_ACCESS_PATTERN_HPP_
