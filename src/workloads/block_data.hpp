#ifndef MORPHEUS_WORKLOADS_BLOCK_DATA_HPP_
#define MORPHEUS_WORKLOADS_BLOCK_DATA_HPP_

#include <cstdint>

#include "cache/bdi.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * Data-compressibility profile of a workload: the fraction of cache
 * blocks whose contents BDI-compress to the high (4x) and low (2x)
 * levels. The remainder is incompressible. Each line's class is a
 * deterministic function of (seed, line), so contents are stable across
 * the run and across evaluated systems.
 */
struct BlockDataProfile
{
    double high_frac = 0.25;
    double low_frac = 0.35;
    std::uint64_t seed = 0x0ddba11;
};

/**
 * Synthesizes the 128 bytes of @p line under @p profile:
 *  - "high" lines hold 8-byte values within +/-100 of a base (BDI b8d1,
 *    26 bytes) or all zeros;
 *  - "low" lines hold values within +/-30000 of a base (BDI b8d2, 42 B);
 *  - the rest is full-entropy random data (incompressible).
 *
 * The actual BDI algorithm — not the class label — decides the stored
 * level, so the extended LLC kernel's compressor is exercised for real.
 */
Block synthesize_block(const BlockDataProfile &profile, LineAddr line);

} // namespace morpheus

#endif // MORPHEUS_WORKLOADS_BLOCK_DATA_HPP_
