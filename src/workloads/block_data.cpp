#include "workloads/block_data.hpp"

#include <cstring>

#include "sim/rng.hpp"

namespace morpheus {

Block
synthesize_block(const BlockDataProfile &profile, LineAddr line)
{
    Block block{};
    Rng rng(mix64(profile.seed) ^ mix64(line * 0x9E3779B97F4A7C15ULL + 1));

    const double u = rng.next_double();
    std::uint64_t values[kLineBytes / 8];

    if (u < profile.high_frac) {
        // Occasional all-zero blocks; otherwise tight 1-byte deltas.
        if (rng.chance(0.2))
            return block;
        const std::uint64_t base = rng.next_u64() >> 8;
        for (auto &v : values)
            v = base + rng.next_below(100);
    } else if (u < profile.high_frac + profile.low_frac) {
        const std::uint64_t base = rng.next_u64() >> 8;
        for (auto &v : values)
            v = base + rng.next_below(30000);
    } else {
        for (auto &v : values)
            v = rng.next_u64();
    }
    std::memcpy(block.data(), values, sizeof(values));
    return block;
}

} // namespace morpheus
