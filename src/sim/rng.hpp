#ifndef MORPHEUS_SIM_RNG_HPP_
#define MORPHEUS_SIM_RNG_HPP_

#include <cmath>
#include <cstdint>

#include "sim/types.hpp"

namespace morpheus {

/**
 * A small, fast, deterministic PRNG (xoshiro256** core seeded via
 * SplitMix64). Used by workload generators and property tests; we avoid
 * <random> engines so that runs are reproducible across standard
 * library implementations.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

    /** Re-seeds the generator deterministically from a single value. */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &word : state_) {
            seed = mix64(seed);
            word = seed | 1u;
        }
    }

    /** Next 64 uniformly random bits. */
    std::uint64_t
    next_u64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    next_below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine here;
        // the slight modulo bias of 128-bit multiply reduction is < 2^-64.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return next_double() < p; }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

    std::uint64_t state_[4] = {};
};

/**
 * A Zipf-distributed sampler over [0, n). Used to model skewed reuse in
 * graph workloads (page-r, bfs) where a few hot vertices dominate.
 *
 * Uses the rejection-inversion method of Hörmann & Derflinger, which needs
 * no O(n) table and is fast for any alpha > 0 (alpha != 1 handled too).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double alpha) : n_(n), alpha_(alpha)
    {
        h_x1_ = h(1.5) - 1.0;
        h_n_ = h(static_cast<double>(n_) + 0.5);
        s_ = 2.0 - h_inv(h(2.5) - pow_alpha(2.0));
    }

    /** Draws one sample in [0, n). */
    std::uint64_t
    sample(Rng &rng)
    {
        while (true) {
            const double u = h_n_ + rng.next_double() * (h_x1_ - h_n_);
            const double x = h_inv(u);
            std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
            if (k < 1)
                k = 1;
            if (k > n_)
                k = n_;
            const double kd = static_cast<double>(k);
            if (kd - x <= s_ || u >= h(kd + 0.5) - pow_alpha(kd))
                return k - 1;
        }
    }

  private:
    double
    pow_alpha(double x) const
    {
        return std::exp(-alpha_ * std::log(x));
    }

    double
    h(double x) const
    {
        const double one_minus = 1.0 - alpha_;
        if (one_minus == 0.0)
            return std::log(x);
        return std::exp(one_minus * std::log(x)) / one_minus;
    }

    double
    h_inv(double x) const
    {
        const double one_minus = 1.0 - alpha_;
        if (one_minus == 0.0)
            return std::exp(x);
        return std::exp(std::log(one_minus * x) / one_minus);
    }

    std::uint64_t n_;
    double alpha_;
    double h_x1_ = 0;
    double h_n_ = 0;
    double s_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_SIM_RNG_HPP_
