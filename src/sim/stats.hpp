#ifndef MORPHEUS_SIM_STATS_HPP_
#define MORPHEUS_SIM_STATS_HPP_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace morpheus {

/**
 * Accumulates samples of a scalar quantity (latency, queue depth, ...),
 * tracking count, sum, min and max. Cheap enough for per-request use.
 */
class Accumulator
{
  public:
    /** Adds one sample. */
    void
    add(double v)
    {
        ++count_;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Formats a value with SI-style engineering suffixes (K/M/G) for stat
 * dumps and bench tables.
 */
std::string format_si(double v);

/** Formats a byte count using binary suffixes (KiB/MiB/GiB). */
std::string format_bytes(double bytes);

} // namespace morpheus

#endif // MORPHEUS_SIM_STATS_HPP_
