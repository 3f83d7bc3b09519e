#ifndef MORPHEUS_MEM_BACKING_STORE_HPP_
#define MORPHEUS_MEM_BACKING_STORE_HPP_

#include <cstdint>
#include <unordered_map>

#include "sim/types.hpp"

namespace morpheus {

/**
 * The functional contents of simulated GPU global memory, at cache-line
 * granularity.
 *
 * Instead of bytes, every line holds a monotonically increasing *version*
 * (0 = never written). Caches propagate versions on fills and writebacks,
 * so any staleness bug anywhere in the hierarchy — including a false
 * negative in the Morpheus hit/miss predictor that would bypass a dirty
 * extended-LLC block — shows up as a version regression in tests.
 */
class BackingStore
{
  public:
    BackingStore() = default;

    /** Current version of @p line (0 if never written). */
    std::uint64_t
    read(LineAddr line) const
    {
        auto it = versions_.find(line);
        return it == versions_.end() ? 0 : it->second;
    }

    /** Stores @p version for @p line (used by writebacks). */
    void
    write(LineAddr line, std::uint64_t version)
    {
        versions_[line] = version;
        ++writes_;
    }

    /** Allocates and returns the next globally unique version number. */
    std::uint64_t next_version() { return ++version_clock_; }

    std::uint64_t writes() const { return writes_; }
    std::size_t resident_lines() const { return versions_.size(); }

  private:
    std::unordered_map<LineAddr, std::uint64_t> versions_;
    std::uint64_t version_clock_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_MEM_BACKING_STORE_HPP_
