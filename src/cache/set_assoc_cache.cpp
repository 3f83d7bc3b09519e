#include "cache/set_assoc_cache.hpp"

#include <algorithm>

namespace morpheus {

SetAssocCache::SetAssocCache(std::uint32_t sets, std::uint32_t ways, ReplacementKind repl,
                             bool hashed_index)
    : sets_(sets), ways_(ways), hashed_index_(hashed_index),
      tags_(static_cast<std::size_t>(sets) * ways), versions_(tags_.size()),
      flags_(tags_.size())
{
    repl_.reserve(sets);
    for (std::uint32_t s = 0; s < sets; ++s)
        repl_.emplace_back(ways, repl);
}

std::uint32_t
SetAssocCache::set_index(LineAddr line) const
{
    if (hashed_index_)
        return static_cast<std::uint32_t>(mix64(line) % sets_);
    return static_cast<std::uint32_t>(line % sets_);
}

int
SetAssocCache::find_way(std::uint32_t set, LineAddr line) const
{
    const LineAddr *tags = tags_.data() + base(set);
    const std::uint8_t *flags = flags_.data() + base(set);
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (tags[w] == line && (flags[w] & kValid))
            return static_cast<int>(w);
    }
    return -1;
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return find_way(set_index(line), line) >= 0;
}

SetAssocCache::LookupResult
SetAssocCache::read(LineAddr line)
{
    const std::uint32_t set = set_index(line);
    const int way = find_way(set, line);
    if (way < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    repl_[set].touch(static_cast<std::uint32_t>(way));
    return {true, versions_[base(set) + static_cast<std::uint32_t>(way)]};
}

SetAssocCache::LookupResult
SetAssocCache::write(LineAddr line, std::uint64_t version)
{
    const std::uint32_t set = set_index(line);
    const int way = find_way(set, line);
    if (way < 0) {
        ++misses_;
        return {};
    }
    ++hits_;
    const std::size_t i = base(set) + static_cast<std::uint32_t>(way);
    flags_[i] |= kDirty;
    versions_[i] = version;
    repl_[set].touch(static_cast<std::uint32_t>(way));
    return {true, version};
}

std::optional<SetAssocCache::Eviction>
SetAssocCache::fill(LineAddr line, std::uint64_t version, bool dirty)
{
    const std::uint32_t set = set_index(line);
    ++fills_;

    // Refill of a line that raced back in (e.g. two MSHR-merged paths):
    // just refresh it.
    if (int way = find_way(set, line); way >= 0) {
        const std::size_t i = base(set) + static_cast<std::uint32_t>(way);
        versions_[i] = std::max(versions_[i], version);
        if (dirty)
            flags_[i] |= kDirty;
        repl_[set].touch(static_cast<std::uint32_t>(way));
        return std::nullopt;
    }

    // Prefer an invalid way.
    const std::uint8_t *flags = flags_.data() + base(set);
    std::uint32_t target = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!(flags[w] & kValid)) {
            target = w;
            break;
        }
    }

    std::optional<Eviction> evicted;
    if (target == ways_) {
        target = repl_[set].victim();
        const std::size_t v = base(set) + target;
        const bool victim_dirty = (flags_[v] & kDirty) != 0;
        evicted = Eviction{tags_[v], victim_dirty, versions_[v]};
        ++evictions_;
        if (victim_dirty)
            ++writebacks_;
    }

    const std::size_t i = base(set) + target;
    tags_[i] = line;
    flags_[i] = static_cast<std::uint8_t>(kValid | (dirty ? kDirty : 0));
    versions_[i] = version;
    repl_[set].insert(target);
    return evicted;
}

std::optional<SetAssocCache::Eviction>
SetAssocCache::invalidate(LineAddr line)
{
    const std::uint32_t set = set_index(line);
    const int way = find_way(set, line);
    if (way < 0)
        return std::nullopt;
    const std::size_t i = base(set) + static_cast<std::uint32_t>(way);
    Eviction ev{tags_[i], (flags_[i] & kDirty) != 0, versions_[i]};
    flags_[i] = 0;
    return ev;
}

} // namespace morpheus
