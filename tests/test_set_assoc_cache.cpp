#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "sim/rng.hpp"

using namespace morpheus;

TEST(SetAssocCache, ColdMissesThenHits)
{
    SetAssocCache cache(4, 2);
    EXPECT_FALSE(cache.read(10).hit);
    cache.fill(10, 7, false);
    const auto r = cache.read(10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.version, 7u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCache, CapacityBytes)
{
    SetAssocCache cache(256, 16);
    EXPECT_EQ(cache.capacity_bytes(), 256u * 16 * kLineBytes);
}

TEST(SetAssocCache, LruEvictionWithinSet)
{
    SetAssocCache cache(1, 2);  // one set, two ways
    cache.fill(1, 1, false);
    cache.fill(2, 2, false);
    cache.read(1);  // line 2 becomes LRU
    const auto ev = cache.fill(3, 3, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 2u);
    EXPECT_TRUE(cache.probe(1));
    EXPECT_TRUE(cache.probe(3));
    EXPECT_FALSE(cache.probe(2));
}

TEST(SetAssocCache, DirtyEvictionReportsWriteback)
{
    SetAssocCache cache(1, 1);
    cache.fill(5, 10, false);
    cache.write(5, 11);
    const auto ev = cache.fill(6, 1, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->version, 11u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(SetAssocCache, CleanEvictionIsSilent)
{
    SetAssocCache cache(1, 1);
    cache.fill(5, 10, false);
    const auto ev = cache.fill(6, 1, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_FALSE(ev->dirty);
}

TEST(SetAssocCache, WriteMissDoesNotAllocate)
{
    SetAssocCache cache(4, 2);
    EXPECT_FALSE(cache.write(9, 1).hit);
    EXPECT_FALSE(cache.probe(9));
}

TEST(SetAssocCache, RefillOfPresentLineMergesState)
{
    SetAssocCache cache(1, 2);
    cache.fill(1, 5, false);
    cache.write(1, 9);
    const auto ev = cache.fill(1, 7, false);  // raced refill with older version
    EXPECT_FALSE(ev.has_value());
    const auto r = cache.read(1);
    EXPECT_EQ(r.version, 9u);  // keeps the newer version and dirtiness
}

TEST(SetAssocCache, InvalidateDropsLine)
{
    SetAssocCache cache(2, 2);
    cache.fill(3, 1, true);
    const auto ev = cache.invalidate(3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_FALSE(cache.probe(3));
    EXPECT_FALSE(cache.invalidate(3).has_value());
}

TEST(SetAssocCache, FlushWritesBackAllDirtyLines)
{
    SetAssocCache cache(4, 4);
    cache.fill(1, 1, true);
    cache.fill(2, 2, false);
    cache.fill(3, 3, true);
    std::unordered_map<LineAddr, std::uint64_t> sink;
    cache.flush([&](LineAddr line, std::uint64_t version) { sink[line] = version; });
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink[1], 1u);
    EXPECT_EQ(sink[3], 3u);
    EXPECT_FALSE(cache.probe(2));
}

TEST(SetAssocCache, HashedIndexSpreadsConflictingLowBits)
{
    // Lines that share low bits collide in a low-bit-indexed cache but
    // spread under hashed indexing.
    SetAssocCache plain(16, 1, false);
    SetAssocCache hashed(16, 1, true);
    int plain_same = 0;
    int hashed_same = 0;
    for (LineAddr l = 0; l < 32; ++l) {
        plain_same += plain.set_index(l * 16) == plain.set_index(0);
        hashed_same += hashed.set_index(l * 16) == hashed.set_index(0);
    }
    EXPECT_EQ(plain_same, 32);
    EXPECT_LT(hashed_same, 8);
}

TEST(SetAssocCache, RejectsWaysOutsideOneToSixteen)
{
    EXPECT_THROW(SetAssocCache(4, 0), std::invalid_argument);
    EXPECT_THROW(SetAssocCache(4, 17), std::invalid_argument);
    EXPECT_NO_THROW(SetAssocCache(4, 1));
    EXPECT_NO_THROW(SetAssocCache(4, 16));
}

namespace {

/**
 * Whole-cache reference model: per-line tag, valid and dirty bits,
 * version and a last-touch stamp. A fill takes the lowest invalid way,
 * else the way with the smallest stamp (ties to the lowest way), which
 * is LRU with never-touched ways victimized in way order.
 */
class StampLruOracle
{
  public:
    StampLruOracle(std::uint32_t sets, std::uint32_t ways, bool hashed)
        : sets_(sets), ways_(ways), hashed_(hashed), lines_(static_cast<std::size_t>(sets) * ways)
    {
    }

    SetAssocCache::LookupResult
    read(LineAddr line)
    {
        Line *l = find(line);
        if (!l) {
            ++misses;
            return {};
        }
        ++hits;
        l->stamp = ++clock_;
        return {true, l->version};
    }

    SetAssocCache::LookupResult
    write(LineAddr line, std::uint64_t version)
    {
        Line *l = find(line);
        if (!l) {
            ++misses;
            return {};
        }
        ++hits;
        l->dirty = true;
        l->version = version;
        l->stamp = ++clock_;
        return {true, version};
    }

    std::optional<SetAssocCache::Eviction>
    fill(LineAddr line, std::uint64_t version, bool dirty)
    {
        ++fills;
        if (Line *l = find(line)) {
            l->version = std::max(l->version, version);
            l->dirty = l->dirty || dirty;
            l->stamp = ++clock_;
            return std::nullopt;
        }
        Line *set = set_of(line);
        Line *target = nullptr;
        for (std::uint32_t w = 0; w < ways_ && !target; ++w) {
            if (!set[w].valid)
                target = &set[w];
        }
        std::optional<SetAssocCache::Eviction> evicted;
        if (!target) {
            target = &set[0];
            for (std::uint32_t w = 1; w < ways_; ++w) {
                if (set[w].stamp < target->stamp)
                    target = &set[w];
            }
            evicted = SetAssocCache::Eviction{target->tag, target->dirty, target->version};
            ++evictions;
            writebacks += target->dirty;
        }
        *target = Line{line, true, dirty, version, ++clock_};
        return evicted;
    }

    std::optional<SetAssocCache::Eviction>
    invalidate(LineAddr line)
    {
        Line *l = find(line);
        if (!l)
            return std::nullopt;
        l->valid = false;
        return SetAssocCache::Eviction{line, std::exchange(l->dirty, false), l->version};
    }

    bool probe(LineAddr line) { return find(line) != nullptr; }

    std::vector<std::pair<LineAddr, std::uint64_t>>
    flush()
    {
        std::vector<std::pair<LineAddr, std::uint64_t>> out;
        for (Line &l : lines_) {
            if (l.valid && l.dirty)
                out.emplace_back(l.tag, l.version);
            l.valid = l.dirty = false;
        }
        return out;
    }

    std::uint64_t hits = 0, misses = 0, fills = 0, evictions = 0, writebacks = 0;

  private:
    struct Line
    {
        LineAddr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t version = 0;
        std::uint64_t stamp = 0;
    };

    Line *
    set_of(LineAddr line)
    {
        const std::uint64_t set = (hashed_ ? mix64(line) : line) % sets_;
        return &lines_[set * ways_];
    }

    Line *
    find(LineAddr line)
    {
        Line *set = set_of(line);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line)
                return &set[w];
        }
        return nullptr;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    bool hashed_;
    std::uint64_t clock_ = 0;
    std::vector<Line> lines_;
};

bool
same(const std::optional<SetAssocCache::Eviction> &a,
     const std::optional<SetAssocCache::Eviction> &b)
{
    if (!a || !b)
        return a.has_value() == b.has_value();
    return a->line == b->line && a->dirty == b->dirty && a->version == b->version;
}

} // namespace

/**
 * Random reads, writes, clean and dirty fills (some refilling a present
 * line with an older version), invalidates, probes and one mid-run flush,
 * against the reference model at every width from 1 to 16 ways: every
 * outcome, eviction record, flushed line and counter must match.
 */
TEST(SetAssocCache, MatchesStampLruReferenceModel)
{
    constexpr std::uint32_t kSets = 16;
    constexpr int kOps = 40'000;
    for (std::uint32_t ways = 1; ways <= 16; ++ways) {
        for (bool hashed : {false, true}) {
            SetAssocCache cache(kSets, ways, hashed);
            StampLruOracle oracle(kSets, ways, hashed);
            Rng rng(ways * 2 + hashed);
            const std::uint64_t footprint = 3 * kSets * ways;
            for (int i = 0; i < kOps; ++i) {
                const auto where = [&] {
                    return "ways=" + std::to_string(ways) + " hashed=" + std::to_string(hashed) +
                           " op=" + std::to_string(i);
                };
                const LineAddr line = rng.next_below(footprint) * 0x1000 + 7;
                const auto n = static_cast<std::uint64_t>(i) + 1;
                const std::uint64_t version = i % 5 == 0 ? rng.next_below(n) : n;
                switch (rng.next_below(6)) {
                  case 0: {
                    const auto got = cache.read(line);
                    const auto want = oracle.read(line);
                    ASSERT_EQ(got.hit, want.hit) << where();
                    ASSERT_EQ(got.version, want.version) << where();
                    break;
                  }
                  case 1: {
                    const auto got = cache.write(line, version);
                    const auto want = oracle.write(line, version);
                    ASSERT_EQ(got.hit, want.hit) << where();
                    ASSERT_EQ(got.version, want.version) << where();
                    break;
                  }
                  case 2:
                  case 3: {
                    const bool dirty = rng.next_below(2) == 0;
                    ASSERT_TRUE(same(cache.fill(line, version, dirty),
                                     oracle.fill(line, version, dirty)))
                        << where();
                    break;
                  }
                  case 4:
                    ASSERT_TRUE(same(cache.invalidate(line), oracle.invalidate(line))) << where();
                    break;
                  default:
                    ASSERT_EQ(cache.probe(line), oracle.probe(line)) << where();
                    break;
                }
                if (i == kOps / 2) {
                    std::vector<std::pair<LineAddr, std::uint64_t>> flushed;
                    cache.flush([&](LineAddr l, std::uint64_t v) { flushed.emplace_back(l, v); });
                    ASSERT_EQ(flushed, oracle.flush()) << where();
                }
            }
            EXPECT_EQ(cache.hits(), oracle.hits);
            EXPECT_EQ(cache.misses(), oracle.misses);
            EXPECT_EQ(cache.fills(), oracle.fills);
            EXPECT_EQ(cache.evictions(), oracle.evictions);
            EXPECT_EQ(cache.writebacks(), oracle.writebacks);
        }
    }
}

/** Property: steady-state hit rate tracks capacity/footprint. */
class CacheHitRate : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CacheHitRate, UniformRandomHitRateTracksCapacityRatio)
{
    const std::uint32_t footprint_lines = GetParam();
    SetAssocCache cache(64, 8, true);  // 512 lines
    Rng rng(footprint_lines);
    std::uint64_t hits = 0;
    constexpr int kWarmup = 20'000;
    constexpr int kMeasure = 60'000;
    for (int i = 0; i < kWarmup + kMeasure; ++i) {
        const LineAddr line = rng.next_below(footprint_lines);
        const auto r = cache.read(line);
        if (!r.hit)
            cache.fill(line, 1, false);
        else if (i >= kWarmup)
            ++hits;
    }
    const double measured = static_cast<double>(hits) / kMeasure;
    const double expected =
        std::min(1.0, 512.0 / static_cast<double>(footprint_lines));
    EXPECT_NEAR(measured, expected, 0.12) << "footprint=" << footprint_lines;
}

INSTANTIATE_TEST_SUITE_P(Footprints, CacheHitRate,
                         ::testing::Values(256u, 1024u, 2048u, 4096u));

namespace {

/**
 * Drives @p cache through a fixed mix of reads, writes, clean and dirty
 * fills, invalidates and one mid-run flush over a footprint three times
 * its capacity, folding every observable outcome into the returned hash.
 * With @p hint, every op is preceded by prefetch() hints on its line and
 * on lines far outside the footprint, which must change nothing.
 */
std::uint64_t
run_fixed_ops(SetAssocCache &cache, std::uint64_t seed, bool hint = false)
{
    const std::uint64_t footprint = 3 * static_cast<std::uint64_t>(cache.sets()) * cache.ways();
    Rng rng(seed);
    std::uint64_t outcomes = 0;
    const auto fold = [&](std::uint64_t v) { outcomes = mix64(outcomes ^ v); };
    constexpr int kOps = 40'000;
    for (int i = 0; i < kOps; ++i) {
        const LineAddr line = rng.next_below(footprint);
        const std::uint64_t version = static_cast<std::uint64_t>(i) + 1;
        if (hint) {
            cache.prefetch(line);
            cache.prefetch(~line);
            cache.prefetch(line * 0x9e3779b97f4a7c15ULL);
        }
        switch (rng.next_below(8)) {
          case 0:
          case 1:
          case 2: {
            const auto r = cache.read(line);
            fold(r.hit ? r.version : ~0ULL);
            if (!r.hit) {
                const auto ev = cache.fill(line, version, false);
                fold(ev ? (ev->line << 2) | (ev->dirty ? 2 : 0) | 1 : 0);
            }
            break;
          }
          case 3:
          case 4: {
            const auto r = cache.write(line, version);
            fold(r.hit);
            break;
          }
          case 5: {
            const auto ev = cache.fill(line, version, true);
            fold(ev ? ev->version : 0);
            break;
          }
          case 6: {
            const auto ev = cache.invalidate(line);
            fold(ev ? ev->line ^ ev->version : 0);
            break;
          }
          default:
            fold(cache.probe(line));
            break;
        }
        if (i == kOps / 2)
            cache.flush([&](LineAddr l, std::uint64_t v) { fold(l ^ (v << 20)); });
    }
    return outcomes;
}

} // namespace

/**
 * Pins every op outcome of an L1-geometry and an LLC-geometry cache over a
 * fixed op sequence, so a change to the tag-store layout or replacement
 * cannot silently change hit/miss, version or eviction behaviour.
 */
TEST(SetAssocCache, OpOutcomesArePinned)
{
    SetAssocCache l1(128, 8, false);  // 128 KiB, 8-way
    SetAssocCache llc(256, 16, true); // one LLC partition
    EXPECT_EQ(run_fixed_ops(l1, 1), 0xd2604ab48811357cULL);
    EXPECT_EQ(run_fixed_ops(llc, 2), 0xf1e5d05ef1271310ULL);
}

TEST(SetAssocCache, PrefetchHintsChangeNoOutcome)
{
    SetAssocCache l1(128, 8, false);
    SetAssocCache llc(256, 16, true);
    EXPECT_EQ(run_fixed_ops(l1, 1, true), 0xd2604ab48811357cULL);
    EXPECT_EQ(run_fixed_ops(llc, 2, true), 0xf1e5d05ef1271310ULL);

    // A hashed cache whose set count is not a power of two: the hint's
    // set index must stay in range (checked under the sanitizer build).
    SetAssocCache plain(100, 16, true);
    SetAssocCache hinted(100, 16, true);
    hinted.prefetch(0);
    hinted.prefetch(~LineAddr{0});
    EXPECT_EQ(run_fixed_ops(hinted, 3, true), run_fixed_ops(plain, 3));
    EXPECT_EQ(hinted.hits(), plain.hits());
    EXPECT_EQ(hinted.misses(), plain.misses());
    EXPECT_EQ(hinted.fills(), plain.fills());
    EXPECT_EQ(hinted.evictions(), plain.evictions());
    EXPECT_EQ(hinted.writebacks(), plain.writebacks());

    SetAssocCache odd_l1(37, 3, false);
    for (LineAddr line : {LineAddr{0}, LineAddr{36}, LineAddr{37}, ~LineAddr{0}})
        odd_l1.prefetch(line);
    EXPECT_EQ(odd_l1.hits() + odd_l1.misses() + odd_l1.fills(), 0u);
    EXPECT_FALSE(odd_l1.probe(36));
}
