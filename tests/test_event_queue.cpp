#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

using namespace morpheus;

namespace {

/** Deterministic 64-bit generator (SplitMix64) for the randomized oracles. */
struct TestRng
{
    std::uint64_t state;
    explicit TestRng(std::uint64_t seed) : state(seed) {}
    std::uint64_t
    next()
    {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t next_below(std::uint64_t n) { return next() % n; }
};

} // namespace

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTimeEventsRunFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(100, [&] {
        eq.schedule(50, [&] { seen = eq.now(); });  // in the past
    });
    eq.run();
    EXPECT_EQ(seen, 100u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            eq.schedule_in(7, [&chain] { chain(); });
    };
    eq.schedule(0, [&chain] { chain(); });
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.now(), 63u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndKeepsRemainder)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
    // Time does not jump past the last executed event when draining early.
    eq.run_until(1000);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(static_cast<Cycle>(i), [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 5u);
}

// ---------------------------------------------------------------------------
// Ordering oracle: randomized schedules compared against a reference model.
// The contract is exactly "std::stable_sort by time": equal-time events run
// in schedule order.

TEST(EventQueueOracle, RandomScheduleThenDrainMatchesStableSort)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        TestRng rng(seed * 0x1234567ULL);
        EventQueue eq;
        std::vector<std::pair<Cycle, int>> model; // (when, id) in schedule order
        std::vector<int> order;
        const int n = 2000;
        for (int id = 0; id < n; ++id) {
            // Spread times across ~3 ring windows so both the near-future
            // ring and the far-future spill heap see traffic.
            const Cycle when = rng.next_below(3 * EventQueue::kRingCycles);
            model.emplace_back(when, id);
            eq.schedule(when, [&order, id] { order.push_back(id); });
        }
        eq.run();

        std::stable_sort(model.begin(), model.end(),
                         [](const auto &a, const auto &b) { return a.first < b.first; });
        ASSERT_EQ(order.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            EXPECT_EQ(order[i], model[i].second) << "position " << i << " seed " << seed;
    }
}

TEST(EventQueueOracle, RandomInterleavedScheduleAndPopMatchesModel)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        TestRng rng(seed * 0xabcdefULL + 99);
        EventQueue eq;
        // Reference model: pending (when, id) in schedule order; a pop takes
        // the earliest-time, earliest-scheduled entry.
        std::vector<std::pair<Cycle, int>> pending;
        std::vector<int> order;
        std::vector<int> expected;
        int next_id = 0;
        for (int op = 0; op < 4000; ++op) {
            const bool do_pop = !pending.empty() && rng.next_below(100) < 40;
            if (do_pop) {
                auto best = pending.begin();
                for (auto it = pending.begin(); it != pending.end(); ++it) {
                    if (it->first < best->first)
                        best = it;
                }
                expected.push_back(best->second);
                pending.erase(best);
                ASSERT_TRUE(eq.step());
            } else {
                const int id = next_id++;
                // Mix short-horizon, boundary, and far-future delays; the
                // model clamps past times to "now" just like the queue.
                const std::uint64_t pick = rng.next_below(100);
                Cycle when;
                if (pick < 70)
                    when = eq.now() + rng.next_below(64);
                else if (pick < 85)
                    when = eq.now() + EventQueue::kRingCycles - 2 + rng.next_below(4);
                else
                    when = eq.now() + rng.next_below(4 * EventQueue::kRingCycles);
                pending.emplace_back(std::max(when, eq.now()), id);
                eq.schedule(when, [&order, id] { order.push_back(id); });
            }
            ASSERT_EQ(eq.pending(), pending.size());
        }
        eq.run();
        // Drain the model in the same earliest-(when, seq) order.
        std::stable_sort(pending.begin(), pending.end(),
                         [](const auto &a, const auto &b) { return a.first < b.first; });
        for (const auto &p : pending)
            expected.push_back(p.second);
        EXPECT_EQ(order, expected) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Far-future spill boundaries.

TEST(EventQueueSpill, EventsStraddlingTheRingBoundaryRunInTimeOrder)
{
    EventQueue eq;
    std::vector<Cycle> times;
    const Cycle r = EventQueue::kRingCycles;
    // One event per interesting offset, scheduled in scrambled order.
    const std::array<Cycle, 7> offsets = {r + 1, 0, r - 1, 2 * r + 3, r, 1, 5 * r};
    for (Cycle o : offsets)
        eq.schedule(o, [&times, &eq] { times.push_back(eq.now()); });
    eq.run();
    const std::vector<Cycle> expect = {0, 1, r - 1, r, r + 1, 2 * r + 3, 5 * r};
    EXPECT_EQ(times, expect);
}

TEST(EventQueueSpill, SameCycleFifoHoldsAcrossSpillRefill)
{
    EventQueue eq;
    const Cycle far = 3 * EventQueue::kRingCycles + 17;
    std::vector<int> order;
    // "a" enters via the spill heap (far future at schedule time)...
    eq.schedule(far, [&order] { order.push_back(0); });
    // ...then the clock advances into range, pulling "a" into its bucket...
    eq.schedule(far - 10, [&order, &eq, far] {
        order.push_back(1);
        // ...and "b", scheduled later for the same cycle, must run after it.
        eq.schedule(far, [&order] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueSpill, RepeatedWindowJumpsDrainEverything)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // Sparse events many windows apart force repeated empty-ring jumps
    // through the spill heap.
    for (Cycle i = 0; i < 64; ++i)
        eq.schedule(i * 7 * EventQueue::kRingCycles, [&fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 64u);
    EXPECT_EQ(eq.now(), 63 * 7 * EventQueue::kRingCycles);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueSpill, SpilledCountsOnlyEventsPastTheRingWindow)
{
    EventQueue eq;
    eq.schedule(EventQueue::kRingCycles - 1, [] {});
    EXPECT_EQ(eq.spilled(), 0u);
    eq.schedule(EventQueue::kRingCycles, [] {});
    EXPECT_EQ(eq.spilled(), 1u);
    eq.run();
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.spilled(), 1u); // refilling into the ring does not count
}

// ---------------------------------------------------------------------------
// Ring search: the next occupied bucket is found across bitmap words,
// summary words and the ring's wrap, from any phase of `now`.

namespace {

constexpr Cycle kRing = EventQueue::kRingCycles;

/** Offsets from `now` that cross a bitmap word, a summary word and the ring's end. */
constexpr std::array<Cycle, 7> kRingOffsets = {1, 63, 64, 4095, 4096, 4097, kRing - 1};

/**
 * Current-bucket phases: mid-word, in the last bitmap word of a summary
 * word, in a non-first summary word, and in the ring's last word.
 */
constexpr std::array<Cycle, 4> kBucketPhases = {100, 63 * 64 + 20, 2 * 4096 + 5 * 64 + 30,
                                                kRing - 10};

/** Advances a fresh queue's clock to @p t by running one event there. */
void
advance_to(EventQueue &eq, Cycle t)
{
    eq.schedule(t, [] {});
    ASSERT_TRUE(eq.step());
    ASSERT_EQ(eq.now(), t);
    ASSERT_TRUE(eq.empty());
}

} // namespace

TEST(EventQueueRing, StepLandsOnEachOffsetFromEachPhase)
{
    for (Cycle phase : kBucketPhases) {
        for (Cycle offset : kRingOffsets) {
            EventQueue eq;
            const Cycle start = 3 * kRing + phase;
            advance_to(eq, start);
            bool ran = false;
            eq.schedule(start + offset, [&ran] { ran = true; });
            ASSERT_TRUE(eq.step()) << "phase " << phase << " offset " << offset;
            EXPECT_TRUE(ran);
            EXPECT_EQ(eq.now(), start + offset) << "phase " << phase << " offset " << offset;
            EXPECT_TRUE(eq.empty());
        }
    }
}

TEST(EventQueueRing, NextEventBelowTheCurrentBucketInItsOwnWord)
{
    // Mid-word phase: bucket bit 36 of its word. Offsets kRing - k wrap the
    // ring back into the same word at bits 36 - k.
    const Cycle start = 5 * kRing + 100;
    for (Cycle k : {Cycle{1}, Cycle{17}, Cycle{36}}) {
        EventQueue eq;
        advance_to(eq, start);
        eq.schedule(start + kRing - k, [] {});
        ASSERT_TRUE(eq.step()) << "k " << k;
        EXPECT_EQ(eq.now(), start + kRing - k) << "k " << k;
    }
}

TEST(EventQueueRing, NearerSummaryWordWinsOverTheWrappedOwnWord)
{
    EventQueue eq;
    const Cycle start = 2 * kRing + 100;
    advance_to(eq, start);
    std::vector<Cycle> times;
    const auto record = [&times, &eq] { times.push_back(eq.now()); };
    // Scheduled far-first so bucket order, not schedule order, decides.
    eq.schedule(start + kRing - 1, record); // own word, below the current bucket
    eq.schedule(start + 3 * 4096, record);  // a later summary word
    eq.schedule(start + 5000, record);      // the next summary word
    eq.run();
    EXPECT_EQ(times, (std::vector<Cycle>{start + 5000, start + 3 * 4096, start + kRing - 1}));
    EXPECT_EQ(eq.spilled(), 1u); // only advance_to's event was past the window
}

// ---------------------------------------------------------------------------
// Reentrancy: schedule() from inside a running callback.

TEST(EventQueueReentrancy, CallbacksMaySpawnBurstsThatGrowTheSlab)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // Each primary event spawns a burst bigger than one slab chunk, so the
    // queue must grow its node storage while a callback is mid-flight.
    for (int i = 0; i < 4; ++i) {
        eq.schedule(static_cast<Cycle>(i), [&eq, &fired] {
            for (int j = 0; j < 600; ++j)
                eq.schedule_in(static_cast<Cycle>(j % 13), [&fired] { ++fired; });
        });
    }
    eq.run();
    EXPECT_EQ(fired, 4u * 600u);
}

TEST(EventQueueReentrancy, SelfReschedulingEventKeepsItsCaptureIntact)
{
    // Regression for the old priority_queue implementation, whose step()
    // moved the callback out of top() via const_cast — UB-adjacent, and a
    // use-after-free risk for a callback whose own scheduling invalidates
    // heap storage mid-flight. The calendar queue's nodes are stable slab
    // storage; under ASan this test verifies a self-rescheduling callback's
    // capture survives arbitrarily many hops, interleaved with same-cycle
    // neighbours.
    EventQueue eq;
    std::vector<std::uint64_t> payload(32);
    std::iota(payload.begin(), payload.end(), 1);
    const std::uint64_t want =
        std::accumulate(payload.begin(), payload.end(), std::uint64_t{0});

    std::uint64_t checks = 0;
    int hops = 0;
    std::function<void()> self = [&, payload] {
        // Touch every captured byte (ASan would flag a stale node).
        std::uint64_t sum = 0;
        for (std::uint64_t v : payload)
            sum += v;
        EXPECT_EQ(sum, want);
        ++checks;
        if (++hops < 200) {
            // Same-cycle neighbours land in the same bucket while the
            // self-reschedule appends behind them.
            eq.schedule_in(0, [&checks] { ++checks; });
            eq.schedule_in(hops % 3, [&self] { self(); });
        }
    };
    eq.schedule(0, [&self] { self(); });
    eq.run();
    EXPECT_EQ(checks, 200u + 199u);
}

TEST(EventQueueReentrancy, PastSchedulesFromCallbacksRunThisCycleInFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(0);
        eq.schedule(40, [&order] { order.push_back(2); }); // clamped to 100
    });
    eq.schedule(100, [&order] { order.push_back(1); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 100u);
}

// ---------------------------------------------------------------------------
// EventFn storage.

TEST(EventQueueCaptures, NearLimitCapturesWork)
{
    EventQueue eq;
    std::array<std::uint8_t, EventFn::kInlineBytes - 8> blob{};
    for (std::size_t i = 0; i < blob.size(); ++i)
        blob[i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::uint32_t sum = 0;
    eq.schedule(3, [blob, &sum] {
        for (std::uint8_t b : blob)
            sum += b;
    });
    eq.run();
    std::uint32_t want = 0;
    for (std::size_t i = 0; i < blob.size(); ++i)
        want += static_cast<std::uint8_t>(i * 7 + 1);
    EXPECT_EQ(sum, want);
}

// ---------------------------------------------------------------------------
// Look-ahead prefetch hooks: before running an event, the queue calls the
// hook of the next event in the same cycle's bucket.

namespace {

/** A capture with a hook that logs `-name` for the hook, `name` for the run. */
struct HookedEvent
{
    std::vector<int> *log;
    int name;

    void operator()() const { log->push_back(name); }
    void prefetch() const noexcept { log->push_back(-name); }
};

} // namespace

TEST(EventQueueHooks, NextSameCycleEventsHookRunsBeforeTheCurrentEvent)
{
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(5, HookedEvent{&log, 1});
    eq.schedule(5, HookedEvent{&log, 2});
    eq.schedule(5, HookedEvent{&log, 3});
    eq.run();
    // [hook B, A, hook C, B, C]: the first event of the cycle gets no hook.
    EXPECT_EQ(log, (std::vector<int>{-2, 1, -3, 2, 3}));
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueueHooks, FirstEventOfEachCycleGetsNoHookCall)
{
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(1, HookedEvent{&log, 1});
    eq.schedule(2, HookedEvent{&log, 2});
    eq.schedule(2, HookedEvent{&log, 3});
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, -3, 2, 3}));
}

TEST(EventQueueHooks, NoHookRunsForAnEventInALaterBucket)
{
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(10, HookedEvent{&log, 1});
    eq.schedule(11, HookedEvent{&log, 2});
    // Past the ring window: the spill heap, refilled into a later bucket.
    eq.schedule(10 + EventQueue::kRingCycles, HookedEvent{&log, 3});
    eq.run_until(10);
    EXPECT_EQ(log, (std::vector<int>{1}));
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueHooks, EventScheduledIntoTheRunningCycleGetsNoHookFromItsParent)
{
    // The hook is taken when the current event pops; an event appended to
    // the bucket by the running callback is hooked only by a later pop.
    EventQueue eq;
    std::vector<int> log;
    eq.schedule(4, [&] {
        log.push_back(1);
        eq.schedule(4, HookedEvent{&log, 2});
        eq.schedule(4, HookedEvent{&log, 3});
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, -3, 2, 3}));
}

TEST(EventQueueHooks, HooklessCaptureHasNoPrefetchEntry)
{
    std::vector<int> log;
    EventFn plain;
    plain.emplace([&log] { log.push_back(7); });
    EXPECT_FALSE(plain.has_prefetch());
    plain.prefetch(); // a no-op without a hook
    EXPECT_TRUE(log.empty());
    plain();
    EXPECT_EQ(log, (std::vector<int>{7}));

    EventFn hooked;
    hooked.emplace(HookedEvent{&log, 8});
    EXPECT_TRUE(hooked.has_prefetch());
    hooked.prefetch();
    EXPECT_EQ(log, (std::vector<int>{7, -8}));
    hooked.reset();
    EXPECT_FALSE(static_cast<bool>(hooked));
}
