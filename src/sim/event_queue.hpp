#ifndef MORPHEUS_SIM_EVENT_QUEUE_HPP_
#define MORPHEUS_SIM_EVENT_QUEUE_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/types.hpp"

namespace morpheus {

/**
 * A discrete-event scheduler.
 *
 * The whole simulator is event driven: components never tick every cycle;
 * instead they schedule callbacks at absolute times and model bandwidth
 * with ThroughputPort reservations. Events scheduled for the same cycle
 * run in FIFO order (a monotonically increasing sequence number breaks
 * ties), which keeps runs fully deterministic.
 *
 * Internally this is a bucketed *calendar queue* sized for the
 * simulator's traffic. L1/NoC/issue-port continuations land within a few
 * hundred cycles, but a saturated DRAM returns completions up to ~5,300
 * cycles ahead, so the ring spans about three times that:
 *
 *  - Near-future events — `when < now + kRingCycles` — go into a
 *    power-of-two ring of per-cycle buckets. Each bucket is an intrusive
 *    FIFO list, so same-cycle events pop in schedule order, preserving
 *    the sequence-number tie-break exactly. Occupied buckets are tracked
 *    in a bitmap (one bit per bucket) plus a summary array (one bit per
 *    bitmap word, 4096 buckets per summary word), making "find the next
 *    event" a few countr_zero ops instead of a heap sift. Schedule and
 *    pop are O(1).
 *  - Far-future events overflow to a spill heap ordered by (when, seq).
 *    Whenever the clock advances, spill events whose time has entered
 *    the ring window are drained into their buckets — in (when, seq)
 *    order, and always *before* the first callback at the new time runs,
 *    so a callback that schedules more same-cycle work appends behind
 *    any refilled event, keeping FIFO order global.
 *
 * Events live in slab-allocated nodes that are recycled through a free
 * list, and callbacks are stored in EventFn's inline buffer, so
 * steady-state scheduling performs no heap allocation at all. Nodes are
 * owned (mutable) storage — popping moves nothing and needs no
 * const_cast, unlike the previous std::priority_queue implementation
 * whose top() could only be moved from by casting away const.
 *
 * Popping an event looks one event ahead: before the popped callback
 * runs, the next node in the same bucket (if any) has its capture's
 * prefetch hook called (see PrefetchingCapture) and its successor node
 * prefetched, so same-cycle events overlap their host cache misses. Hooks
 * are hints and change no state, so event order and results are
 * unaffected.
 */
class EventQueue
{
  public:
    /**
     * Width of the near-future ring window in cycles: about three times
     * the largest DRAM completion horizon measured on bandwidth-saturated
     * BL runs (5,317 cycles).
     * Events at `now + kRingCycles` or later take the spill-heap path.
     */
    static constexpr Cycle kRingCycles = 16384;
    static_assert((kRingCycles & (kRingCycles - 1)) == 0, "ring width must be a power of two");
    static_assert(kRingCycles % 4096 == 0, "ring width must fill whole summary words");

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Cycle now() const { return now_; }

    /**
     * Schedules @p fn to run at absolute time @p when.
     * Scheduling in the past is clamped to "now" (the event still runs).
     * @p fn's capture must fit EventFn::kInlineBytes (enforced at compile
     * time) — scheduling never heap-allocates in steady state.
     */
    template <typename F>
    void
    schedule(Cycle when, F &&fn)
    {
        Node *n = acquire_node();
        n->fn.emplace(std::forward<F>(fn));
        enqueue(when, n);
    }

    /** Schedules @p fn to run @p delay cycles from now. */
    template <typename F>
    void
    schedule_in(Cycle delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /** True when no events remain. */
    bool empty() const { return ring_count_ == 0 && spill_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return ring_count_ + spill_.size(); }

    /**
     * Runs the earliest event, advancing time to it.
     * @return false if the queue was empty.
     */
    bool step() { return step_bounded(~Cycle{0}); }

    /** Runs events until the queue drains. */
    void run();

    /** Runs events with timestamps <= @p until (time advances to at most @p until). */
    void run_until(Cycle until);

    /** Total number of events executed so far (for micro-benchmarks / tests). */
    std::uint64_t executed() const { return executed_; }

    /** Number of events that were scheduled beyond the ring window into the spill heap. */
    std::uint64_t spilled() const { return spilled_; }

  private:
    struct Node
    {
        Cycle when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr; ///< bucket FIFO / free-list link
        EventFn fn;
    };
    // A node is 64 bytes, one cache line: a wider capture must fail to
    // compile rather than grow every node.
    static_assert(sizeof(Node) == 64, "EventQueue::Node must be 64 bytes");

    /** Spill-heap order: earliest (when, seq) on top. */
    struct SpillLater
    {
        bool
        operator()(const Node *a, const Node *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    static constexpr std::size_t kRingMask = static_cast<std::size_t>(kRingCycles) - 1;
    static constexpr std::size_t kOccWords = static_cast<std::size_t>(kRingCycles) / 64;
    static constexpr std::size_t kSummaryWords = kOccWords / 64;
    static constexpr std::size_t kSlabNodes = 256;

    Node *
    acquire_node()
    {
        if (free_ == nullptr)
            grow_slab();
        Node *n = free_;
        free_ = n->next;
        return n;
    }

    void grow_slab();
    void enqueue(Cycle when, Node *n);
    void append_bucket(Node *n);
    Node *pop_bucket_front(Cycle t);
    Cycle next_ring_time() const;
    void refill_from_spill();
    bool step_bounded(Cycle limit);

    std::array<Bucket, kRingCycles> ring_{};
    /** Occupancy bitmap over ring_: one bit per bucket, one summary bit per occ_ word. */
    std::array<std::uint64_t, kOccWords> occ_{};
    std::array<std::uint64_t, kSummaryWords> occ_summary_{};
    std::size_t ring_count_ = 0;
    std::priority_queue<Node *, std::vector<Node *>, SpillLater> spill_;
    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *free_ = nullptr;
    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t spilled_ = 0;
};

} // namespace morpheus

#endif // MORPHEUS_SIM_EVENT_QUEUE_HPP_
