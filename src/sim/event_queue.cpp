#include "sim/event_queue.hpp"

#include <bit>
#include <cassert>

namespace morpheus {

void
EventQueue::grow_slab()
{
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node *chunk = slabs_.back().get();
    // Thread the fresh slab onto the free list front-to-back so the first
    // acquisitions walk it in address order.
    for (std::size_t i = kSlabNodes; i-- > 0;) {
        chunk[i].next = free_;
        free_ = &chunk[i];
    }
}

void
EventQueue::enqueue(Cycle when, Node *n)
{
    if (when < now_)
        when = now_;
    n->when = when;
    n->seq = next_seq_++;
    n->next = nullptr;
    if (when < now_ + kRingCycles) {
        append_bucket(n);
    } else {
        spill_.push(n);
        ++spilled_;
    }
}

void
EventQueue::append_bucket(Node *n)
{
    const std::size_t b = static_cast<std::size_t>(n->when) & kRingMask;
    Bucket &bk = ring_[b];
    if (bk.tail != nullptr) {
        bk.tail->next = n;
    } else {
        bk.head = n;
        occ_[b >> 6] |= 1ULL << (b & 63);
        occ_summary_[b >> 12] |= 1ULL << ((b >> 6) & 63);
    }
    bk.tail = n;
    ++ring_count_;
}

EventQueue::Node *
EventQueue::pop_bucket_front(Cycle t)
{
    const std::size_t b = static_cast<std::size_t>(t) & kRingMask;
    Bucket &bk = ring_[b];
    Node *n = bk.head;
    assert(n != nullptr && n->when == t);
    bk.head = n->next;
    if (bk.head == nullptr) {
        bk.tail = nullptr;
        occ_[b >> 6] &= ~(1ULL << (b & 63));
        if (occ_[b >> 6] == 0)
            occ_summary_[b >> 12] &= ~(1ULL << ((b >> 6) & 63));
    }
    --ring_count_;
    return n;
}

Cycle
EventQueue::next_ring_time() const
{
    // All ring events lie in [now_, now_ + kRingCycles), so the circular
    // bucket distance from now_'s bucket equals the cycle distance.
    assert(ring_count_ > 0);
    const std::size_t b = static_cast<std::size_t>(now_) & kRingMask;
    const std::size_t w = b >> 6;

    // Bits at or after b inside b's own word.
    std::uint64_t word = occ_[w] & (~0ULL << (b & 63));
    if (word != 0)
        return now_ + (((w << 6) + static_cast<std::size_t>(std::countr_zero(word))) - b);

    // Next occupied word strictly after w: first the rest of w's summary
    // word, then the following summary words, wrapping around to w's own.
    // Its words after w were just found empty, so the wrap lands at or
    // before w.
    const std::size_t s = w >> 6;
    std::uint64_t sum = occ_summary_[s] & ~((2ULL << (w & 63)) - 1);
    std::size_t s2 = s;
    for (std::size_t i = 1; sum == 0 && i <= kSummaryWords; ++i) {
        s2 = (s + i) & (kSummaryWords - 1);
        sum = occ_summary_[s2];
    }
    assert(sum != 0);
    const std::size_t w2 = (s2 << 6) + static_cast<std::size_t>(std::countr_zero(sum));
    word = occ_[w2];
    if (w2 == w) // wrapped into b's word: only bits below b qualify
        word &= (1ULL << (b & 63)) - 1;
    const std::size_t idx = (w2 << 6) + static_cast<std::size_t>(std::countr_zero(word));
    return now_ + ((idx - b) & kRingMask);
}

void
EventQueue::refill_from_spill()
{
    // Drain every spill event whose time entered the ring window. The heap
    // pops in (when, seq) order and buckets append FIFO, so refilled events
    // land ahead of anything scheduled later at the same cycle — the global
    // sequence order is preserved. Called immediately after now_ advances,
    // before any callback at the new time runs.
    const Cycle horizon = now_ + kRingCycles;
    while (!spill_.empty() && spill_.top()->when < horizon) {
        Node *n = spill_.top();
        spill_.pop();
        n->next = nullptr;
        append_bucket(n);
    }
}

bool
EventQueue::step_bounded(Cycle limit)
{
    // Ring events always precede spill events: the spill invariant is
    // when >= now_ + kRingCycles, beyond any ring resident.
    Cycle t;
    if (ring_count_ > 0)
        t = next_ring_time();
    else if (!spill_.empty())
        t = spill_.top()->when;
    else
        return false;
    if (t > limit)
        return false; // leave now_ at the last executed event

    now_ = t;
    if (!spill_.empty() && spill_.top()->when < now_ + kRingCycles)
        refill_from_spill();

    Node *n = pop_bucket_front(t);
    ++executed_;
    // Look one event ahead: prefetch the node after the next same-cycle
    // one, and call the next event's hook so it prefetches the state it
    // will touch, overlapping those host misses with this event. Hooks
    // are hints and change no state.
    if (Node *m = n->next) {
        __builtin_prefetch(m->next);
        m->fn.prefetch();
    }
    // The node is already unlinked and slab storage never moves, so the
    // callback may freely schedule more events (even growing the slab)
    // while it runs in place.
    n->fn();
    n->fn.reset();
    n->next = free_;
    free_ = n;
    return true;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

void
EventQueue::run_until(Cycle until)
{
    // Note: when the queue drains before @p until, now() stays at the
    // last event time — callers read it as the completion time.
    while (step_bounded(until)) {
    }
}

} // namespace morpheus
