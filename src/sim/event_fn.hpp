#ifndef MORPHEUS_SIM_EVENT_FN_HPP_
#define MORPHEUS_SIM_EVENT_FN_HPP_

#include <concepts>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace morpheus {

/**
 * An event capture's optional look-ahead hook: `void prefetch() const
 * noexcept`. EventQueue calls it on the next same-cycle event before it
 * runs the current one, so the hook can prefetch the host cache lines its
 * event is about to touch. A hook is a hint: it changes no state, never
 * schedules or allocates, and never indexes out of range.
 */
template <typename D>
concept PrefetchingCapture = requires(const D &d) {
    { d.prefetch() } noexcept -> std::same_as<void>;
};

/**
 * A `void()` callable with inline (small-buffer-only) storage.
 *
 * The event loop schedules millions of short-lived continuations per run.
 * EventFn reserves kInlineBytes of in-place storage, enough for the
 * largest capture in the codebase, and *refuses to compile* anything
 * bigger: there is no heap fallback, so scheduling can never allocate
 * behind the simulator's back. The budget also sizes every event node
 * (EventQueue pins a node at 64 bytes, one cache line), so a capture
 * that trips the static_assert should be trimmed, not the budget grown:
 * request-path events carry a 32-bit ReqId into the system's ReqPool,
 * not the request or a completion closure.
 *
 * Captures must be trivially copyable and trivially destructible, so an
 * EventFn is never moved or destroyed: dropping one only clears its
 * operations pointer.
 */
class EventFn
{
  public:
    /**
     * Inline capture budget. The largest captures fill it exactly:
     * MorpheusController::serve_predicted_miss (`this`, a ReqId, a
     * SetRef and the fetch time), the response-delivery events of
     * LlcPartition (`this`, a ReqId, the requester SM, the line and the
     * version) and MorpheusController (`this`, a ReqId, the delivery
     * time and the version), LlcPartition's lookup (`this`, the arrival
     * time, the line and a ReqId), the L1 hit completion, and
     * CacheModeSm's completion signal (sink, ReqId, SM id, hit flag and
     * version).
     */
    static constexpr std::size_t kInlineBytes = 32;

    EventFn() noexcept = default;
    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    /** Constructs @p fn in place, replacing any held callable. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, D &>, "EventFn requires a void() callable");
        static_assert(sizeof(D) <= kInlineBytes,
                      "event capture exceeds EventFn::kInlineBytes — trim the capture "
                      "(the budget sets the 64-byte event node; there is deliberately "
                      "no heap fallback)");
        static_assert(alignof(D) <= alignof(void *),
                      "event captures aligned beyond a pointer are not supported");
        static_assert(std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>,
                      "event captures must be trivially copyable and destructible "
                      "(capture ids and pointers, not owning objects)");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(fn));
        ops_ = &kOpsFor<D>;
    }

    /** Drops the held callable (no-op when empty). */
    void reset() noexcept { ops_ = nullptr; }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invokes the held callable. Precondition: non-empty. */
    void operator()() { ops_->invoke(buf_); }

    /** True when the held capture has a prefetch hook. Precondition: non-empty. */
    bool has_prefetch() const noexcept { return ops_->prefetch != nullptr; }

    /** Runs the held capture's prefetch hook, if it has one. Precondition: non-empty. */
    void
    prefetch() const noexcept
    {
        if (ops_->prefetch != nullptr)
            ops_->prefetch(buf_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*prefetch)(const void *) noexcept;
    };

    template <typename D>
    static void
    invoke_impl(void *p)
    {
        (*static_cast<D *>(p))();
    }

    template <typename D>
    static void
    prefetch_impl(const void *p) noexcept
    {
        static_cast<const D *>(p)->prefetch();
    }

    template <typename D>
    static constexpr Ops
    ops_for()
    {
        if constexpr (PrefetchingCapture<D>)
            return Ops{&invoke_impl<D>, &prefetch_impl<D>};
        else
            return Ops{&invoke_impl<D>, nullptr};
    }

    template <typename D>
    static constexpr Ops kOpsFor = ops_for<D>();

    const Ops *ops_ = nullptr;
    alignas(void *) unsigned char buf_[kInlineBytes];
};

} // namespace morpheus

#endif // MORPHEUS_SIM_EVENT_FN_HPP_
