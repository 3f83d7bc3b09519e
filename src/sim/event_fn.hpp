#ifndef MORPHEUS_SIM_EVENT_FN_HPP_
#define MORPHEUS_SIM_EVENT_FN_HPP_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace morpheus {

/**
 * A move-only `void()` callable with inline (small-buffer-only) storage.
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
 */
class EventFn
{
  public:
    /**
     * Inline capture budget. The largest captures fill it exactly:
     * MorpheusController::serve_predicted_miss (`this`, a ReqId, a
     * SetRef and the fetch time), the response-delivery events of
     * LlcPartition and MorpheusController (`this`, a ReqId, the delivery
     * time and the version), the L1 hit completion, and CacheModeSm's
     * completion signal (sink, ReqId, hit flag, time and version).
     */
    static constexpr std::size_t kInlineBytes = 32;

    EventFn() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn>>>
    EventFn(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    EventFn(EventFn &&other) noexcept { move_from(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Destroys any held callable and constructs @p fn in place. */
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
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "event captures must be nothrow-movable (EventFn's move "
                      "operations relocate the capture with no copy or exception "
                      "fallback)");
        reset();
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(fn));
        ops_ = &kOpsFor<D>;
    }

    /** Destroys the held callable (no-op when empty). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invokes the held callable. Precondition: non-empty. */
    void operator()() { ops_->invoke(buf_); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *from, void *to) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static void
    invoke_impl(void *p)
    {
        (*static_cast<D *>(p))();
    }

    template <typename D>
    static void
    relocate_impl(void *from, void *to) noexcept
    {
        D *f = static_cast<D *>(from);
        ::new (to) D(std::move(*f));
        f->~D();
    }

    template <typename D>
    static void
    destroy_impl(void *p) noexcept
    {
        static_cast<D *>(p)->~D();
    }

    template <typename D>
    static constexpr Ops kOpsFor{&invoke_impl<D>, &relocate_impl<D>, &destroy_impl<D>};

    void
    move_from(EventFn &other) noexcept
    {
        if (other.ops_ != nullptr) {
            other.ops_->relocate(other.buf_, buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(void *) unsigned char buf_[kInlineBytes];
};

} // namespace morpheus

#endif // MORPHEUS_SIM_EVENT_FN_HPP_
