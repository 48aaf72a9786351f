/**
 * @file
 * Non-allocating callable storage for simulation events.
 *
 * The simulator schedules tens of millions of events per run, and the
 * previous `std::function<void()>` representation heap-allocated every
 * capture larger than libstdc++'s 16-byte small-object buffer (the
 * message-delivery closures are 16-24 bytes).  InlineCallback stores
 * its target in a fixed inline buffer with *no* heap fallback: a
 * capture that does not fit is a compile error, so the event hot path
 * can never silently regress into malloc/free churn.
 */

#ifndef PRISM_SIM_CALLBACK_HH
#define PRISM_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace prism {

/**
 * A move-only `void()` callable with @p Capacity bytes of inline
 * storage and no heap fallback.
 *
 * Requirements on the stored callable:
 *  - `sizeof(F) <= Capacity` (static-asserted; enlarge the capacity
 *    constant at the use site if a legitimate capture outgrows it),
 *  - nothrow move constructible (events are relocated when the event
 *    heap reorders), and
 *  - alignment no stricter than `std::max_align_t`.
 */
template <std::size_t Capacity>
class InlineCallback
{
  public:
    static constexpr std::size_t kCapacity = Capacity;

    InlineCallback() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f) // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(f));
    }

    /** Destroy any current target and store @p f in place. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "capture too large for InlineCallback's inline "
                      "buffer; raise the capacity constant at the use "
                      "site (e.g. kEventCallbackBytes)");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "capture over-aligned for InlineCallback");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "captures must be nothrow-movable: the event heap "
                      "relocates callbacks when it reorders");
        reset();
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    InlineCallback(InlineCallback &&other) noexcept
    {
        moveFrom(other);
    }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /** Invoke the stored callable (must not be empty). */
    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    /** True when a callable is stored. */
    explicit operator bool() const noexcept { return ops_ != nullptr; }

  private:
    struct Ops {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, then destroy @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) noexcept {
            Fn *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    moveFrom(InlineCallback &other) noexcept
    {
        if (other.ops_) {
            ops_ = other.ops_;
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

/**
 * Inline storage for event callbacks.  The largest capture scheduled
 * anywhere in src/ is Machine::route's message-delivery closure
 * (a Machine*, the destination shard's message pool and the boxed
 * Msg's unique_ptr, 24 bytes — static-asserted at the capture site);
 * 48 bytes leaves headroom for tests and benches.
 */
inline constexpr std::size_t kEventCallbackBytes = 48;

} // namespace prism

#endif // PRISM_SIM_CALLBACK_HH
