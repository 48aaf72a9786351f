/**
 * @file
 * Coroutine task type used to express simulated programs.
 *
 * Each simulated processor executes its workload as a CoTask coroutine.
 * Memory accesses that miss, synchronization, and explicit delays are
 * expressed as awaitables; the coroutine suspends and the event queue
 * resumes it when the simulated operation completes.  CoTasks compose:
 * a workload may be decomposed into sub-coroutines and co_await them.
 *
 * Every remote miss is a chain of such frames (the processor's slow
 * path, the node's bus transaction, the controller's miss service and
 * client transaction, the home's handler), created and destroyed by
 * the million per sweep.  CoTask and FireAndForget frames therefore
 * come from a per-thread free list per size class (allocFrame /
 * freeFrame below) instead of the global heap: once a thread has seen
 * its peak number of live frames, creating a coroutine allocates
 * nothing.  A frame may be freed on another thread than the one that
 * allocated it (the sharded coordinator runs single-shard windows
 * itself); it then joins the freeing thread's lists.
 */

#ifndef PRISM_SIM_TASK_HH
#define PRISM_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <new>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#define PRISM_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PRISM_FRAME_POOL_ASAN 1
#endif
#endif
#ifdef PRISM_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace prism {

namespace frame_pool {

/** Size classes are multiples of kGrain bytes up to kClasses * kGrain;
 *  a larger frame goes straight to the global heap. */
inline constexpr std::size_t kGrain = 64;
inline constexpr std::size_t kClasses = 16;
/** Free bytes one thread keeps at most; beyond it frames are freed. */
inline constexpr std::size_t kRetainBytes = std::size_t{4} << 20;

/**
 * Under AddressSanitizer a free block is poisoned, so touching or
 * resuming a destroyed frame is reported, and the lists are FIFO: a
 * freed frame waits behind every other free frame of its class before
 * reuse, as it would in ASan's own quarantine.  Elsewhere they are
 * LIFO, which hands out the block most likely still in cache.
 */
#ifdef PRISM_FRAME_POOL_ASAN
inline constexpr bool kFifo = true;
inline void poison(void *p, std::size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
inline void unpoison(void *p, std::size_t n) { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
inline constexpr bool kFifo = false;
inline void poison(void *, std::size_t) {}
inline void unpoison(void *, std::size_t) {}
#endif

/** One thread's free lists, linked through each block's first word. */
struct Cache {
    enum State : std::uint8_t {
        Fresh,  //!< nothing retained yet; the exit drain is unregistered
        Armed,  //!< retaining; the drain runs at thread exit
        Closed, //!< the drain ran: frees bypass the lists
    };
    void *head[kClasses];
    void *tail[kClasses]; //!< FIFO push end (ASan builds only)
    std::size_t retained; //!< bytes on the lists
    State state;
};

/** The calling thread's cache (constant-initialized, no guard). */
inline Cache &
cache() noexcept
{
    static constinit thread_local Cache c{};
    return c;
}

/** Register the calling thread's exit drain (task.cc); Fresh -> Armed. */
void arm() noexcept;

/** Class index of an @p n byte frame (kClasses and up: unpooled). */
constexpr std::size_t
classOf(std::size_t n)
{
    return (n - 1) / kGrain;
}

/** A block for an @p n byte frame. */
inline void *
allocFrame(std::size_t n)
{
    const std::size_t c = classOf(n);
    if (c >= kClasses)
        return ::operator new(n);
    const std::size_t bytes = (c + 1) * kGrain;
    Cache &fc = cache();
    void *p = fc.head[c];
    if (!p)
        return ::operator new(bytes);
    unpoison(p, bytes);
    fc.head[c] = *static_cast<void **>(p);
    fc.retained -= bytes;
    return p;
}

/** Return the block of an @p n byte frame from allocFrame. */
inline void
freeFrame(void *p, std::size_t n) noexcept
{
    const std::size_t c = classOf(n);
    if (c < kClasses) {
        const std::size_t bytes = (c + 1) * kGrain;
        Cache &fc = cache();
        if (fc.state == Cache::Fresh)
            arm();
        if (fc.state == Cache::Armed &&
            fc.retained + bytes <= kRetainBytes) {
            fc.retained += bytes;
            if (kFifo && fc.head[c]) {
                *static_cast<void **>(p) = nullptr;
                unpoison(fc.tail[c], sizeof(void *));
                *static_cast<void **>(fc.tail[c]) = p;
                poison(fc.tail[c], sizeof(void *));
            } else {
                *static_cast<void **>(p) = fc.head[c];
                fc.head[c] = p;
            }
            fc.tail[c] = kFifo ? p : nullptr;
            poison(p, bytes);
            return;
        }
    }
    ::operator delete(p);
}

} // namespace frame_pool

/**
 * An eagerly-ownable, lazily-started coroutine returning void.
 *
 * Lifetime: the frame is destroyed by ~CoTask.  Because final_suspend
 * always suspends, a completed coroutine's frame stays valid until its
 * owning CoTask goes away, so `co_await subTask()` on a temporary is
 * safe (the temporary outlives the await expression).
 */
class CoTask
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type {
        static void *operator new(std::size_t n)
        {
            return frame_pool::allocFrame(n);
        }

        static void
        operator delete(void *p, std::size_t n) noexcept
        {
            frame_pool::freeFrame(p, n);
        }

        /** Coroutine to resume when this one finishes (nested await). */
        std::coroutine_handle<> continuation;
        /** Completion callback for root (detached-start) tasks. */
        std::function<void()> onDone;

        CoTask
        get_return_object()
        {
            return CoTask{Handle::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                auto &p = h.promise();
                if (p.onDone)
                    p.onDone();
                if (p.continuation)
                    return p.continuation;
                return std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            // Workload coroutines must not throw: a simulated program
            // has no simulated exception semantics to map this onto.
            panic("unhandled exception escaped a CoTask coroutine");
        }
    };

    CoTask() = default;
    explicit CoTask(Handle h) : handle_(h) {}

    CoTask(CoTask &&other) noexcept
        : handle_(std::exchange(other.handle_, {}))
    {
    }

    CoTask &
    operator=(CoTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, {});
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    /** True if this object owns a coroutine frame. */
    bool valid() const { return static_cast<bool>(handle_); }

    /** True once the coroutine has run to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    /**
     * Start a root task.  @p on_done fires when the coroutine finishes
     * (typically used to count completed processors).
     */
    void
    start(std::function<void()> on_done = {})
    {
        prism_assert(handle_, "starting an empty CoTask");
        handle_.promise().onDone = std::move(on_done);
        handle_.resume();
    }

    /** Awaiting a CoTask runs it to completion, then resumes the caller. */
    auto
    operator co_await() noexcept
    {
        struct Awaiter {
            Handle h;

            bool await_ready() const noexcept { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> cont) noexcept
            {
                h.promise().continuation = cont;
                return h;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{handle_};
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = {};
        }
    }

    Handle handle_;
};

/**
 * A detached, eagerly-started coroutine for protocol handlers.
 *
 * The frame owns itself: it starts running as soon as the handler
 * function is called and is destroyed automatically when it finishes.
 * Use for network-message handlers and other fire-and-forget activity
 * whose completion nobody awaits directly (completion is communicated
 * through CoLatch / CoEvent / state updates instead).
 */
struct FireAndForget {
    struct promise_type {
        static void *operator new(std::size_t n)
        {
            return frame_pool::allocFrame(n);
        }

        static void
        operator delete(void *p, std::size_t n) noexcept
        {
            frame_pool::freeFrame(p, n);
        }

        FireAndForget get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a FireAndForget coroutine");
        }
    };
};

/** Awaitable that resumes the coroutine after @p delay cycles. */
class DelayAwaiter
{
  public:
    DelayAwaiter(EventQueue &eq, Cycles delay) : eq_(eq), delay_(delay) {}

    bool await_ready() const noexcept { return delay_ == 0; }

    void await_suspend(std::coroutine_handle<> h) { eq_.resumeIn(delay_, h); }

    void await_resume() const noexcept {}

  private:
    EventQueue &eq_;
    Cycles delay_;
};

} // namespace prism

#endif // PRISM_SIM_TASK_HH
