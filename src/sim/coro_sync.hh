/**
 * @file
 * Coroutine synchronization primitives for protocol code.
 *
 * CoMutex serializes coroutines (the home node's per-line busy bit +
 * FIFO pending queue), CoLatch waits for a set of completions (e.g.
 * invalidation acknowledgements), and CoEvent is a single-shot signal.
 * Wakeups are funneled through the event queue at the current tick to
 * keep resumption order deterministic and stacks shallow; each is a
 * wake-up key (EventQueue::resumeIn), not a closure.
 */

#ifndef PRISM_SIM_CORO_SYNC_HH
#define PRISM_SIM_CORO_SYNC_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace prism {

/**
 * FIFO mutex for coroutines.  The wait queue is intrusive: each
 * waiter's link lives in its own awaiter, which sits in the suspended
 * coroutine's frame, so neither an idle nor a contended mutex ever
 * allocates.
 */
class CoMutex
{
    struct Waiter {
        std::coroutine_handle<> h = {};
        Waiter *next = nullptr;
    };

  public:
    explicit CoMutex(EventQueue &eq) : eq_(&eq) {}

    /** Movable while idle only, so that mutexes can fill a vector. */
    CoMutex(CoMutex &&o) noexcept : eq_(o.eq_)
    {
        prism_assert(!o.held_ && !o.head_, "moving a busy CoMutex");
    }

    CoMutex(const CoMutex &) = delete;
    CoMutex &operator=(const CoMutex &) = delete;
    CoMutex &operator=(CoMutex &&) = delete;

    /** Awaitable acquire; resumes in FIFO order. */
    auto
    acquire()
    {
        struct Awaiter : Waiter {
            CoMutex &m;

            explicit Awaiter(CoMutex &mm) : m(mm) {}

            bool
            await_ready()
            {
                if (!m.held_) {
                    m.held_ = true;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> handle)
            {
                h = handle;
                if (m.tail_)
                    m.tail_->next = this;
                else
                    m.head_ = this;
                m.tail_ = this;
                ++m.queued_;
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    /** Release; the next waiter (if any) resumes at the current tick. */
    void
    release()
    {
        prism_assert(held_, "releasing an unheld CoMutex");
        Waiter *w = head_;
        if (!w) {
            held_ = false;
            return;
        }
        head_ = w->next;
        if (!head_)
            tail_ = nullptr;
        --queued_;
        // Ownership transfers directly to the next waiter.
        eq_->resumeIn(0, w->h);
    }

    bool held() const { return held_; }
    std::size_t queued() const { return queued_; }

  private:
    EventQueue *eq_;
    Waiter *head_ = nullptr;
    Waiter *tail_ = nullptr;
    std::uint32_t queued_ = 0;
    bool held_ = false;
};

/** Single-shot event: one waiter, one signal. */
class CoEvent
{
  public:
    explicit CoEvent(EventQueue &eq) : eq_(eq) {}

    auto
    wait()
    {
        struct Awaiter {
            CoEvent &e;

            bool await_ready() const { return e.signaled_; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                prism_assert(!e.waiter_, "CoEvent supports one waiter");
                e.waiter_ = h;
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    void
    signal()
    {
        signaled_ = true;
        if (waiter_) {
            eq_.resumeIn(0, std::exchange(waiter_, {}));
        }
    }

    bool signaled() const { return signaled_; }

    void
    reset()
    {
        prism_assert(!waiter_, "resetting a CoEvent with a waiter");
        signaled_ = false;
    }

  private:
    EventQueue &eq_;
    bool signaled_ = false;
    std::coroutine_handle<> waiter_ = {};
};

/**
 * Completion latch: wait until @c expect() arrivals have occurred.
 * The expected count may grow while waiting (acks whose number is
 * only learned from the data reply).
 */
class CoLatch
{
  public:
    explicit CoLatch(EventQueue &eq) : eq_(eq) {}

    /** Increase the number of arrivals to wait for. */
    void expect(std::uint32_t n) { expected_ += n; maybeRelease(); }

    /** Record one arrival. */
    void arrive() { ++arrived_; maybeRelease(); }

    /**
     * Mark the expected count as final; the latch can only release
     * once armed (prevents spurious release at 0/0 before the reply
     * announcing the ack count arrives).
     */
    void arm() { armed_ = true; maybeRelease(); }

    auto
    wait()
    {
        struct Awaiter {
            CoLatch &l;

            bool await_ready() const { return l.open_; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                prism_assert(!l.waiter_, "CoLatch supports one waiter");
                l.waiter_ = h;
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    std::uint32_t arrived() const { return arrived_; }
    std::uint32_t expectedCount() const { return expected_; }

  private:
    void
    maybeRelease()
    {
        if (!open_ && armed_ && arrived_ >= expected_) {
            open_ = true;
            if (waiter_) {
                eq_.resumeIn(0, std::exchange(waiter_, {}));
            }
        }
    }

    EventQueue &eq_;
    std::uint32_t expected_ = 0;
    std::uint32_t arrived_ = 0;
    bool armed_ = false;
    bool open_ = false;
    std::coroutine_handle<> waiter_ = {};
};

} // namespace prism

#endif // PRISM_SIM_CORO_SYNC_HH
