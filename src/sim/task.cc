#include "sim/task.hh"

namespace prism {
namespace frame_pool {

namespace {

/** Hands a thread's retained frames back to the heap at its exit. */
struct ExitDrain {
    ~ExitDrain()
    {
        Cache &fc = cache();
        fc.state = Cache::Closed;
        for (std::size_t c = 0; c < kClasses; ++c) {
            while (void *p = fc.head[c]) {
                unpoison(p, (c + 1) * kGrain);
                fc.head[c] = *static_cast<void **>(p);
                ::operator delete(p);
            }
            fc.tail[c] = nullptr;
        }
        fc.retained = 0;
    }
};

} // namespace

void
arm() noexcept
{
    static thread_local ExitDrain drain;
    (void)drain;
    cache().state = Cache::Armed;
}

} // namespace frame_pool
} // namespace prism
