/**
 * @file
 * Fixed-size ring buffer of recent simulation events.
 *
 * Machine::route records every network message here, oracle or not
 * (one ring per shard), and the protocol oracle replays the tail to
 * stderr when it reports an invariant violation.  The ring is bounded
 * and written with plain stores, so recording adds only a few cycles
 * per message.
 */

#ifndef PRISM_SIM_TRACE_HH
#define PRISM_SIM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace prism {

/** One recorded event. */
struct TraceEvent {
    Tick tick = 0;
    std::uint64_t gpage = 0;
    std::uint32_t lineIdx = 0;
    std::uint16_t kind = 0; //!< caller-defined discriminator (MsgType)
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
};

/** Bounded history of TraceEvents; old entries are overwritten. */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity = 256)
        : ring_(capacity)
    {
    }

    void
    push(const TraceEvent &e)
    {
        ring_[next_ % ring_.size()] = e;
        ++next_;
    }

    /** Total events ever recorded. */
    std::uint64_t recorded() const { return next_; }

    /** Number of events currently held (<= capacity). */
    std::size_t
    size() const
    {
        return next_ < ring_.size() ? static_cast<std::size_t>(next_)
                                    : ring_.size();
    }

    /**
     * @p i-th most recent event, i in [0, size()): 0 is the newest.
     */
    const TraceEvent &
    recent(std::size_t i) const
    {
        return ring_[(next_ - 1 - i) % ring_.size()];
    }

  private:
    std::vector<TraceEvent> ring_;
    std::uint64_t next_ = 0;
};

} // namespace prism

#endif // PRISM_SIM_TRACE_HH
