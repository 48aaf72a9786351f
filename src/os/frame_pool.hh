/**
 * @file
 * Per-mode page frame pools (paper Section 3.3).
 *
 * The OS maintains a pool of free page frames for each mode.  Real
 * frames consume node memory; imaginary frames (LA-NUMA) are just
 * numbers in a disjoint range and back no memory, so only real-frame
 * statistics feed the paper's memory-consumption tables.
 */

#ifndef PRISM_OS_FRAME_POOL_HH
#define PRISM_OS_FRAME_POOL_HH

#include <cstdint>
#include <vector>

#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace prism {

/** A frame allocator over a contiguous range of frame numbers. */
class FramePool
{
  public:
    /**
     * @param base      first frame number served by this pool
     * @param capacity  maximum live frames (0 = unbounded)
     */
    explicit FramePool(FrameNum base, std::uint64_t capacity = 0)
        : base_(base), capacity_(capacity), next_(base)
    {
    }

    /** Allocate a frame; kInvalidFrame if the pool is exhausted. */
    FrameNum
    alloc()
    {
        if (capacity_ && live_ >= capacity_)
            return kInvalidFrame;
        FrameNum f;
        if (!free_.empty()) {
            f = free_.back();
            free_.pop_back();
        } else {
            f = next_++;
        }
        ++live_;
        ++cumulative_;
        if (live_ > peak_)
            peak_ = live_;
        return f;
    }

    /** Return a frame to the pool. */
    void
    release(FrameNum f)
    {
        prism_assert(live_ > 0, "releasing into an empty pool");
        --live_;
        free_.push_back(f);
    }

    /** Frames currently allocated. */
    std::uint64_t live() const { return live_; }

    /** Highest concurrent allocation seen. */
    std::uint64_t peak() const { return peak_; }

    /** Total allocations ever made. */
    std::uint64_t cumulative() const { return cumulative_; }

    std::uint64_t capacity() const { return capacity_; }

  private:
    FrameNum base_;
    std::uint64_t capacity_;
    FrameNum next_;
    std::vector<FrameNum> free_;
    std::uint64_t live_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t cumulative_ = 0;
};

} // namespace prism

#endif // PRISM_OS_FRAME_POOL_HH
