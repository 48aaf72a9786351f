/**
 * @file
 * The phase-scoped counters, and a tick-tagged increment log for them
 * that feeds the parallel-phase snapshots (Machine::recordMark).
 *
 * Under the sharded scheduler (sim/shard.hh) a mark can land mid-
 * window: by the time the coordinator applies it, other shards have
 * already executed events past the mark tick and bumped their
 * counters.  Each shard therefore logs (tick, kind) for every
 * increment of a snapshot-relevant counter, and the coordinator
 * reconstructs "counter value as of tick t" by subtracting the logged
 * increments that sequential execution would have ordered after the
 * mark.  The log is empty and untouched in sequential mode, where a
 * mark is applied as it is issued.
 */

#ifndef PRISM_SIM_SNAP_LOG_HH
#define PRISM_SIM_SNAP_LOG_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace prism {

/**
 * The phase-scoped counters (RunMetrics' per-phase deltas), each a
 * stats field summed over nodes (Machine::phaseCounts).
 */
enum class SnapKind : std::uint8_t {
    RemoteMiss,
    Upgrade,
    InvalSent,
    ClientPageOut,
    Fault,
    NetMsg,
};

/** Number of SnapKind values (array sizing). */
inline constexpr std::size_t kSnapKinds = 6;

/** Per-shard log of snapshot-counter increments, in execution order. */
struct SnapshotLog {
    struct Entry {
        Tick tick;
        SnapKind kind;
    };

    std::vector<Entry> entries;

    void record(Tick t, SnapKind k) { entries.push_back(Entry{t, k}); }

    /**
     * Per-kind totals of logged increments at @p at or later (the
     * increments a mark at tick @p at must not see from other shards).
     */
    void
    tallyAtOrAfter(Tick at, std::uint64_t (&out)[kSnapKinds]) const
    {
        for (const Entry &e : entries) {
            if (e.tick >= at)
                ++out[static_cast<std::size_t>(e.kind)];
        }
    }

    void clear() { entries.clear(); }
};

} // namespace prism

#endif // PRISM_SIM_SNAP_LOG_HH
