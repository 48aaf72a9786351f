/**
 * @file
 * Aggregated metrics of one simulation run, in the units the paper's
 * tables report, and the KV workload's latency table.
 */

#ifndef PRISM_CORE_METRICS_HH
#define PRISM_CORE_METRICS_HH

#include <cstdint>
#include <vector>

#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace prism {

/** Results of one workload run. */
struct RunMetrics {
    /** Execution time of the measured parallel phase (cycles). */
    Tick execCycles = 0;
    /** Wall simulated time of the whole program. */
    Tick totalCycles = 0;

    /** Remote misses during the parallel phase (Tables 4/5). */
    std::uint64_t remoteMisses = 0;
    /** Client page-outs during the parallel phase (Tables 4/5). */
    std::uint64_t clientPageOuts = 0;
    /** Permission-only upgrade transactions in the parallel phase. */
    std::uint64_t upgrades = 0;
    /** Invalidations sent in the parallel phase. */
    std::uint64_t invalidations = 0;
    /** Network messages in the parallel phase. */
    std::uint64_t networkMessages = 0;
    /** Page faults in the parallel phase. */
    std::uint64_t pageFaults = 0;

    /** Real page frames allocated, whole run (Table 3), peak. */
    std::uint64_t framesAllocated = 0;
    /** Average frame utilization, whole run (Table 3). */
    double avgUtilization = 0.0;
    /** Peak client S-COMA frames per node (SCOMA-70 calibration). */
    std::vector<std::uint64_t> clientScomaPeakPerNode;

    /** Loads + stores executed (reference count). */
    std::uint64_t references = 0;
    /** Misdirected-request forwards (migration study). */
    std::uint64_t forwards = 0;
    /** Home migrations completed (migration study). */
    std::uint64_t migrations = 0;
};

/**
 * The KV workload's per-op-type request latencies (component
 * "workload", machine-wide).  The machine owns them and hands them to
 * the workload at setup() (Machine::kvLatency).
 */
struct KvLatency {
    Histogram read{latencyBounds()};
    Histogram update{latencyBounds()};
    Histogram insert{latencyBounds()};
    Histogram scan{latencyBounds()};
};

inline constexpr HistogramRow<KvLatency> kKvLatency[] = {
    {"kv.read.latency", "cycles", "KV read request latency",
     &KvLatency::read},
    {"kv.update.latency", "cycles", "KV update request latency",
     &KvLatency::update},
    {"kv.insert.latency", "cycles", "KV insert request latency",
     &KvLatency::insert},
    {"kv.scan.latency", "cycles", "KV scan request latency",
     &KvLatency::scan},
};

static_assert(distinctNames(kKvLatency));

} // namespace prism

#endif // PRISM_CORE_METRICS_HH
