/**
 * @file
 * Structured run reports: a schema-versioned, machine-readable record
 * of one simulation run, read through the modules' metric tables
 * (obs/metrics.hh; no hand-copied counter fields).
 *
 * A report carries the machine configuration, the phase timeline, the
 * paper-table metrics, every table's counters broken down per node,
 * gauges read when the report is built, and per-transaction-type
 * latency histograms merged across nodes with p50/p95/p99 quantiles.
 * writeJson() emits a deterministic JSON document (see
 * docs/OBSERVABILITY.md for the schema); bump kRunReportSchemaVersion
 * on any shape change.
 */

#ifndef PRISM_OBS_REPORT_HH
#define PRISM_OBS_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "sim/types.hh"

namespace prism {

class Machine;
class JsonWriter;

/** Bump on ANY change to the JSON shape (keys added/removed/moved). */
constexpr int kRunReportSchemaVersion = 4;

/** Everything the JSON run report contains, in exporter-ready form. */
struct RunReport {
    std::string generatedAt; //!< wall-clock UTC, ISO 8601

    // --- Machine configuration summary ---------------------------------
    std::uint32_t numNodes = 0;
    std::uint32_t procsPerNode = 0;
    std::string policy;
    std::string protocol; //!< line-protocol scheme (msi|mesi|moesi|mesif)
    std::uint64_t seed = 0;
    std::uint32_t l1Bytes = 0;
    std::uint32_t l2Bytes = 0;
    std::uint32_t lineBytes = 0;
    bool migrationEnabled = false;

    // --- Frontend provenance (docs/TRACE.md) ----------------------------
    std::string frontend = "exec"; //!< exec | record | replay
    std::string traceWorkload;     //!< trace header name (record/replay)
    std::uint64_t traceOps = 0;    //!< recorded/replayed op count

    // --- Phase timeline -------------------------------------------------
    Tick parallelBeginTick = 0;
    Tick parallelEndTick = 0;
    Tick totalTicks = 0;

    /** The paper-table metrics (Machine::metrics). */
    RunMetrics metrics;

    /** One named value ("component.name" flat key). */
    struct Value {
        std::string name;
        std::string unit;
        std::uint64_t value = 0;
    };

    struct GaugeValue {
        std::string name;
        std::string unit;
        double value = 0.0;
    };

    /** Counters and gauges of one node, catalog order. */
    struct NodeSection {
        std::int32_t id = 0;
        std::vector<Value> counters;
        std::vector<GaugeValue> gauges;
    };

    /** Machine-wide (non-per-node) counters. */
    std::vector<Value> machineCounters;
    std::vector<NodeSection> nodes;

    /** A histogram merged across all nodes of one (component, name). */
    struct HistogramSummary {
        std::string component;
        std::string name;
        std::string unit;
        std::uint64_t count = 0;
        std::uint64_t max = 0;
        double mean = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
        std::vector<std::uint64_t> bounds;
        std::vector<std::uint64_t> counts;
    };

    std::vector<HistogramSummary> histograms;

    /** Emit the full JSON document (object at current writer position). */
    void writeJson(JsonWriter &w) const;

    /** Emit the full JSON document to @p os. */
    void writeJson(std::ostream &os) const;

    /** The JSON document as a string. */
    std::string toJson() const;
};

/**
 * Snapshot @p m 's metric tables, configuration and phase marks into
 * a report.  Call while the machine is alive (typically right after
 * the run completes).
 */
RunReport buildRunReport(const Machine &m);

} // namespace prism

#endif // PRISM_OBS_REPORT_HH
