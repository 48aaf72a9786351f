/**
 * @file
 * Metric tables: the names behind every counter, histogram and gauge
 * of the run report.
 *
 * A module keeps its counters as plain `std::uint64_t` fields and its
 * latency distributions as `Histogram` fields of a stats struct, and
 * names each field once in a static table beside the struct: name,
 * unit, description and member.  A gauge is a table row that calls a
 * module accessor when it is read.  Hot paths do plain integer adds,
 * and nothing is bound at run time: the machine owns every stats
 * object and walks (where, table, object) in one fixed order
 * (Machine::visitMetrics), so a report, a dump or a snapshot reads the
 * live fields through the rows and builds a name only to print it.
 */

#ifndef PRISM_OBS_METRICS_HH
#define PRISM_OBS_METRICS_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"

namespace prism {

class Machine;

/** Node label for machine-wide (not per-node) metrics. */
constexpr std::int32_t kMachineWide = -1;

/** Lane label of metrics that belong to no processor. */
constexpr std::int32_t kNoLane = -1;

/** A metric's name within its component, its unit and description. */
struct MetricDef {
    const char *name; //!< dotted name within the component
    const char *unit; //!< "count", "cycles", "frames", ...
    const char *desc; //!< one line; "" when the name says it all
};

/**
 * Where a table row is reported, and the row's own MetricDef.  The
 * component is a (short, heap-free) string so that consumers can build
 * keys as `component + "." + name`.
 */
struct MetricLabels {
    std::string component; //!< "ctrl", "kernel", "proc", "net", ...
    std::int32_t node = kMachineWide; //!< node id, or kMachineWide
    std::int32_t lane = kNoLane; //!< processor: names "p<lane>.<name>"
    const char *name = "";
    const char *unit = "";
    const char *desc = "";

    /** The report key: "ctrl.remoteMisses", "proc.p0.loads". */
    std::string key() const;

    /** Canonical flat name: "node3.ctrl.remoteMisses" / "net.messages". */
    std::string fullName() const;
};

/** Receives each metric of a table walk, in table order. */
class MetricVisitor
{
  public:
    virtual void counter(const MetricLabels &, std::uint64_t) {}
    virtual void histogram(const MetricLabels &, const Histogram &) {}
    virtual void gauge(const MetricLabels &, double) {}
};

/** A counter row: the metric and its field in stats struct S. */
template <class S>
struct CounterRow : MetricDef {
    std::uint64_t S::*field;
};

/** A histogram row: the metric and its field in stats struct S. */
template <class S>
struct HistogramRow : MetricDef {
    Histogram S::*field;
};

/** A gauge row: the metric and the accessor of module M it reads. */
template <class M>
struct GaugeRow : MetricDef {
    double (*read)(const M &);
};

template <class S>
void
visitRow(MetricVisitor &v, const MetricLabels &at, const CounterRow<S> &r,
         const S &s)
{
    v.counter(at, s.*r.field);
}

template <class S>
void
visitRow(MetricVisitor &v, const MetricLabels &at,
         const HistogramRow<S> &r, const S &s)
{
    v.histogram(at, s.*r.field);
}

template <class M>
void
visitRow(MetricVisitor &v, const MetricLabels &at, const GaugeRow<M> &r,
         const M &m)
{
    v.gauge(at, r.read(m));
}

/** Visit every row of @p rows, read from @p obj, reported at @p at. */
template <class Row, std::size_t N, class Obj>
void
visitTable(MetricVisitor &v, MetricLabels at, const Row (&rows)[N],
           const Obj &obj)
{
    for (const Row &r : rows) {
        at.name = r.name;
        at.unit = r.unit;
        at.desc = r.desc;
        visitRow(v, at, r, obj);
    }
}

/**
 * True when the rows of @p tables (all of one component's tables)
 * name no metric twice.  Each component static_asserts it beside its
 * last table, so a duplicate full name fails the build.
 */
template <class... Rows, std::size_t... N>
constexpr bool
distinctNames(const Rows (&...tables)[N])
{
    std::array<std::string_view, (N + ...)> names{};
    std::size_t n = 0;
    auto add = [&names, &n](const auto &rows) {
        for (const MetricDef &r : rows)
            names[n++] = r.name;
    };
    (add(tables), ...);
    for (std::size_t i = 0; i < names.size(); ++i) {
        for (std::size_t j = i + 1; j < names.size(); ++j) {
            if (names[i] == names[j])
                return false;
        }
    }
    return true;
}

/**
 * The machine's metric catalog: a view over its stats tables that
 * holds nothing but the machine (Machine::visitMetrics walks them).
 */
class MetricRegistry
{
  public:
    explicit MetricRegistry(const Machine &m) : m_(m) {}

    /** A histogram and where it is reported. */
    struct HistogramEntry {
        MetricLabels labels;
        const Histogram *hist;
        const Histogram &histogram() const { return *hist; }
    };

    /** Every histogram, in catalog order. */
    std::vector<HistogramEntry> histograms() const;

    /** Write "fullName value  # desc" lines, one per counter. */
    void dump(std::ostream &os) const;

  private:
    const Machine &m_;
};

/**
 * Default latency-histogram bucket bounds: powers of two from 16 to
 * 2^22 cycles.  Quantiles interpolated within a bucket are accurate to
 * the bucket width, i.e. at most a factor-of-two relative error (see
 * Histogram::quantile).
 */
std::vector<std::uint64_t> latencyBounds();

} // namespace prism

#endif // PRISM_OBS_METRICS_HH
