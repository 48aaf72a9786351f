#include "obs/report.hh"

#include <ctime>
#include <map>
#include <sstream>

#include "core/machine.hh"
#include "policy/page_policy.hh"
#include "obs/json.hh"

namespace prism {

namespace {

std::string
utcNow()
{
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

void
writeValues(JsonWriter &w, const std::vector<RunReport::Value> &vals)
{
    w.beginObject();
    for (const auto &v : vals)
        w.kv(v.name, v.value);
    w.endObject();
}

} // namespace

RunReport
buildRunReport(const Machine &m)
{
    RunReport r;
    r.generatedAt = utcNow();

    const MachineConfig &cfg = m.config();
    r.numNodes = cfg.numNodes;
    r.procsPerNode = cfg.procsPerNode;
    r.policy = enumName(cfg.policy);
    r.protocol = enumName(cfg.protocol);
    r.seed = cfg.seed;
    r.l1Bytes = cfg.l1Bytes;
    r.l2Bytes = cfg.l2Bytes;
    r.lineBytes = cfg.lineBytes;
    r.migrationEnabled = cfg.migrationEnabled;

    r.parallelBeginTick = m.parallelBeginTick();
    r.parallelEndTick = m.parallelEndTick();
    r.metrics = m.metrics();
    r.totalTicks = r.metrics.totalCycles;

    r.nodes.resize(m.numNodes());
    for (std::uint32_t n = 0; n < m.numNodes(); ++n)
        r.nodes[n].id = static_cast<std::int32_t>(n);

    // Counters and gauges land in their node's section (machine-wide
    // counters in their own list); histograms of one (component, name)
    // merge across nodes, in first-appearance order.
    struct Collect : MetricVisitor {
        RunReport &r;
        std::vector<Histogram> merged; //!< parallel to r.histograms
        std::map<std::string, std::size_t> index;
        explicit Collect(RunReport &rep) : r(rep) {}

        std::vector<RunReport::Value> &
        counters(std::int32_t node)
        {
            return node == kMachineWide
                       ? r.machineCounters
                       : r.nodes[static_cast<std::size_t>(node)].counters;
        }
        void
        counter(const MetricLabels &at, std::uint64_t v) override
        {
            counters(at.node).push_back({at.key(), at.unit, v});
        }
        void
        gauge(const MetricLabels &at, double v) override
        {
            r.nodes[static_cast<std::size_t>(at.node)].gauges.push_back(
                {at.key(), at.unit, v});
        }
        void
        histogram(const MetricLabels &at, const Histogram &h) override
        {
            auto [it, fresh] = index.try_emplace(at.key(), merged.size());
            if (!fresh) {
                merged[it->second].merge(h);
                return;
            }
            merged.push_back(h);
            RunReport::HistogramSummary s;
            s.component = at.component;
            s.name = at.name;
            s.unit = at.unit;
            r.histograms.push_back(std::move(s));
        }
    } c(r);
    m.visitMetrics(c);

    for (std::size_t i = 0; i < c.merged.size(); ++i) {
        const Histogram &h = c.merged[i];
        RunReport::HistogramSummary &s = r.histograms[i];
        s.count = h.count();
        s.max = h.max();
        s.mean = h.mean();
        s.p50 = h.quantile(0.50);
        s.p95 = h.quantile(0.95);
        s.p99 = h.quantile(0.99);
        s.bounds = h.bounds();
        s.counts = h.counts();
    }
    return r;
}

void
RunReport::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("schema", "prism.run_report");
    w.kv("schemaVersion", kRunReportSchemaVersion);
    w.kv("generatedAt", std::string_view(generatedAt));

    w.key("config");
    w.beginObject();
    w.kv("numNodes", numNodes);
    w.kv("procsPerNode", procsPerNode);
    w.kv("policy", std::string_view(policy));
    w.kv("protocol", std::string_view(protocol));
    w.kv("seed", seed);
    w.kv("l1Bytes", l1Bytes);
    w.kv("l2Bytes", l2Bytes);
    w.kv("lineBytes", lineBytes);
    w.kv("migrationEnabled", migrationEnabled);
    w.kv("frontend", std::string_view(frontend));
    w.kv("traceWorkload", std::string_view(traceWorkload));
    w.kv("traceOps", traceOps);
    w.endObject();

    w.key("phases");
    w.beginObject();
    w.kv("parallelBeginTick", parallelBeginTick);
    w.kv("parallelEndTick", parallelEndTick);
    w.kv("totalTicks", totalTicks);
    w.endObject();

    w.key("metrics");
    w.beginObject();
    w.kv("execCycles", metrics.execCycles);
    w.kv("totalCycles", metrics.totalCycles);
    w.kv("remoteMisses", metrics.remoteMisses);
    w.kv("clientPageOuts", metrics.clientPageOuts);
    w.kv("upgrades", metrics.upgrades);
    w.kv("invalidations", metrics.invalidations);
    w.kv("networkMessages", metrics.networkMessages);
    w.kv("pageFaults", metrics.pageFaults);
    w.kv("framesAllocated", metrics.framesAllocated);
    w.kv("avgUtilization", metrics.avgUtilization);
    w.kv("references", metrics.references);
    w.kv("forwards", metrics.forwards);
    w.kv("migrations", metrics.migrations);
    w.key("clientScomaPeakPerNode");
    w.beginArray();
    for (std::uint64_t v : metrics.clientScomaPeakPerNode)
        w.value(v);
    w.endArray();
    w.endObject();

    w.key("machineCounters");
    writeValues(w, machineCounters);

    w.key("nodes");
    w.beginArray();
    for (const auto &n : nodes) {
        w.beginObject();
        w.kv("id", n.id);
        w.key("counters");
        writeValues(w, n.counters);
        w.key("gauges");
        w.beginObject();
        for (const auto &g : n.gauges)
            w.kv(g.name, g.value);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("histograms");
    w.beginArray();
    for (const auto &h : histograms) {
        w.beginObject();
        w.kv("component", std::string_view(h.component));
        w.kv("name", std::string_view(h.name));
        w.kv("unit", std::string_view(h.unit));
        w.kv("count", h.count);
        w.kv("max", h.max);
        w.kv("mean", h.mean);
        w.kv("p50", h.p50);
        w.kv("p95", h.p95);
        w.kv("p99", h.p99);
        w.key("bounds");
        w.beginArray();
        for (std::uint64_t b : h.bounds)
            w.value(b);
        w.endArray();
        w.key("counts");
        w.beginArray();
        for (std::uint64_t c : h.counts)
            w.value(c);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
}

void
RunReport::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    writeJson(w);
    os << "\n";
}

std::string
RunReport::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace prism
