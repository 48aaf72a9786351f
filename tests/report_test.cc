/**
 * @file
 * Run-report exporter tests: golden key-path schema, byte-level
 * determinism, Chrome-trace emission via PRISM_TRACE, and content
 * sanity (registry-derived counters, quantile ordering).
 *
 * The golden file pins the full set of JSON key paths (including the
 * registered counter names).  On an intentional schema change, bump
 * kRunReportSchemaVersion and regenerate with
 * PRISM_UPDATE_GOLDEN=1 ./report_test.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "sim/stats.hh"
#include "obs/report.hh"
#include "obs/trace_sink.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0x0B5;

MachineConfig
testCfg()
{
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    return cfg;
}

/** A small cross-node workload: misses, upgrades and page-ins. */
void
runTraffic(Machine &m, std::uint64_t gsid)
{
    (void)gsid;
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            auto va = [](std::uint64_t pnum, std::uint64_t off) {
                return makeVAddr(kSharedVsid, pnum, off);
            };
            if (pp.id() == 0)
                co_await pp.write(va(0, 0));
            co_await pp.barrier(1);
            if (pp.id() == 1) {
                for (std::uint64_t l = 0; l < 8; ++l)
                    co_await pp.read(va(0, l * 64));
                co_await pp.write(va(0, 0)); // upgrade
                co_await pp.read(va(2, 0));  // another page-in
            }
        }(p);
    });
}

RunReport
makeReport()
{
    Machine m(testCfg());
    std::uint64_t gsid = m.shmget(kKey, 16 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    runTraffic(m, gsid);
    return m.report();
}

/**
 * Extract every JSON key path from a document emitted by JsonWriter.
 * Array hops render as "[]" glued to the parent key, so an element of
 * the histograms array contributes paths like "histograms[].p50".
 */
std::set<std::string>
keyPaths(const std::string &json)
{
    std::set<std::string> out;
    std::vector<std::string> path; // one element per open container
    std::string pending;           // key awaiting its value
    bool have_pending = false;

    auto joined = [&](const std::string &leaf) {
        std::string acc;
        for (const std::string &c : path) {
            if (c == "[]")
                acc += "[]";
            else if (acc.empty())
                acc = c;
            else
                acc += "." + c;
        }
        if (!leaf.empty())
            acc += (acc.empty() ? "" : ".") + leaf;
        return acc;
    };

    std::size_t i = 0;
    std::vector<char> containers; // '{' or '['
    while (i < json.size()) {
        char c = json[i];
        if (c == '"') {
            std::string s;
            ++i;
            while (i < json.size() && json[i] != '"') {
                if (json[i] == '\\')
                    ++i;
                s += json[i++];
            }
            ++i; // closing quote
            std::size_t j = i;
            while (j < json.size() &&
                   (json[j] == ' ' || json[j] == '\n'))
                ++j;
            if (j < json.size() && json[j] == ':') {
                out.insert(joined(s));
                pending = s;
                have_pending = true;
                i = j + 1;
            }
            continue;
        }
        if (c == '{' || c == '[') {
            containers.push_back(c);
            if (have_pending) {
                path.push_back(pending);
                have_pending = false;
            } else if (containers.size() >= 2 &&
                       containers[containers.size() - 2] == '[') {
                path.push_back("[]");
            } else {
                path.push_back(""); // root
            }
        } else if (c == '}' || c == ']') {
            containers.pop_back();
            path.pop_back();
        }
        ++i;
    }
    return out;
}

std::string
stripGeneratedAt(std::string json)
{
    std::size_t pos = json.find("\"generatedAt\": \"");
    if (pos == std::string::npos)
        return json;
    std::size_t start = pos + 16;
    std::size_t end = json.find('"', start);
    return json.substr(0, start) + json.substr(end);
}

TEST(Report, GoldenKeyPaths)
{
    const std::string golden_path =
        std::string(PRISM_SOURCE_DIR) +
        "/tests/golden/run_report_keys.txt";
    const RunReport r = makeReport();
    const std::set<std::string> got = keyPaths(r.toJson());

    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        std::ofstream os(golden_path);
        for (const std::string &k : got)
            os << k << "\n";
        GTEST_SKIP() << "golden regenerated: " << golden_path;
    }

    std::ifstream is(golden_path);
    ASSERT_TRUE(is.good()) << "missing golden file " << golden_path;
    std::set<std::string> want;
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty())
            want.insert(line);
    }
    for (const std::string &k : want) {
        EXPECT_TRUE(got.count(k))
            << "key path missing from report: " << k;
    }
    for (const std::string &k : got) {
        EXPECT_TRUE(want.count(k))
            << "unexpected key path in report (schema change? bump "
               "kRunReportSchemaVersion and regenerate): "
            << k;
    }
}

TEST(Report, SchemaHeaderAndVersion)
{
    const RunReport r = makeReport();
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"schema\": \"prism.run_report\""),
              std::string::npos);
    std::ostringstream version_frag;
    version_frag << "\"schemaVersion\": " << kRunReportSchemaVersion;
    EXPECT_NE(json.find(version_frag.str()), std::string::npos);
}

TEST(Report, SameSeedRunsAreByteIdentical)
{
    const std::string a = stripGeneratedAt(makeReport().toJson());
    const std::string b = stripGeneratedAt(makeReport().toJson());
    EXPECT_EQ(a, b);
}

TEST(Report, CountersAreRegistryDerivedPerNode)
{
    Machine m(testCfg());
    std::uint64_t gsid = m.shmget(kKey, 16 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    runTraffic(m, gsid);
    RunReport r = m.report();

    ASSERT_EQ(r.nodes.size(), 2u);
    EXPECT_EQ(r.numNodes, 2u);
    // RunMetrics fields must agree with the per-node counter sections
    // they are derived from (no hand-copied counters).
    std::uint64_t misses = 0, faults = 0;
    for (const auto &node : r.nodes) {
        for (const auto &v : node.counters) {
            if (v.name == "ctrl.remoteMisses")
                misses += v.value;
            if (v.name == "kernel.faults")
                faults += v.value;
        }
    }
    EXPECT_EQ(misses, r.metrics.remoteMisses);
    EXPECT_EQ(faults, r.metrics.pageFaults);
    EXPECT_GT(misses, 0u);

    bool net_messages = false;
    for (const auto &v : r.machineCounters) {
        if (v.name == "net.messages") {
            net_messages = true;
            EXPECT_EQ(v.value, r.metrics.networkMessages);
        }
    }
    EXPECT_TRUE(net_messages);
}

TEST(Report, LatencyQuantilesAreOrdered)
{
    const RunReport r = makeReport();
    bool sampled = false;
    for (const auto &h : r.histograms) {
        if (h.count == 0)
            continue;
        sampled = true;
        EXPECT_LE(h.p50, h.p95) << h.name;
        EXPECT_LE(h.p95, h.p99) << h.name;
        EXPECT_GT(h.mean, 0.0) << h.name;
        EXPECT_EQ(h.bounds.size() + 1, h.counts.size()) << h.name;
    }
    EXPECT_TRUE(sampled);
    // The traffic above produces 2-party reads and page-ins.
    auto count_of = [&](const char *name) -> std::uint64_t {
        for (const auto &h : r.histograms) {
            if (h.name == name)
                return h.count;
        }
        return 0;
    };
    EXPECT_GT(count_of("latency.read2"), 0u);
    EXPECT_GT(count_of("latency.pageIn"), 0u);
    EXPECT_GT(count_of("latency.upgrade"), 0u);
}

TEST(Report, PrismTraceWritesChromeTraceJson)
{
    const std::string path = "report_test_trace.json";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("PRISM_TRACE", path.c_str(), 1), 0);
    {
        Machine m(testCfg());
        std::uint64_t gsid = m.shmget(kKey, 16 * kPageBytes);
        m.shmatAll(kSharedVsid, gsid);
        runTraffic(m, gsid);
    } // ~Machine writes the trace
    unsetenv("PRISM_TRACE");

    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << "trace file not written";
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string trace = ss.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"read2\""), std::string::npos);
    EXPECT_NE(trace.find("process_name"), std::string::npos);
    std::remove(path.c_str());
}

// --- Histogram edge cases (regressions) -----------------------------
//
// An empty or single-sample histogram used to interpolate across the
// whole open-ended top bucket: quantile() could return garbage far
// above any observed sample (or NaN from 0/0 bucket math), and
// merge() asserted on shape even when one side was empty — which an
// all-read KV mix produces legitimately for its update/insert/scan
// histograms.

std::vector<std::uint64_t>
testBounds()
{
    return {10, 100, 1000};
}

TEST(HistogramEdge, EmptyHistogramQuantilesAreZeroNotNaN)
{
    const Histogram h(testBounds());
    EXPECT_EQ(h.count(), 0u);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_EQ(v, 0.0) << "q=" << q;
        EXPECT_FALSE(std::isnan(v)) << "q=" << q;
    }
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramEdge, SingleSampleReportsItselfAtEveryQuantile)
{
    Histogram h(testBounds());
    h.sample(42);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 42.0) << "q=" << q;

    // Single sample in the open-ended top bucket: clamping to
    // [min, max] is what keeps p99 from running off to infinity.
    Histogram top(testBounds());
    top.sample(5000);
    EXPECT_EQ(top.quantile(0.99), 5000.0);
    EXPECT_EQ(top.quantile(0.50), 5000.0);
}

TEST(HistogramEdge, QuantileNeverExceedsObservedRange)
{
    Histogram h(testBounds());
    h.sample(3);
    h.sample(7);
    h.sample(2000);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        const double v = h.quantile(q);
        EXPECT_GE(v, static_cast<double>(h.min())) << "q=" << q;
        EXPECT_LE(v, static_cast<double>(h.max())) << "q=" << q;
    }
}

TEST(HistogramEdge, MergeWithEmptySideIsSafe)
{
    Histogram filled(testBounds());
    filled.sample(50);
    filled.sample(500);

    // Empty RHS: no-op, even with different (here: no) bounds.
    Histogram empty_other{std::vector<std::uint64_t>{}};
    filled.merge(empty_other);
    EXPECT_EQ(filled.count(), 2u);
    EXPECT_EQ(filled.max(), 500u);

    // Empty LHS of a different shape: wholesale adoption.
    Histogram empty_lhs{std::vector<std::uint64_t>{}};
    empty_lhs.merge(filled);
    EXPECT_EQ(empty_lhs.count(), 2u);
    EXPECT_EQ(empty_lhs.min(), 50u);
    EXPECT_EQ(empty_lhs.max(), 500u);
    EXPECT_EQ(empty_lhs.quantile(0.99), filled.quantile(0.99));

    // Empty-empty merge: still empty, still quantile-safe.
    Histogram a{std::vector<std::uint64_t>{}};
    Histogram b(testBounds());
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.quantile(0.99), 0.0);
}

TEST(HistogramEdge, MergeTracksMinAcrossSides)
{
    Histogram a(testBounds());
    a.sample(200);
    Histogram b(testBounds());
    b.sample(5);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 200u);
    EXPECT_GE(a.quantile(0.01), 5.0);
}

TEST(Report, MessageRingRecordsRecentTraffic)
{
    Machine m(testCfg());
    std::uint64_t gsid = m.shmget(kKey, 16 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    runTraffic(m, gsid);
    const TraceRing &ring = m.messageRing();
    EXPECT_GT(ring.recorded(), 0u);
    EXPECT_GT(ring.size(), 0u);

    // Past 255 nodes the ring keeps whole node ids: the highest nodes
    // read a shared page, so their requests and replies name them.
    MachineConfig cfg = testCfg();
    cfg.numNodes = 260;
    Machine wide(cfg);
    wide.shmatAll(kSharedVsid, wide.shmget(kKey, 4 * kPageBytes));
    wide.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            if (pp.id() >= 250)
                co_await pp.read(makeVAddr(kSharedVsid, 0, 0));
        }(p);
    });
    const TraceRing &wring = wide.messageRing();
    ASSERT_GT(wring.size(), 0u);
    bool high = false;
    for (std::size_t i = 0; i < wring.size(); ++i) {
        const TraceEvent &e = wring.recent(i);
        EXPECT_LT(e.src, cfg.numNodes);
        EXPECT_LT(e.dst, cfg.numNodes);
        high = high || e.src >= 256 || e.dst >= 256;
    }
    EXPECT_TRUE(high) << "no node id >= 256 in the message ring";
}

} // namespace
} // namespace prism
