/**
 * @file
 * KV skew ablation: the partitioned KV store swept over
 * mix x skew x page-mode policy.  Each (mix, theta) variant runs the
 * standard six-policy sweep (SCOMA calibration sizing the page
 * caches, docs/PERFORMANCE.md section 1) and the table reports the
 * read/scan p99 latency per policy — the serving-tail view of where
 * S-COMA page caches stop paying as the Zipfian head sharpens.
 *
 * Restrict the grid with --kv-mix/--kv-theta; size the store with
 * --kv-keys/--kv-requests (defaults come from the scale preset).
 * Results land in EXPERIMENTS.md ("KV skew ablation").
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workload/kvstore.hh"

namespace {

using namespace prism;

/** Variant tag usable inside a filename: "A-z99", "B-u", ... */
std::string
variantTag(KvMix mix, double theta)
{
    std::string tag = enumName(mix);
    if (theta == 0.0) {
        tag += "-u";
    } else {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "-z%02d",
                      static_cast<int>(theta * 100.0 + 0.5));
        tag += buf;
    }
    return tag;
}

/** p99 of the (workload, @p name) histogram in @p r; -1 if absent. */
double
histP99(const RunReport &r, const char *name)
{
    for (const auto &h : r.histograms) {
        if (h.component == "workload" && h.name == name)
            return h.count ? h.p99 : -1.0;
    }
    return -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace prism::bench;

    const BenchOptions opts = BenchOptions::parse(argc, argv);

    std::vector<KvMix> mixes = {KvMix::A, KvMix::B, KvMix::C,
                                KvMix::D, KvMix::E};
    if (!opts.kvMix.empty())
        mixes = {parseKnobEnum<KvMix>("PRISM_KV_MIX", opts.kvMix.c_str())};
    std::vector<double> thetas = {0.0, 0.6, 0.9, 0.99};
    if (opts.kvTheta >= 0.0)
        thetas = {opts.kvTheta};

    KvStoreWorkload::Params base_params = kvParamsFor(opts.scale);
    if (opts.kvKeys)
        base_params.keys = opts.kvKeys;
    if (opts.kvRequests)
        base_params.requests = opts.kvRequests;

    std::vector<AppSpec> variants;
    for (KvMix mix : mixes) {
        for (double theta : thetas) {
            KvStoreWorkload::Params p = base_params;
            p.mix = mix;
            p.theta = theta;
            variants.push_back(AppSpec{
                "KV-" + variantTag(mix, theta),
                [p] { return std::make_unique<KvStoreWorkload>(p); }});
        }
    }

    if (opts.list) {
        printInventory(opts, variants, "# kv_sweep variants", "Variant");
        return 0;
    }

    banner("KV skew ablation — mix x skew x page-mode policy", opts);

    const auto policies = paperPolicies();
    printPolicyHeader("Variant", policies,
                      "(read/scan p99 cycles; exec rel. SCOMA in "
                      "parentheses)");
    const auto results = runSweepsParallel(opts.sweep(policies), variants);

    for (std::size_t v = 0; v < variants.size(); ++v) {
        const ExperimentResult *row = &results[v * policies.size()];
        const double scoma =
            static_cast<double>(row[0].metrics.execCycles);
        std::printf("%-12s", variants[v].name.c_str());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            // Mix E has no point reads; fall back to the scan tail.
            double p99 = histP99(row[p].report, "kv.read.latency");
            if (p99 < 0)
                p99 = histP99(row[p].report, "kv.scan.latency");
            const double rel =
                static_cast<double>(row[p].metrics.execCycles) /
                scoma;
            std::printf(" %7.0f(%4.2f)", p99 < 0 ? 0.0 : p99, rel);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("\n# Reading the table: a capped page cache "
                "(SCOMA-70) is hurt worst under\n# *uniform* load — "
                "the working set is the whole keyspace and every "
                "miss\n# thrashes the cap.  As theta sharpens the hot "
                "head shrinks into the cap\n# and its p99 recovers; "
                "uncapped SCOMA and the adaptive policies track\n# "
                "each other throughout.\n");
    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "kv_sweep", opts, results);
    return 0;
}
