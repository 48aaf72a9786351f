/**
 * @file
 * Figure 7 reproduction: execution time of the eight SPLASH-like
 * applications under the six page-mode configurations, normalized to
 * SCOMA (paper Section 4.3).  The same runs then print Tables 3, 4
 * and 5: page frames and utilization (SCOMA, LANUMA), remote misses
 * and SCOMA-70 page-outs (static configs), and remote misses and
 * page-outs under the adaptive configs.  `--list` prints the Table 2
 * application inventory instead.
 *
 * Methodology: for each application a SCOMA calibration run sizes the
 * page cache; SCOMA-70 and the adaptive policies cap each node's
 * client S-COMA frames at 70% of the calibrated per-node maximum.
 */

#include <cstdio>

#include "bench_util.hh"

namespace prism {
namespace {

/** Column of each paper policy in a sweep row (paperPolicies()). */
enum Col { kScoma, kLaNuma, kScoma70, kDynFcfs, kDynUtil, kDynLru };

unsigned long long
remote(const ExperimentResult *row, Col c)
{
    return row[c].metrics.remoteMisses;
}

unsigned long long
pageOuts(const ExperimentResult *row, Col c)
{
    return row[c].metrics.clientPageOuts;
}

/** Tables 3, 4 and 5 from the Figure 7 runs, one row per app. */
void
printTables(const std::vector<AppSpec> &apps,
            const std::vector<ExperimentResult> &results)
{
    const std::size_t width = paperPolicies().size();
    auto row = [&](std::size_t a) { return &results[a * width]; };

    std::printf("\n# Table 3 — page consumption and utilization "
                "statistics\n\n");
    std::printf("%-12s %12s %12s %14s %14s\n", "Application", "SCOMA",
                "LANUMA", "SCOMA util", "LANUMA util");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const RunMetrics &s = row(a)[kScoma].metrics;
        const RunMetrics &l = row(a)[kLaNuma].metrics;
        std::printf("%-12s %12llu %12llu %14.3f %14.3f\n",
                    apps[a].name.c_str(),
                    static_cast<unsigned long long>(s.framesAllocated),
                    static_cast<unsigned long long>(l.framesAllocated),
                    s.avgUtilization, l.avgUtilization);
    }
    std::printf("\n# Paper's shape: SCOMA allocates several times more "
                "frames than LANUMA (client\n# page-cache copies) and "
                "has lower utilization (sparsely used replicated "
                "pages).\n");

    std::printf("\n# Table 4 — remote misses (static configs) and "
                "SCOMA-70 page-outs\n\n");
    std::printf("%-12s %12s %12s %12s %12s\n", "Application", "SCOMA",
                "LANUMA", "SCOMA-70", "PageOuts-70");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::printf("%-12s %12llu %12llu %12llu %12llu\n",
                    apps[a].name.c_str(), remote(row(a), kScoma),
                    remote(row(a), kLaNuma), remote(row(a), kScoma70),
                    pageOuts(row(a), kScoma70));
    }
    std::printf("\n# Paper's shape: LANUMA suffers many times more "
                "remote misses than SCOMA on\n# capacity-bound apps; "
                "SCOMA-70 sits between them but pays page-outs.\n");

    std::printf("\n# Table 5 — remote misses and page-outs, adaptive "
                "configs\n\n");
    std::printf("%-12s | %10s %10s %10s | %9s %9s\n", "Application",
                "Dyn-FCFS", "Dyn-Util", "Dyn-LRU", "PO-Util", "PO-LRU");
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::printf("%-12s | %10llu %10llu %10llu | %9llu %9llu\n",
                    apps[a].name.c_str(), remote(row(a), kDynFcfs),
                    remote(row(a), kDynUtil), remote(row(a), kDynLru),
                    pageOuts(row(a), kDynUtil), pageOuts(row(a), kDynLru));
    }
    std::printf("\n# Paper's shape: the adaptive configurations cut "
                "remote misses well below\n# LANUMA and page-outs far "
                "below SCOMA-70 (Dyn-FCFS has none at all).\n");
}

} // namespace
} // namespace prism

int
main(int argc, char **argv)
{
    using namespace prism;
    using namespace prism::bench;

    const BenchOptions opts = BenchOptions::parse(argc, argv);
    if (opts.list) {
        printInventory(opts, opts.apps);
        return 0;
    }

    banner("Figure 7 — execution time under different page modes, "
           "normalized to SCOMA",
           opts);

    const auto policies = paperPolicies();
    const auto results = runSweepsParallel(opts.sweep(policies), opts.apps);
    printExecTable(opts.apps, policies, results);
    std::printf("\n# Paper's qualitative expectations: SCOMA = 1.0 "
                "(optimal: no capacity page-outs);\n# LANUMA worst on "
                "capacity-bound apps (Barnes/LU/Ocean/Radix, up to "
                "2.8-4.6x);\n# adaptive policies within ~10%% of SCOMA "
                "except Barnes/Ocean on Dyn-Util/Dyn-LRU.\n");
    printTables(opts.apps, results);
    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "fig7_exec_time", opts, results);
    return 0;
}
