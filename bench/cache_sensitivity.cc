/**
 * @file
 * Section 4.2 cache-sensitivity reproduction.
 *
 * The paper notes that with a 16 KB L1 and a 1 MB L2 the SPLASH
 * working sets fit in cache, communication misses dominate (which
 * cost the same in S-COMA and LA-NUMA mode), and "the choice of page
 * modes does not affect performance significantly" — which is why the
 * evaluation deliberately runs 8 KB / 32 KB caches.  This bench runs
 * both machine shapes under SCOMA and LANUMA and prints the ratio.
 */

#include <cstdio>

#include "bench_util.hh"

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
    banner("Section 4.2 — cache-size sensitivity of the page-mode "
           "choice (LANUMA time / SCOMA time)",
           opts);

    auto shape = [&opts](const char *name, std::uint32_t l1,
                         std::uint32_t l2) {
        MachineVariant v{name, opts.baseMachine()};
        v.machine.l1Bytes = l1;
        v.machine.l2Bytes = l2;
        return v;
    };
    const std::vector<MachineVariant> shapes = {
        shape("8KB/32KB (paper eval)", 8 * 1024, 32 * 1024),
        shape("16KB/1MB (fits WS)", 16 * 1024, 1024 * 1024),
    };

    std::printf("%-12s %24s %24s\n", "Application",
                shapes[0].label.c_str(), shapes[1].label.c_str());

    const auto results = runSweepsParallel(
        opts.sweep({PolicyKind::Scoma, PolicyKind::LaNuma}), opts.apps,
        shapes);
    for (std::size_t i = 0; i < opts.apps.size(); ++i) {
        std::printf("%-12s", opts.apps[i].name.c_str());
        for (std::size_t j = 0; j < shapes.size(); ++j) {
            const ExperimentResult *cell =
                &results[(i * shapes.size() + j) * 2];
            std::printf(" %23.2fx",
                        static_cast<double>(cell[1].metrics.execCycles) /
                            static_cast<double>(
                                cell[0].metrics.execCycles));
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("\n# Paper's claim: with the large caches the ratio "
                "collapses toward 1.0 because\n# capacity-related "
                "misses vanish and only communication misses remain "
                "— they\n# cost the same in either page mode.\n");
    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "cache_sensitivity", opts,
                         results);
    return 0;
}
