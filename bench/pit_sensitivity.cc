/**
 * @file
 * Section 4.3 "Impact of PIT translation overhead" reproduction:
 * execution time with the Page Information Table in DRAM (10-cycle
 * lookup) relative to SRAM (2 cycles), under the LANUMA configuration
 * where every client miss crosses the PIT.
 *
 * The paper reports < 2% slowdown for most applications, ~5% for FFT
 * and ~16% for Barnes, and argues that with an SRAM PIT, LA-NUMA
 * pages perform like true CC-NUMA pages.  With `--ccnuma` this bench
 * also runs the extension CC-NUMA mode (PIT bypassed entirely).
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

namespace {

/** Width of a variant's exec-cycles column. */
int
columnWidth(const std::string &label)
{
    return label == "DRAM+dirhints" ? 14 : 12;
}

/** Print @p run's exec cycles and its change from @p base's, in %. */
void
printVersus(int width, const prism::RunMetrics &run,
            const prism::RunMetrics &base)
{
    std::printf(" %*llu %8.1f%%", width,
                static_cast<unsigned long long>(run.execCycles),
                100.0 * (static_cast<double>(run.execCycles) /
                             static_cast<double>(base.execCycles) -
                         1.0));
}

} // namespace

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
    const bool with_ccnuma = opts.flag("--ccnuma");
    const bool with_dirhints = opts.flag("--dirhints");

    banner("Section 4.3 — PIT in DRAM (10 cycles) vs SRAM (2 cycles), "
           "LANUMA configuration",
           opts);

    MachineConfig sram = opts.baseMachine();
    sram.pitLatency = 2;
    MachineConfig dram = sram;
    dram.pitLatency = 10;
    std::vector<MachineVariant> variants = {{"SRAM-PIT", sram},
                                            {"DRAM-PIT", dram}};
    if (with_dirhints) {
        // Section 4.3's mitigation: client frame numbers cached in the
        // directory remove the PIT hash walk from the invalidation
        // path.
        variants.push_back({"DRAM+dirhints", dram});
        variants.back().machine.dirClientFrameHints = true;
    }
    if (with_ccnuma) {
        variants.push_back({"CC-NUMA", sram});
        variants.back().machine.ccNumaBypass = true;
    }

    // One column pair per variant, in the rows' (and the report's)
    // order; each later one is a change against SRAM-PIT.
    std::printf("%-12s %12s", "Application", "SRAM-PIT");
    for (std::size_t v = 1; v < variants.size(); ++v) {
        const std::string &label = variants[v].label;
        std::printf(" %*s %9s", columnWidth(label), label.c_str(),
                    label == "CC-NUMA" ? "vs SRAM" : "slowdown");
    }
    std::printf("\n");

    const auto results = runSweepsParallel(
        opts.sweep({PolicyKind::LaNuma}), opts.apps, variants);

    const std::size_t nv = variants.size();
    for (std::size_t i = 0; i < opts.apps.size(); ++i) {
        const ExperimentResult *row = &results[i * nv];
        std::printf("%-12s %12llu", opts.apps[i].name.c_str(),
                    static_cast<unsigned long long>(
                        row[0].metrics.execCycles));
        // Every later column is a slowdown against SRAM-PIT.
        for (std::size_t v = 1; v < nv; ++v)
            printVersus(columnWidth(variants[v].label), row[v].metrics,
                        row[0].metrics);
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("\n# Paper: <2%% for most apps, ~5%% FFT, ~16%% "
                "Barnes.  A DRAM PIT hurts most where\n# remote misses "
                "and invalidations (hash reverse translations) are "
                "most frequent.\n");
    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "pit_sensitivity", opts, results);
    return 0;
}
