/**
 * @file
 * Machine-size scaling sweep: the Figure 7 policy comparison re-run
 * across machine presets from the paper's 8x4 up to 128x8 (1024
 * processors) — past the original evaluation, which the 64-bit sharer
 * bitmasks used to cap at 64 nodes.
 *
 * For each preset the policy sweep prints exec cycles normalized to
 * SCOMA exactly like fig7_exec_time, followed by a per-node memory
 * footprint table (directory bytes, PIT entries, fine-grain tag
 * bytes) harvested from the run reports' `footprint` gauges — the
 * quantity that grows with machine width and motivates the SoA
 * directory in each home page's record.
 *
 * The default preset list is machinePresets() (8x4, 16x4, 32x8,
 * 128x8); `--machine N x P` restricts the sweep to that single
 * topology.  Problem sizes follow --scale as everywhere else; the
 * node-partitioned KV workload weak-scales with the machine and is
 * the natural pick for the big presets (--apps kv), while the fixed-
 * size SPLASH kernels degenerate once numProcs exceeds their
 * parallelism.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "workload/parallel_runner.hh"

namespace {

using namespace prism;

/** Max across nodes of one footprint gauge in @p r, 0 if absent. */
double
maxGauge(const RunReport &r, const char *name)
{
    double best = 0;
    for (const auto &node : r.nodes) {
        for (const auto &g : node.gauges) {
            if (g.name == name && g.value > best)
                best = g.value;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace prism;
    using namespace prism::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);
    banner("Scale sweep — Figure 7 policy comparison across machine "
           "sizes",
           opts);

    // --machine selects one preset; the default sweeps them all.
    std::vector<MachineConfig> machines;
    if (BenchOptions::resolve(argc, argv, "PRISM_MACHINE"))
        machines.push_back(opts.baseMachine());
    else
        machines = machinePresets(opts.baseMachine());

    const auto policies = paperPolicies();
    std::vector<BenchRun> runs;
    std::vector<std::vector<ExperimentResult>> keep; // owns reports
    keep.reserve(machines.size());

    for (const MachineConfig &m : machines) {
        char label[32];
        std::snprintf(label, sizeof(label), "%ux%u", m.numNodes,
                      m.procsPerNode);
        std::printf("\n## machine %s (%u processors)\n", label,
                    m.numProcs());
        std::printf("%-12s", "Application");
        for (PolicyKind pk : policies)
            std::printf(" %10s", policyName(pk));
        std::printf("  (exec cycles, SCOMA)\n");

        keep.push_back(
            runSweepsParallel(RunSpec{.machine = m,
                                      .policies = policies,
                                      .jobs = opts.jobs,
                                      .frontend = opts.frontend,
                                      .traceFile = opts.traceFile},
                              opts.apps));
        const auto &results = keep.back();

        for (std::size_t a = 0; a < opts.apps.size(); ++a) {
            const ExperimentResult *row = &results[a * policies.size()];
            const double scoma =
                static_cast<double>(row[0].metrics.execCycles);
            std::printf("%-12s", opts.apps[a].name.c_str());
            for (std::size_t p = 0; p < policies.size(); ++p) {
                std::printf(" %10.2f",
                            static_cast<double>(
                                row[p].metrics.execCycles) /
                                scoma);
            }
            std::printf("  (%llu)\n",
                        static_cast<unsigned long long>(
                            row[0].metrics.execCycles));
            std::fflush(stdout);
        }

        // Per-node footprint (max across nodes, SCOMA run of the
        // first app): the simulator-side cost of the machine width.
        const RunReport &rep = results[0].report;
        std::printf("  footprint/node (max, SCOMA): directory %.0f B "
                    "(%.0f pages), PIT %.0f entries, fg-tags %.0f "
                    "B\n",
                    maxGauge(rep, "footprint.dirBytes"),
                    maxGauge(rep, "footprint.dirPages"),
                    maxGauge(rep, "footprint.pitEntries"),
                    maxGauge(rep, "footprint.tagBytes"));

        for (const ExperimentResult &r : results)
            runs.push_back(BenchRun{r.app, policyName(r.policy), label,
                                    &r.report});
    }

    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "scale_sweep", opts, runs);
    return 0;
}
