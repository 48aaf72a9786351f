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
 * 128x8), run as one apps x presets x policies grid;
 * `--machine N x P` restricts the sweep to that single topology.
 * `--frontend record|replay` shares one trace per app, so it needs
 * `--machine`.  Problem sizes follow --scale as everywhere else; the
 * node-partitioned KV workload weak-scales with the machine and is
 * the natural pick for the big presets (--apps kv), while the fixed-
 * size SPLASH kernels degenerate once numProcs exceeds their
 * parallelism.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"

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

    const BenchOptions opts = BenchOptions::parse(argc, argv);
    if (opts.list) {
        printInventory(opts, opts.apps);
        return 0;
    }
    banner("Scale sweep — Figure 7 policy comparison across machine "
           "sizes",
           opts);

    // --machine selects one preset; the default sweeps them all.
    std::vector<MachineConfig> shapes = machinePresets(opts.baseMachine());
    if (BenchOptions::resolve(argc, argv, "PRISM_MACHINE"))
        shapes = {opts.baseMachine()};
    std::vector<MachineVariant> machines;
    for (const MachineConfig &m : shapes) {
        machines.push_back({std::to_string(m.numNodes) + "x" +
                                std::to_string(m.procsPerNode),
                            m});
    }

    const auto policies = paperPolicies();
    const auto results =
        runSweepsParallel(opts.sweep(policies), opts.apps, machines);
    for (std::size_t v = 0; v < machines.size(); ++v) {
        std::printf("\n## machine %s (%u processors)\n",
                    machines[v].label.c_str(),
                    machines[v].machine.numProcs());
        printExecTable(opts.apps, policies, results, v);

        // Per-node footprint (max across nodes, SCOMA run of the
        // first app): the simulator-side cost of the machine width.
        const RunReport &rep = results[v * policies.size()].report;
        std::printf("  footprint/node (max, SCOMA): directory %.0f B "
                    "(%.0f pages), PIT %.0f entries, fg-tags %.0f "
                    "B\n",
                    maxGauge(rep, "footprint.dirBytes"),
                    maxGauge(rep, "footprint.dirPages"),
                    maxGauge(rep, "footprint.pitEntries"),
                    maxGauge(rep, "footprint.tagBytes"));
    }

    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "scale_sweep", opts, results);
    return 0;
}
