/**
 * @file
 * Lazy page migration ablation (paper Section 3.5 / Baylor et al.).
 *
 * A phase-shifting workload: the set of pages each node works on
 * rotates between phases, so a page's dominant accessor changes over
 * time.  With lazy migration enabled, the dynamic home follows the
 * worker and converts remote misses into local ones; the cost is
 * forwarding of misdirected requests from stale PIT hints.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/machine.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

constexpr std::uint64_t kKey = 0xAB1A7E;
constexpr std::uint32_t kPages = 16;
constexpr std::uint32_t kPhases = 6;
constexpr std::uint32_t kSweeps = 12;

CoTask
phased(Proc &p, std::uint32_t nt)
{
    const NodeId my_node = p.id() / 4;
    const std::uint32_t procs_per_node = 4;
    const std::uint32_t my_lane = p.id() % procs_per_node;
    if (p.id() == 0)
        co_await p.beginParallel();
    co_await p.barrier(0);
    for (std::uint32_t phase = 0; phase < kPhases; ++phase) {
        // In each phase, node (phase % nodes) owns the working set.
        const NodeId worker = phase % (nt / procs_per_node);
        if (my_node == worker) {
            for (std::uint32_t sweep = 0; sweep < kSweeps; ++sweep) {
                for (std::uint32_t pg = my_lane; pg < kPages;
                     pg += procs_per_node) {
                    for (std::uint32_t l = 0; l < 64; ++l) {
                        co_await p.write(makeVAddr(
                            kSharedVsid, pg,
                            static_cast<std::uint64_t>(l) * 64));
                    }
                }
            }
        }
        co_await p.barrier(0);
    }
    co_await p.barrier(0);
    if (p.id() == 0)
        co_await p.endParallel();
}

ExperimentResult
runConfig(bool migration, unsigned jobs_intra, ProtocolScheme protocol)
{
    MachineConfig cfg;
    cfg.jobsIntra = jobs_intra;
    cfg.protocol = protocol;
    cfg.migrationEnabled = migration;
    cfg.migrationThreshold = 48;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(kKey, (kPages + 4) * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    m.run([&](Proc &p) { return phased(p, m.numProcs()); });
    return ExperimentResult{
        .app = "phased",
        .variant = migration ? "migration-on" : "migration-off",
        .policy = cfg.policy,
        .metrics = m.metrics(),
        .report = m.report()};
}

} // namespace
} // namespace prism

int
main(int argc, char **argv)
{
    using namespace prism;
    using namespace prism::bench;
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    if (opts.frontend != FrontendKind::Exec) {
        fatal("migration_ablation drives the machine directly and "
              "supports only --frontend=exec");
    }
    std::printf("# PRISM ablation: lazy page migration on a "
                "phase-shifting workload\n");
    std::printf("# (%u pages, %u phases, ownership rotates across "
                "nodes)\n\n", kPages, kPhases);

    const std::vector<ExperimentResult> runs = {
        runConfig(false, opts.jobsIntra, opts.protocol),
        runConfig(true, opts.jobsIntra, opts.protocol)};
    const RunMetrics &off = runs[0].metrics;
    const RunMetrics &on = runs[1].metrics;

    std::printf("%-28s %14s %14s\n", "metric", "migration OFF",
                "migration ON");
    auto row = [](const char *name, std::uint64_t a, std::uint64_t b) {
        std::printf("%-28s %14llu %14llu\n", name,
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(b));
    };
    row("exec cycles", off.execCycles, on.execCycles);
    row("remote misses", off.remoteMisses, on.remoteMisses);
    row("upgrades", off.upgrades, on.upgrades);
    row("network messages", off.networkMessages, on.networkMessages);
    row("home migrations", off.migrations, on.migrations);
    row("forwarded requests", off.forwards, on.forwards);
    std::printf("\nspeedup from migration: %.2fx\n",
                static_cast<double>(off.execCycles) /
                    static_cast<double>(on.execCycles));
    std::printf("\n# Expectation: migration moves each page's home to "
                "its current writer, cutting\n# remote misses sharply "
                "at the price of a burst of forwarded requests per "
                "phase\n# shift (lazy PIT-hint refresh).\n");
    if (opts.wantReport())
        writeBenchReport(opts.reportPath, "migration_ablation", opts, runs);
    return 0;
}
