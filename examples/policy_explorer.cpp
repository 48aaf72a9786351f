/**
 * @file
 * Policy explorer: run any of the eight applications under any page-
 * mode policy and machine configuration, and print the full metric
 * set — the tool you reach for when deciding how to configure PRISM
 * for a workload.
 *
 *   ./build/examples/policy_explorer Ocean Dyn-LRU --cap 70 \
 *       --scale small --l2 32768
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "core/env.hh"
#include "core/machine.hh"
#include "policy/page_policy.hh"
#include "sim/logging.hh"
#include "workload/apps.hh"
#include "workload/workload.hh"
#include "workload/experiment.hh"
#include "workload/parallel_runner.hh"

using namespace prism;

static void
usage()
{
    std::fprintf(
        stderr,
        "usage: policy_explorer <app> <policy> [options]\n"
        "  app:    Barnes FFT LU MP3D Ocean Radix Water-Nsq Water-Spa\n"
        "  policy: SCOMA LANUMA SCOMA-70 Dyn-FCFS Dyn-Util Dyn-LRU "
        "Dyn-Both\n"
        "options:\n"
        "  --scale paper|small|tiny   problem size (default small)\n"
        "  --cap <percent>            page-cache cap as %% of the SCOMA\n"
        "                             calibration (default 70)\n"
        "  --l1 <bytes> --l2 <bytes>  cache sizes (default 8192/32768)\n"
        "  --nodes <n> --procs <n>    topology (default 8x4)\n"
        "  --migrate                  enable lazy page migration\n"
        "  --stats                    dump the full per-node counter "
        "registry\n"
        "environment:\n"
        "  PRISM_PROTOCOL=msi|mesi|moesi|mesif  line protocol "
        "(default mesi)\n");
    std::exit(1);
}

int
main(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const std::string app_name = argv[1];
    const PolicyKind policy = parseKnobEnum<PolicyKind>("policy", argv[2]);

    AppScale scale = AppScale::Small;
    double cap_pct = 70.0;
    bool dump_stats = false;
    MachineConfig cfg;
    // The explorer has no --protocol flag: PRISM_PROTOCOL picks the
    // line protocol, which the Machine itself never reads.
    if (const char *v = resolveEnv("PRISM_PROTOCOL"))
        cfg.protocol = parseKnobEnum<ProtocolScheme>("PRISM_PROTOCOL", v);
    for (int i = 3; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--scale")) {
            scale = parseKnobEnum<AppScale>("PRISM_SCALE", next());
        } else if (!std::strcmp(argv[i], "--cap")) {
            cap_pct = parseKnobReal("--cap", next(), 70.0, 0.0, 100.0);
        } else if (!std::strcmp(argv[i], "--l1")) {
            cfg.l1Bytes = static_cast<std::uint32_t>(
                parseKnobU64("--l1", next(), 0, 1, ~0U));
        } else if (!std::strcmp(argv[i], "--l2")) {
            cfg.l2Bytes = static_cast<std::uint32_t>(
                parseKnobU64("--l2", next(), 0, 1, ~0U));
        } else if (!std::strcmp(argv[i], "--nodes")) {
            cfg.numNodes = static_cast<std::uint32_t>(
                parseKnobU64("--nodes", next(), 0, 1, ~0U));
        } else if (!std::strcmp(argv[i], "--procs")) {
            cfg.procsPerNode = static_cast<std::uint32_t>(
                parseKnobU64("--procs", next(), 0, 1, ~0U));
        } else if (!std::strcmp(argv[i], "--migrate")) {
            cfg.migrationEnabled = true;
        } else if (!std::strcmp(argv[i], "--stats")) {
            dump_stats = true;
        } else {
            usage();
        }
    }

    AppSpec spec;
    bool found = false;
    for (auto &a : standardApps(scale)) {
        if (a.name == app_name) {
            spec = a;
            found = true;
        }
    }
    if (!found)
        usage();

    std::printf("app=%s policy=%s cap=%.0f%% machine=%ux%u "
                "L1=%u L2=%u\n\n",
                app_name.c_str(), enumName(policy), cap_pct,
                cfg.numNodes, cfg.procsPerNode, cfg.l1Bytes,
                cfg.l2Bytes);

    const double cap_fraction = cap_pct / 100.0;
    auto results = runSweepsParallel(
        RunSpec{.machine = cfg,
                .policies = {PolicyKind::Scoma, policy},
                .capFraction = cap_fraction},
        {spec});
    const RunMetrics &base = results[0].metrics;
    const RunMetrics &r = results[1].metrics;

    auto row = [](const char *name, std::uint64_t v, std::uint64_t b) {
        std::printf("  %-22s %14llu   (SCOMA: %llu)\n", name,
                    (unsigned long long)v, (unsigned long long)b);
    };
    std::printf("metrics under %s:\n", enumName(policy));
    row("exec cycles", r.execCycles, base.execCycles);
    row("remote misses", r.remoteMisses, base.remoteMisses);
    row("upgrades", r.upgrades, base.upgrades);
    row("client page-outs", r.clientPageOuts, base.clientPageOuts);
    row("page faults", r.pageFaults, base.pageFaults);
    row("frames allocated", r.framesAllocated, base.framesAllocated);
    row("network messages", r.networkMessages, base.networkMessages);
    std::printf("  %-22s %14.2f   (SCOMA: 1.00)\n",
                "normalized time",
                static_cast<double>(r.execCycles) /
                    static_cast<double>(base.execCycles));
    std::printf("  %-22s %14.3f   (SCOMA: %.3f)\n",
                "frame utilization", r.avgUtilization,
                base.avgUtilization);

    if (dump_stats) {
        // Re-run the chosen configuration, with the caps the sweep
        // calibrated, on a live machine and dump every registered
        // hardware/OS counter.
        Machine m2(
            policyConfig(cfg, policy, scoma70Caps(base, cap_fraction)));
        auto w2 = spec.make();
        runWorkload(m2, *w2);
        std::printf("\nfull counter registry (%s):\n",
                    enumName(policy));
        std::ostringstream os;
        m2.metricRegistry().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    return 0;
}
