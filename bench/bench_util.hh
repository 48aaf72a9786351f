/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Every knob is declared once in the PRISM env registry
 * (src/core/env.hh); BenchOptions::parse resolves each one with a
 * single precedence rule — flag > environment > default — and
 * `--help` prints the generated table.  Flags a bench defines for
 * itself (e.g. pit_sensitivity's `--ccnuma`) are collected in extra_
 * and queried with flag().
 *
 * Common CLI (BenchOptions::parse):
 *   --scale <s>        problem size         (PRISM_SCALE)
 *   --apps <filter>    application filter   (PRISM_APPS)
 *   --jobs <n>         sweep workers        (PRISM_JOBS)
 *   --jobs-intra <n>   event-loop shards    (PRISM_JOBS_INTRA)
 *   --protocol <p>     line protocol        (PRISM_PROTOCOL)
 *   --frontend <f>     exec|record|replay   (PRISM_FRONTEND)
 *   --trace-file <p>   .ptrace path         (PRISM_TRACE_FILE)
 *   --report <path>    write a schema-versioned JSON report
 *   --list             print the application inventory and exit
 *   --help             print the knob table and exit
 */

#ifndef PRISM_BENCH_BENCH_UTIL_HH
#define PRISM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/env.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "policy/page_policy.hh"
#include "sim/logging.hh"
#include "workload/apps.hh"
#include "workload/experiment.hh"
#include "workload/parallel_runner.hh"

namespace prism {
namespace bench {

/**
 * Apply a comma-separated substring @p filter to the standard app
 * inventory at @p scale: an app is selected when any token appears in
 * its name (e.g. "Water" selects both Water variants).  Null selects
 * everything; a filter matching nothing is a fatal error.
 */
inline std::vector<AppSpec>
filterApps(AppScale scale, const char *filter)
{
    std::vector<AppSpec> all = standardApps(scale);
    if (!filter)
        return all;
    std::vector<std::string> tokens;
    std::string f = filter;
    std::size_t pos = 0;
    while (pos <= f.size()) {
        std::size_t comma = f.find(',', pos);
        if (comma == std::string::npos)
            comma = f.size();
        if (comma > pos)
            tokens.push_back(f.substr(pos, comma - pos));
        pos = comma + 1;
    }
    std::vector<AppSpec> out;
    for (auto &a : all) {
        for (const auto &t : tokens) {
            if (a.name.find(t) != std::string::npos) {
                out.push_back(a);
                break;
            }
        }
    }
    if (out.empty()) {
        std::fprintf(stderr,
                     "PRISM_APPS='%s' matches no application; valid "
                     "names:",
                     filter);
        for (const auto &a : all)
            std::fprintf(stderr, " %s", a.name.c_str());
        std::fprintf(stderr, "\n");
        std::exit(1);
    }
    return out;
}

/**
 * The unified bench command line.  Every table/figure bench parses its
 * arguments through here so the common flags behave identically
 * across the suite; each registered knob resolves as flag > env >
 * default through the env registry (core/env.hh).
 */
struct BenchOptions {
    AppScale scale = AppScale::Paper;
    /** Machine topology preset; defaults to the paper's 8x4. */
    std::uint32_t numNodes = 8;
    std::uint32_t procsPerNode = 4;
    unsigned jobs = 1;
    unsigned jobsIntra = 1; //!< event-loop shards per simulation
    ProtocolScheme protocol = ProtocolScheme::Mesi;
    FrontendKind frontend = FrontendKind::Exec;
    std::string traceFile; //!< empty unless --trace-file was given
    std::vector<AppSpec> apps;
    std::string reportPath; //!< empty when --report was not given
    bool list = false;
    // KV workload knobs (bench/kv_sweep.cc): 0 / negative / empty
    // mean "use the scale preset / sweep every value".
    std::uint64_t kvKeys = 0;
    std::uint64_t kvRequests = 0;
    double kvTheta = -1.0;
    std::string kvMix;

    static BenchOptions
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--help") ||
                !std::strcmp(argv[i], "-h")) {
                std::printf("usage: %s [flags]\n\n"
                            "Registered knobs (flag > environment > "
                            "default):\n%s\n"
                            "Flag-only options:\n"
                            "  --report <path>   write a JSON report\n"
                            "  --list            print the application "
                            "inventory and exit\n"
                            "  --help            this table\n",
                            argv[0], envHelpTable().c_str());
                std::exit(0);
            }
        }

        BenchOptions o;
        if (const char *v = resolve(argc, argv, "PRISM_SCALE"))
            o.scale = parseKnobEnum<AppScale>("PRISM_SCALE", v);
        if (const char *v = resolve(argc, argv, "PRISM_MACHINE")) {
            MachineConfig shape;
            if (!machineFromString(v, &shape)) {
                fatal("unknown %s '%s' (valid: paper or <nodes>x<procs>, "
                      "e.g. 128x8)", knobLabel("PRISM_MACHINE").c_str(), v);
            }
            o.numNodes = shape.numNodes;
            o.procsPerNode = shape.procsPerNode;
        }
        o.apps =
            filterApps(o.scale, resolve(argc, argv, "PRISM_APPS"));
        o.jobs = parseCount("PRISM_JOBS/--jobs",
                            resolve(argc, argv, "PRISM_JOBS"),
                            defaultJobs());
        o.jobsIntra = parseCount("PRISM_JOBS_INTRA/--jobs-intra",
                                 resolve(argc, argv,
                                         "PRISM_JOBS_INTRA"),
                                 1);
        if (const char *v = resolve(argc, argv, "PRISM_PROTOCOL"))
            o.protocol = parseKnobEnum<ProtocolScheme>("PRISM_PROTOCOL", v);
        if (const char *v = resolve(argc, argv, "PRISM_FRONTEND"))
            o.frontend = parseKnobEnum<FrontendKind>("PRISM_FRONTEND", v);
        if (const char *v = resolve(argc, argv, "PRISM_TRACE_FILE"))
            o.traceFile = v;
        o.kvKeys = parseKnobU64("PRISM_KV_KEYS/--kv-keys",
                                resolve(argc, argv, "PRISM_KV_KEYS"),
                                0, 1);
        o.kvRequests =
            parseKnobU64("PRISM_KV_REQUESTS/--kv-requests",
                         resolve(argc, argv, "PRISM_KV_REQUESTS"), 0,
                         1);
        o.kvTheta = parseKnobReal("PRISM_KV_THETA/--kv-theta",
                                  resolve(argc, argv,
                                          "PRISM_KV_THETA"),
                                  -1.0, 0.0, 0.9999);
        if (const char *v = resolve(argc, argv, "PRISM_KV_MIX"))
            o.kvMix = v;
        if ((o.frontend == FrontendKind::Record ||
             o.frontend == FrontendKind::Replay) &&
            o.traceFile.empty()) {
            fatal("--frontend=%s requires --trace-file (or "
                  "PRISM_TRACE_FILE)", enumName(o.frontend));
        }

        // Everything not consumed by a registered knob or a common
        // flag passes through to the bench.
        for (int i = 1; i < argc; ++i) {
            if (const EnvKnob *k = matchKnobFlag(argv[i])) {
                if (!std::strcmp(argv[i], k->flag))
                    ++i; // skip the value token
                continue;
            }
            if (!std::strcmp(argv[i], "--report") && i + 1 < argc) {
                o.reportPath = argv[++i];
            } else if (!std::strncmp(argv[i], "--report=", 9)) {
                o.reportPath = argv[i] + 9;
            } else if (!std::strcmp(argv[i], "--report")) {
                fatal("--report requires a path argument");
            } else if (!std::strcmp(argv[i], "--list")) {
                o.list = true;
            } else {
                o.extra_.push_back(argv[i]);
            }
        }
        return o;
    }

    /**
     * A MachineConfig seeded with the parsed topology, protocol and
     * shard count — the common starting point for every bench's base
     * machine.
     */
    MachineConfig
    baseMachine() const
    {
        MachineConfig m;
        m.numNodes = numNodes;
        m.procsPerNode = procsPerNode;
        m.jobsIntra = jobsIntra;
        m.protocol = protocol;
        return m;
    }

    /**
     * A sweep request over baseMachine(): the parsed worker count,
     * frontend and trace file, and @p policies (empty = the paper's
     * six).
     */
    RunSpec
    sweep(std::vector<PolicyKind> policies = {}) const
    {
        return RunSpec{.machine = baseMachine(),
                       .policies = std::move(policies),
                       .jobs = jobs,
                       .frontend = frontend,
                       .traceFile = traceFile};
    }

    /** True when a bench-specific flag (e.g. "--ccnuma") was given. */
    bool
    flag(const char *name) const
    {
        for (const std::string &e : extra_) {
            if (e == name)
                return true;
        }
        return false;
    }

    bool wantReport() const { return !reportPath.empty(); }

    /**
     * Resolve one registered knob with the uniform precedence rule:
     * the knob's CLI flag (last occurrence wins) > its environment
     * variable > nullptr (caller applies the default).
     */
    static const char *
    resolve(int argc, char **argv, const char *env_name)
    {
        const EnvKnob *k = findEnvKnob(env_name);
        prism_assert(k, "knob '%s' missing from the env registry",
                     env_name);
        const char *v = nullptr;
        if (k->flag) {
            const std::size_t flen = std::strlen(k->flag);
            for (int i = 1; i < argc; ++i) {
                if (!std::strcmp(argv[i], k->flag)) {
                    if (i + 1 >= argc)
                        fatal("%s requires a value (%s)", k->flag,
                              k->values);
                    v = argv[++i];
                } else if (!std::strncmp(argv[i], k->flag, flen) &&
                           argv[i][flen] == '=') {
                    v = argv[i] + flen + 1;
                }
            }
        }
        return v ? v : resolveEnv(env_name);
    }

  private:
    /** The registry knob whose flag @p arg spells ("--x" or "--x=v"). */
    static const EnvKnob *
    matchKnobFlag(const char *arg)
    {
        if (std::strncmp(arg, "--", 2))
            return nullptr;
        std::string name = arg;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos)
            name.resize(eq);
        return findEnvKnobByFlag(name.c_str());
    }

    static unsigned
    parseCount(const char *what, const char *s, unsigned def)
    {
        return static_cast<unsigned>(
            parseKnobU64(what, s, def, 1, ~0U));
    }

    std::vector<std::string> extra_;
};

inline void
banner(const char *what, const BenchOptions &o, bool show_jobs = true)
{
    std::printf("# PRISM reproduction: %s\n", what);
    std::printf("# machine: %u nodes x %u procs, 8KB L1 / 32KB L2, "
                "4KB pages, 64B lines\n",
                o.numNodes, o.procsPerNode);
    std::printf("# scale: %s (PRISM_SCALE/--scale to change)",
                enumName(o.scale));
    if (show_jobs)
        std::printf("; jobs: %u (PRISM_JOBS/--jobs to change)", o.jobs);
    if (o.frontend != FrontendKind::Exec) {
        std::printf("; frontend: %s (%s)", enumName(o.frontend),
                    o.traceFile.c_str());
    }
    std::printf("\n\n");
}

/**
 * `--list`: each of @p apps with its problem size, under @p title
 * (the paper's Table 2 by default) and a @p column heading.
 */
inline void
printInventory(const BenchOptions &opts, const std::vector<AppSpec> &apps,
               const char *title = "# PRISM reproduction: Table 2 — "
                                   "application benchmark types and "
                                   "data sets",
               const char *column = "Application")
{
    std::printf("%s (%s scale)\n\n", title, enumName(opts.scale));
    std::printf("%-12s %s\n", column, "Problem Size");
    for (const auto &app : apps) {
        auto w = app.make();
        std::printf("%-12s %s\n", app.name.c_str(), w->sizeDesc().c_str());
    }
}

/** A sweep table's header: @p column, one per policy, @p note. */
inline void
printPolicyHeader(const char *column, const std::vector<PolicyKind> &policies,
                  const char *note)
{
    std::printf("%-12s", column);
    for (PolicyKind pk : policies)
        std::printf(" %10s", enumName(pk));
    std::printf("  %s\n", note);
}

/**
 * Figure 7's table for variant @p v of an apps x variants x policies
 * grid (runSweepsParallel order): each app's exec cycles normalized
 * to its first (SCOMA) cell, whose cycles follow in parentheses.
 */
inline void
printExecTable(const std::vector<AppSpec> &apps,
               const std::vector<PolicyKind> &policies,
               const std::vector<ExperimentResult> &results,
               std::size_t v = 0)
{
    printPolicyHeader("Application", policies, "(exec cycles, SCOMA)");
    const std::size_t np = policies.size();
    const std::size_t nv = results.size() / (apps.size() * np);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const ExperimentResult *row = &results[(a * nv + v) * np];
        const double scoma = static_cast<double>(row[0].metrics.execCycles);
        std::printf("%-12s", apps[a].name.c_str());
        for (std::size_t p = 0; p < np; ++p) {
            std::printf(" %10.2f",
                        static_cast<double>(row[p].metrics.execCycles) /
                            scoma);
        }
        std::printf("  (%llu)\n", static_cast<unsigned long long>(
                                      row[0].metrics.execCycles));
        std::fflush(stdout);
    }
}

/**
 * Write a "prism.bench_report" JSON document: bench identity, scale,
 * frontend, and each run's full report under its app, policy and (if
 * it has one) variant label.  Shares the run-report schema version
 * (each embedded run carries its own "schema" marker too).
 */
inline void
writeBenchReport(const std::string &path, const char *bench,
                 const BenchOptions &opts,
                 const std::vector<ExperimentResult> &runs)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open --report file '%s'", path.c_str());
        return;
    }
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "prism.bench_report");
    w.kv("schemaVersion", kRunReportSchemaVersion);
    w.kv("bench", bench);
    w.kv("scale", enumName(opts.scale));
    w.kv("frontend", enumName(opts.frontend));
    w.key("runs");
    w.beginArray();
    for (const ExperimentResult &r : runs) {
        w.beginObject();
        w.kv("app", r.app);
        w.kv("policy", enumName(r.policy));
        if (!r.variant.empty())
            w.kv("variant", r.variant);
        w.key("report");
        r.report.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    std::printf("# wrote report: %s\n", path.c_str());
}

/** Write a single machine's run report (single-run benches). */
inline void
writeSingleReport(const std::string &path, const RunReport &report)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open --report file '%s'", path.c_str());
        return;
    }
    report.writeJson(os);
    os << "\n";
    std::printf("# wrote report: %s\n", path.c_str());
}

} // namespace bench
} // namespace prism

#endif // PRISM_BENCH_BENCH_UTIL_HH
