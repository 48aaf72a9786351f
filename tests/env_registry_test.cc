/**
 * @file
 * The env-knob registry and the single precedence rule it backs:
 * flag > environment > default, implemented once in
 * BenchOptions::parse and tested once here for every spelling.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/bench_util.hh"
#include "core/env.hh"
#include "core/machine.hh"

namespace prism {
namespace {

using bench::BenchOptions;

/** RAII env var for precedence tests. */
struct ScopedEnv {
    const char *name;
    ScopedEnv(const char *n, const char *v) : name(n)
    {
        EXPECT_EQ(setenv(n, v, 1), 0);
    }
    ~ScopedEnv() { unsetenv(name); }
};

BenchOptions
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return BenchOptions::parse(
        static_cast<int>(args.size()),
        const_cast<char **>(const_cast<const char **>(args.data())));
}

TEST(EnvRegistry, DefaultAppliesWithoutFlagOrEnv)
{
    unsetenv("PRISM_SCALE");
    EXPECT_EQ(parse({}).scale, AppScale::Paper);
}

TEST(EnvRegistry, EnvOverridesDefault)
{
    ScopedEnv e("PRISM_SCALE", "small");
    EXPECT_EQ(parse({}).scale, AppScale::Small);
}

TEST(EnvRegistry, FlagOverridesEnv)
{
    ScopedEnv e("PRISM_SCALE", "small");
    EXPECT_EQ(parse({"--scale", "tiny"}).scale, AppScale::Tiny);
    EXPECT_EQ(parse({"--scale=tiny"}).scale, AppScale::Tiny);
}

TEST(EnvRegistry, LastFlagOccurrenceWins)
{
    EXPECT_EQ(parse({"--scale", "small", "--scale", "tiny"}).scale,
              AppScale::Tiny);
}

TEST(EnvRegistry, SamePrecedenceForEveryRegisteredKnob)
{
    // Spot-check a second knob through the same generic path so a
    // regression cannot hide behind --scale special-casing.
    ScopedEnv e("PRISM_PROTOCOL", "moesi");
    EXPECT_EQ(parse({}).protocol, ProtocolScheme::Moesi);
    EXPECT_EQ(parse({"--protocol", "mesif"}).protocol,
              ProtocolScheme::Mesif);

    ScopedEnv f("PRISM_FRONTEND", "record");
    ScopedEnv t("PRISM_TRACE_FILE", "/tmp/env_registry.ptrace");
    const BenchOptions o = parse({});
    EXPECT_EQ(o.frontend, FrontendKind::Record);
    EXPECT_EQ(o.traceFile, "/tmp/env_registry.ptrace");
    EXPECT_EQ(parse({"--frontend", "exec"}).frontend,
              FrontendKind::Exec);
}

TEST(EnvRegistry, KnobFlagsDoNotLeakIntoBenchArgs)
{
    const BenchOptions o =
        parse({"--scale", "tiny", "--ccnuma", "--protocol=msi"});
    EXPECT_TRUE(o.flag("--ccnuma"));
    EXPECT_FALSE(o.flag("--scale"));
    EXPECT_FALSE(o.flag("tiny"));
    EXPECT_FALSE(o.flag("--protocol=msi"));
}

TEST(EnvRegistry, HelpTableCoversEveryKnob)
{
    const std::string table = envHelpTable();
    std::size_t n = 0;
    const EnvKnob *knobs = envKnobs(&n);
    EXPECT_GE(n, 14u);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NE(table.find(knobs[i].env), std::string::npos)
            << knobs[i].env;
        if (knobs[i].flag) {
            EXPECT_NE(table.find(knobs[i].flag), std::string::npos)
                << knobs[i].flag;
            EXPECT_EQ(findEnvKnobByFlag(knobs[i].flag), &knobs[i]);
        }
    }
    EXPECT_EQ(findEnvKnobByFlag("--no-such-flag"), nullptr);
}

TEST(EnvRegistryDeath, UnregisteredEnvReadPanics)
{
    EXPECT_DEATH(resolveEnv("PRISM_NOT_A_KNOB"),
                 "not in the PRISM knob registry");
}

TEST(EnvRegistryDeath, FlagWithoutValueDies)
{
    EXPECT_EXIT(parse({"--scale"}), testing::ExitedWithCode(1),
                "--scale requires a value");
}

TEST(EnvRegistryDeath, ReplayWithoutTraceFileDies)
{
    EXPECT_EXIT(parse({"--frontend", "replay"}),
                testing::ExitedWithCode(1),
                "requires --trace-file");
}

// --- Malformed numeric knob values (regressions) ---------------------
//
// strtoull-based parsing used to truncate silently: "--jobs 4x" ran
// with 4 workers, "--jobs -5" wrapped to 2^64-5 and was clamped into
// a nonsense thread count.  Every numeric knob must instead fail fast
// naming the knob it came from.

TEST(EnvRegistryDeath, TrailingGarbageInNumericFlagDies)
{
    EXPECT_EXIT(parse({"--jobs", "4x"}), testing::ExitedWithCode(1),
                "--jobs must be an unsigned integer .*'4x'");
    EXPECT_EXIT(parse({"--kv-keys", "1024k"}),
                testing::ExitedWithCode(1),
                "--kv-keys must be an unsigned integer .*'1024k'");
}

TEST(EnvRegistryDeath, NegativeValueForUnsignedKnobDies)
{
    EXPECT_EXIT(parse({"--jobs", "-5"}), testing::ExitedWithCode(1),
                "--jobs must be an unsigned integer .*'-5'");
    EXPECT_EXIT(parse({"--kv-requests", "-1"}),
                testing::ExitedWithCode(1),
                "--kv-requests must be an unsigned integer");
}

TEST(EnvRegistryDeath, ZeroBelowMinimumDies)
{
    EXPECT_EXIT(parse({"--jobs", "0"}), testing::ExitedWithCode(1),
                "--jobs must be >= 1");
    EXPECT_EXIT(parse({"--kv-keys", "0"}), testing::ExitedWithCode(1),
                "--kv-keys must be >= 1");
}

TEST(EnvRegistryDeath, OverflowDies)
{
    EXPECT_EXIT(parse({"--jobs", "99999999999999999999"}),
                testing::ExitedWithCode(1), "--jobs out of range");
}

TEST(EnvRegistryDeath, MalformedEnvValueDiesNamingTheEnvVar)
{
    // The same strictness must apply on the env side of the
    // precedence rule, and the message must name the source.
    ScopedEnv e("PRISM_JOBS", "4x");
    EXPECT_EXIT(parse({}), testing::ExitedWithCode(1),
                "PRISM_JOBS.*must be an unsigned integer");
}

TEST(EnvRegistryDeath, KvThetaOutOfRangeDies)
{
    EXPECT_EXIT(parse({"--kv-theta", "1.5"}),
                testing::ExitedWithCode(1),
                "--kv-theta must be in \\[0, 0.9999\\]");
    EXPECT_EXIT(parse({"--kv-theta", "0.9x"}),
                testing::ExitedWithCode(1),
                "--kv-theta must be a finite decimal");
    EXPECT_EXIT(parse({"--kv-theta", "nan"}),
                testing::ExitedWithCode(1),
                "--kv-theta must be a finite decimal");
}

/** Build a one-node machine: its controller parses the trace filter. */
void
buildMachine()
{
    MachineConfig cfg;
    cfg.numNodes = 1;
    cfg.procsPerNode = 1;
    Machine m(cfg);
}

TEST(EnvRegistryDeath, MalformedTraceFilterDies)
{
    // The message-log filter used to go through bare strtoull: "zz"
    // parsed as page 0 and "3x" as line 3, tracing the wrong line with
    // no diagnostic.  The page number is hex, the line index decimal.
    {
        ScopedEnv g("PRISM_TRACE_GPAGE", "zz");
        EXPECT_EXIT(buildMachine(), testing::ExitedWithCode(1),
                    "PRISM_TRACE_GPAGE must be a hexadecimal integer "
                    ".*'zz'");
    }
    {
        ScopedEnv g("PRISM_TRACE_GPAGE", "1f");
        ScopedEnv l("PRISM_TRACE_LI", "3x");
        EXPECT_EXIT(buildMachine(), testing::ExitedWithCode(1),
                    "PRISM_TRACE_LI must be an unsigned integer .*'3x'");
    }
    {
        ScopedEnv g("PRISM_TRACE_GPAGE", "-1");
        EXPECT_EXIT(buildMachine(), testing::ExitedWithCode(1),
                    "PRISM_TRACE_GPAGE must be a hexadecimal integer");
    }
}

TEST(EnvRegistry, WellFormedTraceFilterParses)
{
    ScopedEnv g("PRISM_TRACE_GPAGE", "0x1f");
    ScopedEnv l("PRISM_TRACE_LI", "3");
    buildMachine();
    EXPECT_EQ(parseKnobU64("PRISM_TRACE_GPAGE", "1f", 0, 0, ~0ULL, 16),
              0x1fu);
    EXPECT_EQ(parseKnobU64("PRISM_TRACE_GPAGE", "0x1F", 0, 0, ~0ULL, 16),
              0x1fu);
}

TEST(EnvRegistry, KvKnobsFollowThePrecedenceRule)
{
    ScopedEnv k("PRISM_KV_KEYS", "2048");
    ScopedEnv t("PRISM_KV_THETA", "0.6");
    const BenchOptions o = parse({});
    EXPECT_EQ(o.kvKeys, 2048u);
    EXPECT_DOUBLE_EQ(o.kvTheta, 0.6);
    const BenchOptions f =
        parse({"--kv-keys", "4096", "--kv-theta", "0.99",
               "--kv-mix", "b", "--kv-requests=8192"});
    EXPECT_EQ(f.kvKeys, 4096u);
    EXPECT_DOUBLE_EQ(f.kvTheta, 0.99);
    EXPECT_EQ(f.kvMix, "b");
    EXPECT_EQ(f.kvRequests, 8192u);
}

TEST(EnvRegistryDeath, HelpExitsCleanly)
{
    // The table goes to stdout (EXPECT_EXIT only captures stderr), so
    // assert the clean exit code alone.
    EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace prism
