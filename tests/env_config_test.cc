/**
 * @file
 * Environment-knob parsing: every env parser must accept its documented
 * values and fail fast — naming the valid values — on anything else.
 * Covers PRISM_SCALE / PRISM_APPS (BenchOptions::parse,
 * bench/bench_util.hh) and PRISM_ORACLE (core/config + Machine
 * construction), and that PRISM_PROTOCOL leaves a Machine's configured
 * protocol alone.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/bench_util.hh"
#include "core/machine.hh"

namespace prism {
namespace {

/** BenchOptions::parse with no arguments: the environment decides. */
bench::BenchOptions
parseEnv()
{
    char name[] = "bench";
    char *argv[] = {name, nullptr};
    return bench::BenchOptions::parse(1, argv);
}

TEST(EnvConfig, ScaleParsesDocumentedValues)
{
    unsetenv("PRISM_SCALE");
    EXPECT_EQ(parseEnv().scale, AppScale::Paper);
    setenv("PRISM_SCALE", "paper", 1);
    EXPECT_EQ(parseEnv().scale, AppScale::Paper);
    setenv("PRISM_SCALE", "small", 1);
    EXPECT_EQ(parseEnv().scale, AppScale::Small);
    setenv("PRISM_SCALE", "tiny", 1);
    EXPECT_EQ(parseEnv().scale, AppScale::Tiny);
    unsetenv("PRISM_SCALE");
}

TEST(EnvConfig, UnknownScaleFailsFastListingValidNames)
{
    setenv("PRISM_SCALE", "medium", 1);
    EXPECT_EXIT(parseEnv(), ::testing::ExitedWithCode(1),
                "unknown PRISM_SCALE/--scale 'medium' \\(valid: paper "
                "small tiny\\)");
    unsetenv("PRISM_SCALE");
}

TEST(EnvConfig, UnknownScaleFlagNamesBothSpellings)
{
    // The value came from the flag, and the message names the knob by
    // both of its spellings, not by the environment variable alone.
    unsetenv("PRISM_SCALE");
    char name[] = "bench", flag[] = "--scale", value[] = "huge";
    char *argv[] = {name, flag, value, nullptr};
    EXPECT_EXIT(bench::BenchOptions::parse(3, argv),
                ::testing::ExitedWithCode(1),
                "fatal: unknown PRISM_SCALE/--scale 'huge' \\(valid: paper "
                "small tiny\\)");
}

TEST(EnvConfig, AppsFilterSelectsBySubstring)
{
    setenv("PRISM_SCALE", "tiny", 1);
    setenv("PRISM_APPS", "Water", 1);
    auto apps = parseEnv().apps;
    ASSERT_FALSE(apps.empty());
    for (const auto &a : apps)
        EXPECT_NE(a.name.find("Water"), std::string::npos) << a.name;
    unsetenv("PRISM_APPS");
    EXPECT_EQ(parseEnv().apps.size(),
              standardApps(AppScale::Tiny).size());
    unsetenv("PRISM_SCALE");
}

TEST(EnvConfig, UnmatchedAppsFilterFailsFastListingValidNames)
{
    setenv("PRISM_APPS", "no-such-app", 1);
    EXPECT_EXIT(parseEnv(), ::testing::ExitedWithCode(1),
                "matches no application; valid names:");
    unsetenv("PRISM_APPS");
}

TEST(EnvConfig, OracleModeParserAcceptsAllNames)
{
    OracleMode m = OracleMode::Off;
    EXPECT_TRUE(enumFromString("off", &m));
    EXPECT_EQ(m, OracleMode::Off);
    EXPECT_TRUE(enumFromString("quiescent", &m));
    EXPECT_EQ(m, OracleMode::Quiescent);
    EXPECT_TRUE(enumFromString("continuous", &m));
    EXPECT_EQ(m, OracleMode::Continuous);
    EXPECT_FALSE(enumFromString("sometimes", &m));
    EXPECT_FALSE(enumFromString("", &m));
    EXPECT_FALSE(enumFromString(nullptr, &m));

    for (OracleMode mode : {OracleMode::Off, OracleMode::Quiescent,
                            OracleMode::Continuous}) {
        OracleMode back = OracleMode::Off;
        ASSERT_TRUE(enumFromString(enumName(mode), &back));
        EXPECT_EQ(back, mode);
    }
}

TEST(EnvConfig, MachineHonorsOracleEnv)
{
    setenv("PRISM_ORACLE", "continuous", 1);
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    Machine m(cfg);
    EXPECT_NE(m.oracle(), nullptr);
    unsetenv("PRISM_ORACLE");
}

TEST(EnvConfig, MachineKeepsItsConfiguredProtocolUnderProtocolEnv)
{
    // PRISM_PROTOCOL is a bench knob, resolved by BenchOptions::parse
    // (flag > env > default); a Machine reads only cfg.protocol, so a
    // stray variable cannot override --protocol or an explicit field.
    setenv("PRISM_PROTOCOL", "msi", 1);
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    cfg.protocol = ProtocolScheme::Moesi;
    Machine m(cfg);
    unsetenv("PRISM_PROTOCOL");
    EXPECT_EQ(m.config().protocol, ProtocolScheme::Moesi);
    EXPECT_EQ(m.report().protocol, "moesi");
}

TEST(EnvConfig, UnknownOracleEnvFailsFastListingValidNames)
{
    setenv("PRISM_ORACLE", "always", 1);
    MachineConfig cfg;
    cfg.numNodes = 2;
    cfg.procsPerNode = 1;
    EXPECT_EXIT(Machine m(cfg), ::testing::ExitedWithCode(1),
                "unknown PRISM_ORACLE 'always' \\(valid: off quiescent "
                "continuous\\)");
    unsetenv("PRISM_ORACLE");
}

} // namespace
} // namespace prism
