/**
 * @file
 * The name tables (core/table.hh): every enum's names parse back to
 * their enumerators, every enum knob's registry row (the `--help`
 * table) lists exactly those names, and an unknown value names the
 * knob by the spellings the registry gives it.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "coherence/client_protocol.hh"
#include "coherence/home_protocol.hh"
#include "coherence/msg.hh"
#include "coherence/page_mode.hh"
#include "core/env.hh"
#include "frontend/frontend.hh"
#include "policy/page_policy.hh"
#include "workload/apps.hh"
#include "workload/kvstore.hh"

namespace prism {
namespace {

/** Every name of @p E is distinct and parses back to its enumerator. */
template <typename E>
void
expectRoundTrip(const char *what)
{
    SCOPED_TRACE(what);
    std::set<std::string> seen;
    const std::size_t n = std::size(kNames<E>);
    for (std::size_t i = 0; i < n; ++i) {
        const E e = static_cast<E>(i);
        const char *name = enumName(e);
        EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
        E back = static_cast<E>(i == 0 ? 1 : 0);
        ASSERT_TRUE(enumFromString(name, &back)) << name;
        EXPECT_EQ(back, e) << name;
    }
    E untouched = static_cast<E>(0);
    EXPECT_FALSE(enumFromString("no such name", &untouched));
    EXPECT_FALSE(enumFromString(nullptr, &untouched));
    EXPECT_EQ(untouched, static_cast<E>(0));
    EXPECT_STREQ(enumName(static_cast<E>(n)), "?");
}

/**
 * Knob @p env's registry row lists exactly @p E's names, '|'-separated
 * and in declaration order (lower case where E parses ignoring case).
 */
template <typename E>
void
expectKnobValues(const char *env)
{
    const EnvKnob *k = findEnvKnob(env);
    ASSERT_NE(k, nullptr) << env;
    std::string want;
    for (std::size_t i = 0; i < std::size(kNames<E>); ++i) {
        if (i)
            want += '|';
        want += enumName(static_cast<E>(i));
    }
    if (kFoldCase<E>) {
        for (char &c : want)
            c = static_cast<char>(std::tolower(c));
    }
    EXPECT_EQ(k->values, want) << env;
}

TEST(Names, EveryNameTableRoundTrips)
{
    expectRoundTrip<LineState>("LineState");
    expectRoundTrip<LineEvent>("LineEvent");
    expectRoundTrip<FgTag>("FgTag");
    expectRoundTrip<PageMode>("PageMode");
    expectRoundTrip<DirState>("DirState");
    expectRoundTrip<HomeView>("HomeView");
    expectRoundTrip<HomeEvent>("HomeEvent");
    expectRoundTrip<HomeNext>("HomeNext");
    expectRoundTrip<ClientView>("ClientView");
    expectRoundTrip<ClientEvent>("ClientEvent");
    expectRoundTrip<MsgType>("MsgType");
    expectRoundTrip<PolicyKind>("PolicyKind");
    expectRoundTrip<ProtocolScheme>("ProtocolScheme");
    expectRoundTrip<OracleMode>("OracleMode");
    expectRoundTrip<FrontendKind>("FrontendKind");
    expectRoundTrip<AppScale>("AppScale");
    expectRoundTrip<KvMix>("KvMix");

    expectKnobValues<AppScale>("PRISM_SCALE");
    expectKnobValues<ProtocolScheme>("PRISM_PROTOCOL");
    expectKnobValues<ProtocolScheme>("PRISM_FUZZ_PROTOCOL");
    expectKnobValues<FrontendKind>("PRISM_FRONTEND");
    expectKnobValues<OracleMode>("PRISM_ORACLE");
    expectKnobValues<KvMix>("PRISM_KV_MIX");
}

TEST(Names, KvMixParsesEitherCase)
{
    KvMix m = KvMix::A;
    ASSERT_TRUE(enumFromString("b", &m));
    EXPECT_EQ(m, KvMix::B);
    ASSERT_TRUE(enumFromString("E", &m));
    EXPECT_EQ(m, KvMix::E);
    EXPECT_STREQ(enumName(KvMix::C), "C");
    // Every other table is exact: the paper's spellings only.
    PolicyKind p = PolicyKind::Scoma;
    EXPECT_FALSE(enumFromString("dyn-lru", &p));
}

TEST(Names, UnknownValuesNameTheKnobAndEveryValidName)
{
    EXPECT_EQ(unknownKnobValue<AppScale>("PRISM_SCALE", "huge"),
              "unknown PRISM_SCALE/--scale 'huge' (valid: paper small "
              "tiny)");
    // An env-only knob is named by its variable alone.
    EXPECT_EQ(unknownKnobValue<OracleMode>("PRISM_ORACLE", "always"),
              "unknown PRISM_ORACLE 'always' (valid: off quiescent "
              "continuous)");
    // A tool's own flag, which the registry lacks, is named as given.
    EXPECT_EQ(unknownKnobValue<PolicyKind>("--policy", "X"),
              "unknown --policy 'X' (valid: SCOMA LANUMA SCOMA-70 "
              "Dyn-FCFS Dyn-Util Dyn-LRU Dyn-Both)");
    EXPECT_EXIT(parseKnobEnum<KvMix>("PRISM_KV_MIX", "z"),
                ::testing::ExitedWithCode(1),
                "fatal: unknown PRISM_KV_MIX/--kv-mix 'z' \\(valid: A B "
                "C D E\\)");
    EXPECT_EQ(parseKnobEnum<KvMix>("PRISM_KV_MIX", "a"), KvMix::A);
}

} // namespace
} // namespace prism
