/**
 * @file
 * Tests for the random-schedule explorer (check/explorer): clean
 * protocol runs stay clean under heavy jitter and page-mode flips, a
 * deliberately broken protocol (homes skipping an invalidation) is
 * caught by the oracle and shrinks to a small deterministic replay,
 * and replay ids round-trip.
 *
 * Two suites are driven from CMake as dedicated ctest entries:
 *   - FuzzProtocolSweep: one entry per (line-protocol scheme, seed),
 *     scheme from PRISM_FUZZ_PROTOCOL and seed from
 *     PRISM_PROPERTY_SEED (fuzz_<scheme>_seed_<n>).
 *   - FuzzCorpus: replays tests/litmus/fuzz_corpus.txt — shrunk
 *     failing schedules committed as a regression corpus; each entry
 *     must still be caught by the oracle at exactly its shrunk budget.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/explorer.hh"
#include "policy/page_policy.hh"

namespace prism {
namespace {

TEST(Explorer, CleanFuzzNoViolations)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FuzzOptions opt;
        opt.seed = seed;
        opt.totalOps = 400;
        opt.policy = seed % 2 ? PolicyKind::Scoma : PolicyKind::DynLru;
        opt.clientFrameCap = seed % 2 ? 0 : 2;
        FuzzResult r = runFuzzCase(opt, opt.totalOps);
        EXPECT_FALSE(r.failed)
            << "seed " << seed << ": " << r.firstViolation;
        EXPECT_GT(r.checksRun, 0u);
    }
}

TEST(Explorer, MutationCaughtAndShrunk)
{
    // One skipped invalidation per home: some node keeps a stale
    // Shared copy past a write.  Scan a few seeds — schedules differ —
    // and require that at least one catches it, then shrink that one.
    FuzzOptions opt;
    opt.totalOps = 600;
    opt.mutationSkipInvals = 1;

    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
        opt.seed = seed;
        if (runFuzzCase(opt, opt.totalOps).failed)
            caught = true;
    }
    ASSERT_TRUE(caught) << "no seed in 1..10 exposed the mutation";

    ShrinkResult s = shrinkFailure(opt);
    ASSERT_TRUE(s.reproduced);
    EXPECT_LT(s.minOps, 100u) << "reproducer did not shrink: " << s.replay;
    EXPECT_EQ(s.replay, replayId(opt.seed, s.minOps));

    // The shrunk budget is exactly minimal: minOps fails, minOps-1 passes.
    EXPECT_TRUE(runFuzzCase(opt, s.minOps).failed);
    if (s.minOps > 1) {
        EXPECT_FALSE(runFuzzCase(opt, s.minOps - 1).failed);
    }
}

TEST(Explorer, ReplayDeterminism)
{
    FuzzOptions opt;
    opt.seed = 7;
    opt.totalOps = 300;
    opt.mutationSkipInvals = 1;
    FuzzResult a = runFuzzCase(opt, opt.totalOps);
    FuzzResult b = runFuzzCase(opt, opt.totalOps);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.violationCount, b.violationCount);
    EXPECT_EQ(a.firstViolation, b.firstViolation);
}

/**
 * Per-scheme fuzz sweep.  CMake registers one ctest entry per
 * (scheme, seed): the scheme comes from PRISM_FUZZ_PROTOCOL, the seed
 * from PRISM_PROPERTY_SEED (the repo-wide sweep convention).  Run
 * bare (no env), it smoke-checks seed 1 of every scheme.
 */
TEST(FuzzProtocolSweep, CleanUnderJitterAndPageFlips)
{
    std::vector<ProtocolScheme> schemes;
    std::uint64_t seed = 1;
    if (const char *env = std::getenv("PRISM_FUZZ_PROTOCOL")) {
        ProtocolScheme ps;
        ASSERT_TRUE(enumFromString(env, &ps))
            << "bad PRISM_FUZZ_PROTOCOL '" << env << "'";
        schemes.push_back(ps);
    } else {
        schemes = {ProtocolScheme::Msi, ProtocolScheme::Mesi,
                   ProtocolScheme::Moesi, ProtocolScheme::Mesif};
    }
    if (const char *env = std::getenv("PRISM_PROPERTY_SEED"))
        seed = std::strtoull(env, nullptr, 10);

    // The default 4x2 machine, then 65x1 and 130x1: past 64 nodes the
    // home's Inv fan-out walks a spilled SharerSet.  The wide machines
    // get 4,000 ops so each processor still issues tens of operations.
    struct Width {
        std::uint32_t nodes, procsPerNode, ops;
    };
    for (ProtocolScheme scheme : schemes) {
        for (Width w : {Width{4, 2, 400}, Width{65, 1, 4000},
                        Width{130, 1, 4000}}) {
            FuzzOptions opt;
            opt.seed = seed;
            opt.protocol = scheme;
            opt.numNodes = w.nodes;
            opt.procsPerNode = w.procsPerNode;
            opt.totalOps = w.ops;
            // Vary the policy and frame cap with the seed so the sweep
            // also crosses page-mode machinery per scheme.
            opt.policy = seed % 2 ? PolicyKind::Scoma : PolicyKind::DynLru;
            opt.clientFrameCap = seed % 2 ? 0 : 2;
            FuzzResult r = runFuzzCase(opt, opt.totalOps);
            EXPECT_FALSE(r.failed)
                << enumName(scheme) << " seed " << seed << " at "
                << w.nodes << "x" << w.procsPerNode << ": "
                << r.firstViolation;
            EXPECT_GT(r.checksRun, 0u);
        }
    }
}

/**
 * The fault injection stays observable under every scheme, on the
 * default 4x2 machine and on a 130x1 one whose fan-out spills.
 */
TEST(FuzzProtocolSweep, MutationCaughtUnderEveryScheme)
{
    for (ProtocolScheme scheme :
         {ProtocolScheme::Msi, ProtocolScheme::Mesi,
          ProtocolScheme::Moesi, ProtocolScheme::Mesif}) {
        for (bool wide : {false, true}) {
            FuzzOptions opt;
            opt.protocol = scheme;
            opt.totalOps = wide ? 4000 : 600;
            if (wide) {
                opt.numNodes = 130;
                opt.procsPerNode = 1;
            }
            opt.mutationSkipInvals = 1;
            bool caught = false;
            for (std::uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
                opt.seed = seed;
                if (runFuzzCase(opt, opt.totalOps).failed)
                    caught = true;
            }
            EXPECT_TRUE(caught)
                << enumName(scheme) << " at " << opt.numNodes << "x"
                << opt.procsPerNode
                << ": no seed in 1..10 exposed the skipped invalidation";
        }
    }
}

/** One committed regression-corpus entry. */
struct CorpusEntry {
    std::string scheme;
    std::string policy;
    std::uint32_t skipInvals = 0;
    std::uint64_t seed = 0;
    std::uint32_t len = 0;
};

std::vector<CorpusEntry>
loadCorpus(const std::string &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is) << "cannot open corpus " << path;
    std::vector<CorpusEntry> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        CorpusEntry e;
        std::string replay;
        ls >> e.scheme >> e.policy >> e.skipInvals >> replay;
        EXPECT_FALSE(ls.fail()) << "bad corpus line: " << line;
        EXPECT_TRUE(parseReplayId(replay.c_str(), &e.seed, &e.len))
            << "bad replay id in corpus line: " << line;
        out.push_back(e);
    }
    return out;
}

/**
 * Regression corpus: every committed shrunk schedule still fails at
 * exactly its shrunk budget (the oracle catches the injected fault),
 * and the shrink is still minimal (budget - 1 passes).  Budgets are
 * tiny, so the whole corpus replays in well under a second.
 */
TEST(FuzzCorpus, ShrunkSchedulesStillCaught)
{
    const std::vector<CorpusEntry> corpus =
        loadCorpus(std::string(PRISM_SOURCE_DIR) +
                   "/tests/litmus/fuzz_corpus.txt");
    ASSERT_FALSE(corpus.empty());
    for (const CorpusEntry &e : corpus) {
        SCOPED_TRACE(e.scheme + "/" + e.policy + " " +
                     replayId(e.seed, e.len));
        FuzzOptions opt;
        opt.seed = e.seed;
        ASSERT_TRUE(enumFromString(e.policy.c_str(), &opt.policy));
        ASSERT_TRUE(enumFromString(e.scheme.c_str(), &opt.protocol));
        opt.totalOps = e.len;
        opt.mutationSkipInvals = e.skipInvals;
        EXPECT_TRUE(runFuzzCase(opt, e.len).failed)
            << "corpus schedule no longer caught";
        if (e.len > 1) {
            EXPECT_FALSE(runFuzzCase(opt, e.len - 1).failed)
                << "corpus schedule no longer minimal";
        }
    }
}

TEST(Explorer, ReplayIdRoundTrip)
{
    std::uint64_t seed = 0;
    std::uint32_t len = 0;
    EXPECT_TRUE(parseReplayId("42:17", &seed, &len));
    EXPECT_EQ(seed, 42u);
    EXPECT_EQ(len, 17u);
    EXPECT_EQ(replayId(seed, len), "42:17");

    EXPECT_TRUE(parseReplayId("18446744073709551615:1", &seed, &len));
    EXPECT_EQ(seed, 18446744073709551615ull);

    EXPECT_FALSE(parseReplayId("", &seed, &len));
    EXPECT_FALSE(parseReplayId("42", &seed, &len));
    EXPECT_FALSE(parseReplayId("42:", &seed, &len));
    EXPECT_FALSE(parseReplayId("42:0", &seed, &len));
    EXPECT_FALSE(parseReplayId("42:17trailing", &seed, &len));
    EXPECT_FALSE(parseReplayId(":17", &seed, &len));
    EXPECT_FALSE(parseReplayId(nullptr, &seed, &len));
}

} // namespace
} // namespace prism
