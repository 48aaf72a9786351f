/**
 * @file
 * Litmus tests: classic multi-copy shared-memory shapes run on a real
 * 4-node machine under every (page-mode policy x line-protocol
 * scheme) combination, asserting that the outcomes forbidden under
 * each protocol's consistency contract never appear.
 *
 * Values are observed through the protocol oracle's shadow-value
 * model: each location is written exactly once by its designated
 * writer, so a read observes 0 (initial) or 1 (after the write), and
 * ProtocolOracle::lastReadValue() captures what each processor's
 * committed read returned.  Every case runs under the continuous
 * oracle with fatal violations, several schedules (network jitter
 * seeds + random compute delays), and two placements: all locations
 * on different lines of one page, and each location on its own page
 * with a different static home.
 *
 * The simulated processors are blocking and in-order (one memory
 * access outstanding, committed before the next issues) and the
 * protocol is store-atomic, so the machine should be sequentially
 * consistent; these tests pin that property down per shape.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "check/oracle.hh"
#include "core/machine.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

/** One instruction of a litmus program. */
struct Op {
    bool write;
    int loc;      //!< location index (X=0, Y=1, Z=2)
    int reg = -1; //!< output register for reads
};

/** Registers observed by one run (0 = initial value / never read). */
using Regs = std::array<std::uint64_t, 4>;

struct Shape {
    const char *name;
    std::vector<std::vector<Op>> procs; //!< per-processor programs
    bool (*forbidden)(const Regs &);    //!< SC-forbidden outcome
};

const Shape kShapes[] = {
    // Store buffering: both stores precede both loads in every SC
    // interleaving, so at least one load sees a 1.
    {"SB",
     {{{true, 0}, {false, 1, 0}}, {{true, 1}, {false, 0, 1}}},
     [](const Regs &r) { return r[0] == 0 && r[1] == 0; }},
    // Message passing: seeing the flag (Y) implies seeing the data (X).
    {"MP",
     {{{true, 0}, {true, 1}}, {{false, 1, 0}, {false, 0, 1}}},
     [](const Regs &r) { return r[0] == 1 && r[1] == 0; }},
    // Load buffering: loads cannot both observe the other's later store.
    {"LB",
     {{{false, 0, 0}, {true, 1}}, {{false, 1, 1}, {true, 0}}},
     [](const Regs &r) { return r[0] == 1 && r[1] == 1; }},
    // Independent reads of independent writes: all processors agree on
    // a single order of the two stores (store atomicity).
    {"IRIW",
     {{{true, 0}},
      {{true, 1}},
      {{false, 0, 0}, {false, 1, 1}},
      {{false, 1, 2}, {false, 0, 3}}},
     [](const Regs &r) {
         return r[0] == 1 && r[1] == 0 && r[2] == 1 && r[3] == 0;
     }},
    // Coherence (CoRR): reads of one location cannot go backwards.
    {"CoRR",
     {{{true, 0}}, {{false, 0, 0}, {false, 0, 1}}},
     [](const Regs &r) { return r[0] > r[1]; }},
    // Write-to-read causality: P2 sees Y=1, which P1 wrote after
    // reading X=1, so P2 must also see X=1.
    {"WRC",
     {{{true, 0}},
      {{false, 0, 0}, {true, 1}},
      {{false, 1, 1}, {false, 0, 2}}},
     [](const Regs &r) {
         return r[0] == 1 && r[1] == 1 && r[2] == 0;
     }},
};

/**
 * Per-protocol expectation table.  All four line-protocol schemes are
 * store-atomic invalidation protocols (a store completes only after
 * every other copy is invalidated; Owned/Forward change who supplies
 * data, never when a store becomes visible), so each shape's
 * SC-forbidden outcome is forbidden under every scheme.  The table
 * makes that expectation explicit per protocol so a future relaxed
 * scheme (e.g. an update protocol or early store acknowledgement)
 * must state which shapes it newly permits.
 */
struct ProtocolExpectation {
    ProtocolScheme scheme;
    /** Shape names whose forbidden outcome the scheme permits. */
    std::vector<const char *> permitted;
};

const ProtocolExpectation kProtocolExpectations[] = {
    {ProtocolScheme::Msi, {}},
    {ProtocolScheme::Mesi, {}},
    {ProtocolScheme::Moesi, {}},
    {ProtocolScheme::Mesif, {}},
};

bool
outcomePermitted(ProtocolScheme scheme, const char *shape)
{
    for (const ProtocolExpectation &pe : kProtocolExpectations) {
        if (pe.scheme != scheme)
            continue;
        for (const char *s : pe.permitted) {
            if (!std::strcmp(s, shape))
                return true;
        }
        return false;
    }
    ADD_FAILURE() << "no expectation row for protocol "
                  << enumName(scheme);
    return false;
}

/** Location layout: same page (distinct lines) or one page each. */
enum class Placement { SamePage, DiffHome };

const char *
placementName(Placement pl)
{
    return pl == Placement::SamePage ? "same_page" : "diff_home";
}

CoTask
litmusProgram(Proc &p, Machine &m, const std::vector<Op> *ops,
              const std::vector<VAddr> *locs, Regs *regs,
              std::uint64_t seed)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + p.id() + 1);
    p.compute(rng.below(300)); // skew the start times
    if (!ops)
        co_return;
    for (const Op &op : *ops) {
        if (op.write) {
            co_await p.write((*locs)[op.loc]);
        } else {
            co_await p.read((*locs)[op.loc]);
            (*regs)[op.reg] = m.oracle()->lastReadValue(p.id());
        }
        p.compute(rng.below(80));
    }
}

using LitmusParam = std::tuple<PolicyKind, ProtocolScheme>;

class Litmus : public ::testing::TestWithParam<LitmusParam>
{
};

TEST_P(Litmus, ForbiddenOutcomesNeverAppear)
{
    const PolicyKind policy = std::get<0>(GetParam());
    const ProtocolScheme protocol = std::get<1>(GetParam());
    // Capped policies need a finite page cache to exercise page-outs.
    const bool capped = policy != PolicyKind::Scoma &&
                        policy != PolicyKind::LaNuma;

    for (const Shape &shape : kShapes) {
        for (Placement pl : {Placement::SamePage, Placement::DiffHome}) {
            for (std::uint64_t round = 0; round < 3; ++round) {
                MachineConfig cfg;
                cfg.numNodes = 4;
                cfg.procsPerNode = 1;
                cfg.policy = policy;
                cfg.protocol = protocol;
                cfg.clientFrameCapPerNode.assign(cfg.numNodes,
                                                 capped ? 2 : 0);
                cfg.oracleMode = OracleMode::Continuous;
                cfg.oracleFatal = true;
                cfg.netJitterMax = round == 0 ? 0 : 48;
                cfg.jitterSeed = round * 7919 + 1;
                Machine m(cfg);

                const std::uint64_t gsid =
                    m.shmget(0x117A05, 4 * kPageBytes);
                m.shmatAll(kSharedVsid, gsid);

                // X, Y, Z either on one page (lines 0/1/2) or on pages
                // 0/1/2 (static homes 0/1/2 — gpage % numNodes).
                const std::uint32_t lineBytes = cfg.lineBytes;
                std::vector<VAddr> locs;
                for (std::uint64_t l = 0; l < 3; ++l) {
                    if (pl == Placement::SamePage)
                        locs.push_back(
                            makeVAddr(kSharedVsid, 0, l * lineBytes));
                    else
                        locs.push_back(makeVAddr(kSharedVsid, l, 0));
                }

                Regs regs{};
                m.run([&](Proc &p) {
                    const std::vector<Op> *ops =
                        p.id() < shape.procs.size()
                            ? &shape.procs[p.id()]
                            : nullptr;
                    return litmusProgram(p, m, ops, &locs, &regs,
                                         round * 131 + 17);
                });

                if (!outcomePermitted(protocol, shape.name)) {
                    EXPECT_FALSE(shape.forbidden(regs))
                        << shape.name << "/" << placementName(pl)
                        << " round " << round
                        << ": forbidden outcome [" << regs[0] << ","
                        << regs[1] << "," << regs[2] << "," << regs[3]
                        << "] under " << policyName(policy) << "/"
                        << enumName(protocol);
                }
                ASSERT_EQ(m.oracle()->violationCount(), 0u);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyProtocolMatrix, Litmus,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Scoma, PolicyKind::LaNuma,
                          PolicyKind::Scoma70, PolicyKind::DynFcfs,
                          PolicyKind::DynUtil, PolicyKind::DynLru,
                          PolicyKind::DynBoth),
        ::testing::Values(ProtocolScheme::Msi, ProtocolScheme::Mesi,
                          ProtocolScheme::Moesi,
                          ProtocolScheme::Mesif)),
    [](const ::testing::TestParamInfo<LitmusParam> &info) {
        std::string name = policyName(std::get<0>(info.param));
        name += '_';
        name += enumName(std::get<1>(info.param));
        for (auto &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace prism
