#include "check/explorer.hh"

#include <cinttypes>
#include <cstdio>
#include <memory>

#include "core/machine.hh"
#include "os/kernel.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

namespace prism {

namespace {

/**
 * The random program of one processor.  All randomness is derived
 * from (seed, proc id); the budget is shared across processors so a
 * prefix of the global operation stream is identical for any larger
 * budget (no barriers, no budget-dependent branches).
 */
CoTask
fuzzProgram(Proc &p, FuzzOptions opt, std::uint64_t gsid,
            std::shared_ptr<std::int64_t> budget)
{
    Rng rng(opt.seed * 0x9E3779B97F4A7C15ULL + p.id() + 1);
    for (;;) {
        if (*budget <= 0)
            break;
        --*budget;
        const std::uint64_t pnum = rng.below(opt.pages);
        const std::uint64_t off = rng.below(kPageBytes / 8) * 8;
        const VAddr va = makeVAddr(kSharedVsid, pnum, off);
        const std::uint32_t dice = rng.below(100);
        if (opt.pageModeFlips && dice < 3) {
            // Page the page out at this node (kernel no-ops if it is
            // not mapped here or we are its home), possibly converting
            // it to LA-NUMA on the next fault.
            const GPage gp = (gsid << kPageNumBits) | pnum;
            co_await p.node().kernel().pageOutClient(gp, (dice & 1) != 0);
        } else if (dice < 45) {
            co_await p.write(va);
        } else {
            co_await p.read(va);
        }
        p.compute(rng.below(10));
    }
}

} // namespace

FuzzResult
runFuzzCase(const FuzzOptions &opt, std::uint32_t ops)
{
    MachineConfig cfg;
    cfg.numNodes = opt.numNodes;
    cfg.procsPerNode = opt.procsPerNode;
    cfg.policy = opt.policy;
    cfg.protocol = opt.protocol;
    cfg.clientFrameCapPerNode.assign(cfg.numNodes, opt.clientFrameCap);
    cfg.seed = opt.seed;
    cfg.oracleMode = OracleMode::Continuous;
    cfg.oracleFatal = false; // collect violations; the explorer shrinks
    cfg.netJitterMax = opt.jitterMax;
    cfg.jitterSeed = opt.seed ^ 0xD1B54A32D192ED03ULL;
    cfg.mutationSkipInvals = opt.mutationSkipInvals;

    Machine m(cfg);
    const std::uint64_t gsid =
        m.shmget(0xFE55, static_cast<std::uint64_t>(opt.pages) * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);

    auto budget =
        std::make_shared<std::int64_t>(static_cast<std::int64_t>(ops));
    m.run([&](Proc &p) { return fuzzProgram(p, opt, gsid, budget); });

    ProtocolOracle *oracle = m.oracle();
    FuzzResult r;
    r.violationCount = oracle->violationCount();
    r.checksRun = oracle->checksRun();
    r.failed = r.violationCount != 0;
    r.violations = oracle->violations();
    if (!r.violations.empty())
        r.firstViolation = r.violations.front().what;
    return r;
}

ShrinkResult
shrinkFailure(const FuzzOptions &opt)
{
    ShrinkResult s;
    FuzzResult full = runFuzzCase(opt, opt.totalOps);
    if (!full.failed)
        return s;
    s.reproduced = true;
    s.firstViolation = full.firstViolation;

    // Binary search for the minimal failing budget.  Invariant:
    // `hi` fails; budgets below `lo` are untested-or-passing.
    std::uint32_t lo = 1;
    std::uint32_t hi = opt.totalOps;
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (runFuzzCase(opt, mid).failed)
            hi = mid;
        else
            lo = mid + 1;
    }
    s.minOps = hi;
    s.replay = replayId(opt.seed, hi);
    return s;
}

std::string
replayId(std::uint64_t seed, std::uint32_t len)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%u", seed, len);
    return buf;
}

bool
parseReplayId(const char *s, std::uint64_t *seed, std::uint32_t *len)
{
    if (!s || !seed || !len)
        return false;
    unsigned long long sd = 0;
    unsigned ln = 0;
    int consumed = 0;
    if (std::sscanf(s, "%llu:%u%n", &sd, &ln, &consumed) != 2 ||
        s[consumed] != '\0' || ln == 0) {
        return false;
    }
    *seed = sd;
    *len = ln;
    return true;
}

} // namespace prism
